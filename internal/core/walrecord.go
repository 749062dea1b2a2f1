package core

import (
	"bytes"
	"errors"
	"maps"
	"slices"

	"qint/internal/binio"
	"qint/internal/learning"
	"qint/internal/relstore"
	"qint/internal/searchgraph"
)

// WAL record kinds (the storage layer treats kinds as opaque).
const (
	// walKindJSON is the retired JSON walRecord. Open refuses it by name
	// (errJSONWALRecord); a cleanly closed directory has an empty WAL and
	// holds none.
	walKindJSON byte = 1
	// walKindMutation is the one record kind written: a binary walRecord.
	walKindMutation byte = 2
)

// errJSONWALRecord is restore's error for a WAL record of the retired JSON
// kind. Only a crash of a build that wrote JSON records leaves one behind.
var errJSONWALRecord = errors.New("WAL record kind 1 is the retired JSON record, which is no longer read")

// walAssoc is one association edge of a record: canonical endpoints and
// the final feature vector, installed verbatim on replay.
type walAssoc struct {
	A, B     relstore.AttrRef
	Features learning.Vector
}

// walRecord is the effect of one write, applied on replay in field order:
// the tables that entered the catalog, the association edges the write
// added or merged into (id order, final features), then the weight delta.
// Every part is optional; a write that changes none of them logs nothing.
type walRecord struct {
	Tables []*relstore.Table
	Assocs []walAssoc
	searchgraph.WeightDelta
}

func (r walRecord) empty() bool {
	return len(r.Tables) == 0 && len(r.Assocs) == 0 && r.WeightDelta.Empty()
}

// encodeWALRecord writes r as a walKindMutation payload:
//
//	table count, each table in the catalog section's codec (WriteTable)
//	name dictionary: count, each name
//	association count, per edge: A relation, A attribute, B relation,
//	  B attribute, feature count, per feature (name code, float64 bits)
//	  in ascending name order
//	set count, per weight (name, float64 bits) in ascending name order
//	del count, each name, ascending
//
// where a name is its index in the dictionary, which holds each relation,
// attribute and feature name the record uses once, in order of first use.
// A feature's name code is 0 for the edge's own indicator
// (searchgraph.AssociationIndicator of its endpoints, a long name no other
// edge carries), and its dictionary index plus one otherwise. The encoding
// is deterministic: the same record always produces the same bytes.
func encodeWALRecord(r walRecord) []byte {
	// The dictionary precedes its uses, so the codes are collected first.
	ids := make(map[string]uint64)
	var names []string
	var codes []uint64
	id := func(s string) uint64 {
		i, ok := ids[s]
		if !ok {
			i = uint64(len(names))
			ids[s] = i
			names = append(names, s)
		}
		return i
	}
	keys := make([][]string, len(r.Assocs))
	for i, a := range r.Assocs {
		codes = append(codes, id(a.A.Relation), id(a.A.Attr), id(a.B.Relation), id(a.B.Attr))
		ind := searchgraph.AssociationIndicator(a.A, a.B)
		keys[i] = slices.Sorted(maps.Keys(a.Features))
		for _, k := range keys[i] {
			if k == ind {
				codes = append(codes, 0)
			} else {
				codes = append(codes, id(k)+1)
			}
		}
	}
	set := slices.Sorted(maps.Keys(r.Set))
	for _, k := range set {
		codes = append(codes, id(k))
	}
	del := slices.Sorted(slices.Values(r.Del))
	for _, k := range del {
		codes = append(codes, id(k))
	}

	var buf bytes.Buffer
	b := binio.NewWriter(&buf)
	b.Uvarint(uint64(len(r.Tables)))
	for _, t := range r.Tables {
		relstore.WriteTable(b, t)
	}
	b.Uvarint(uint64(len(names)))
	for _, s := range names {
		b.Str(s)
	}
	next := func() uint64 {
		c := codes[0]
		codes = codes[1:]
		return c
	}
	b.Uvarint(uint64(len(r.Assocs)))
	for i, a := range r.Assocs {
		for range 4 {
			b.Uvarint(next())
		}
		b.Uvarint(uint64(len(keys[i])))
		for _, k := range keys[i] {
			b.Uvarint(next())
			b.Float64(a.Features[k])
		}
	}
	b.Uvarint(uint64(len(set)))
	for _, k := range set {
		b.Uvarint(next())
		b.Float64(r.Set[k])
	}
	b.Uvarint(uint64(len(del)))
	for range del {
		b.Uvarint(next())
	}
	b.Flush() // a bytes.Buffer does not fail
	return buf.Bytes()
}

// decodeWALRecord decodes an encodeWALRecord payload. It refuses trailing
// bytes and every structure the encoder does not write — a repeated or
// unused dictionary name, a name index out of first-use order, features,
// weights or deletions not strictly ascending by name, an empty record —
// so an accepted payload re-encodes to itself. Its strings alias the
// payload, which must not be modified afterwards. It reads nothing but the
// payload, so records decode concurrently.
func decodeWALRecord(payload []byte) (walRecord, error) {
	r := binio.NewTransientReader(payload, "")
	var rec walRecord
	if n := r.Count("table"); n > 0 {
		rec.Tables = make([]*relstore.Table, n)
		for i := range rec.Tables {
			if rec.Tables[i] = relstore.ReadTable(r); rec.Tables[i] == nil {
				return walRecord{}, r.Err()
			}
		}
	}
	names := make([]string, r.Count("name"))
	for i := range names {
		names[i] = r.Str()
	}
	distinct := make(map[string]struct{}, len(names))
	for _, s := range names {
		distinct[s] = struct{}{}
	}
	if len(distinct) != len(names) {
		r.Failf("WAL record dictionary repeats a name")
	}
	used := 0 // names[:used] have been used
	nameAt := func(id uint64) string {
		if id > uint64(used) || id >= uint64(len(names)) {
			r.Failf("WAL record name index %d is not below %d or not in first-use order", id, min(used+1, len(names)))
			return ""
		}
		if id == uint64(used) {
			used++
		}
		return names[id]
	}
	name := func() string {
		if id := r.Uvarint(); r.Err() == nil {
			return nameAt(id)
		}
		return ""
	}
	// ascending reads n names with next, strictly ascending, each followed
	// by what put reads.
	ascending := func(what string, n int, next func() string, put func(string)) {
		prev := ""
		for i := 0; i < n && r.Err() == nil; i++ {
			k := next()
			if r.Err() == nil && i > 0 && k <= prev {
				r.Failf("WAL record %s %q is not above %q", what, k, prev)
			}
			put(k)
			prev = k
		}
	}
	if n := r.Count("association"); n > 0 {
		rec.Assocs = make([]walAssoc, n)
		for i := range rec.Assocs {
			a := &rec.Assocs[i]
			a.A.Relation, a.A.Attr, a.B.Relation, a.B.Attr = name(), name(), name(), name()
			nf := r.Count("feature")
			if r.Err() != nil {
				return walRecord{}, r.Err()
			}
			ind := searchgraph.AssociationIndicator(a.A, a.B)
			feature := func() string {
				code := r.Uvarint()
				switch {
				case r.Err() != nil:
					return ""
				case code == 0:
					return ind
				}
				k := nameAt(code - 1)
				if k == ind {
					r.Failf("WAL record names the indicator %q through the dictionary", ind)
				}
				return k
			}
			a.Features = make(learning.Vector, nf)
			ascending("feature", nf, feature, func(k string) { a.Features[k] = r.Float64() })
			if r.Err() != nil {
				return walRecord{}, r.Err()
			}
		}
	}
	if n := r.Count("weight"); n > 0 {
		rec.Set = make(map[string]float64, n)
		ascending("weight", n, name, func(k string) { rec.Set[k] = r.Float64() })
	}
	if n := r.Count("deleted weight"); n > 0 {
		rec.Del = make([]string, 0, n)
		ascending("deleted weight", n, name, func(k string) { rec.Del = append(rec.Del, k) })
	}
	if r.Err() == nil && used != len(names) {
		r.Failf("WAL record dictionary holds %d unused names", len(names)-used)
	}
	if r.Err() == nil && rec.empty() {
		r.Failf("WAL record changes nothing")
	}
	if err := r.End(); err != nil {
		return walRecord{}, err
	}
	return rec, nil
}
