package relstore

import (
	"fmt"
	"io"
	"slices"

	"qint/internal/binio"
)

// This file is the binary persistence codec behind the durable storage
// engine (internal/storage): the catalog's tables and its value-index
// segments encode to compact length-prefixed binary sections, and decode by
// re-pointing rather than re-deriving — a loaded segment is installed
// verbatim as its table's segment, so a restart skips normalisation and
// trigram extraction entirely (the dominant cold-start cost). Strings decode
// as substrings of one backing string per section, and a segment's posting
// indexes decode into flat arrays sized up front, so loading allocates
// O(tables + segments) backing arrays, not O(values).
//
// The encoding primitives are internal/binio's, shared with the search
// graph's section. Both encoders are deterministic: tables serialise in registration order,
// segment entries are already sorted by (attribute, value), and posting
// indexes serialise in their ascending key order with delta-encoded
// ascending id lists. The same catalog therefore always produces the same
// bytes — which the storage layer's restart-equivalence tests rely on.

const (
	catalogBinMagic  = "QCATb1\n\n"
	segmentsBinMagic = "QSEGb1\n\n"
)

// ---------------------------------------------------------------------------
// catalog tables

// SaveBinary encodes the catalog's schemas and rows — the ground truth the
// engine re-registers on restart — in registration order.
func (c *Catalog) SaveBinary(w io.Writer) error {
	b := binio.NewWriter(w)
	b.Raw(catalogBinMagic)
	b.Uvarint(uint64(len(c.order)))
	for _, qn := range c.order {
		t := c.tables[qn]
		rel := t.Relation
		b.Str(rel.Source)
		b.Str(rel.Name)
		b.Uvarint(uint64(len(rel.Attributes)))
		for _, a := range rel.Attributes {
			b.Str(a.Name)
			b.Uvarint(uint64(a.Type))
		}
		b.Uvarint(uint64(len(rel.ForeignKeys)))
		for _, fk := range rel.ForeignKeys {
			b.Str(fk.FromAttr)
			b.Str(fk.ToRelation)
			b.Str(fk.ToAttr)
		}
		b.Uvarint(uint64(len(t.Rows)))
		for _, row := range t.Rows {
			for _, v := range row {
				b.Str(v)
			}
		}
	}
	if err := b.Flush(); err != nil {
		return fmt.Errorf("relstore: save catalog: %w", err)
	}
	return nil
}

// LoadCatalog decodes a SaveBinary section into a fresh catalog. Row and
// schema strings alias one backing string for the whole section.
func LoadCatalog(data []byte) (*Catalog, error) {
	r := binio.NewReader(data, catalogBinMagic)
	c := NewCatalog()
	nTables := r.Count("table")
	for ti := 0; ti < nTables && r.Err() == nil; ti++ {
		rel := &Relation{Source: r.Str(), Name: r.Str()}
		nAttr := r.Count("attribute")
		rel.Attributes = make([]Attribute, nAttr)
		for i := range rel.Attributes {
			rel.Attributes[i] = Attribute{Name: r.Str(), Type: Type(r.Uvarint())}
		}
		nFK := r.Count("foreign key")
		if nFK > 0 {
			rel.ForeignKeys = make([]ForeignKey, nFK)
			for i := range rel.ForeignKeys {
				rel.ForeignKeys[i] = ForeignKey{FromAttr: r.Str(), ToRelation: r.Str(), ToAttr: r.Str()}
			}
		}
		nRows := r.Count("row")
		rows := make([][]string, nRows)
		if nAttr > 0 {
			flat := make([]string, nRows*nAttr)
			for i := range rows {
				row := flat[i*nAttr : (i+1)*nAttr]
				for j := range row {
					row[j] = r.Str()
				}
				rows[i] = row
			}
		} else {
			for i := range rows {
				rows[i] = []string{}
			}
		}
		if r.Err() != nil {
			break
		}
		t, err := NewTable(rel, rows)
		if err != nil {
			return nil, fmt.Errorf("relstore: load catalog: %w", err)
		}
		if err := c.AddTable(t); err != nil {
			return nil, fmt.Errorf("relstore: load catalog: %w", err)
		}
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("relstore: load catalog: %w", r.Err())
	}
	return c, nil
}

// LoadCatalogBinary decodes a SaveBinary section into a fresh catalog.
//
// Deprecated: the catalog is one partition and shards is ignored; use
// LoadCatalog.
func LoadCatalogBinary(data []byte, shards int) (*Catalog, error) { return LoadCatalog(data) }

// ---------------------------------------------------------------------------
// value-index segments

// SaveSegments encodes the segment of every indexed table; an unindexed
// table writes none, and BuildValueIndex indexes it after a restart.
// Deterministic: segments serialise in registration order, posting keys in
// their stored ascending order, id lists delta-encoded.
func (c *Catalog) SaveSegments(w io.Writer) error {
	b := binio.NewWriter(w)
	b.Raw(segmentsBinMagic)
	var segs []*segment
	for _, qn := range c.order {
		if s := c.segs[qn]; s != nil {
			segs = append(segs, s)
		}
	}
	b.Uvarint(uint64(len(segs)))
	var gram []byte
	for _, s := range segs {
		b.Str(s.rel)
		b.Uvarint(uint64(len(s.attrs)))
		for _, a := range s.attrs {
			b.Str(a)
		}
		for _, off := range s.attrStart {
			b.Uvarint(uint64(off))
		}
		b.Uvarint(uint64(len(s.entries)))
		for _, e := range s.entries {
			b.Str(e.val)
			b.Str(e.norm)
			b.Uvarint(uint64(e.rows))
		}
		writePostings(b, &s.grams, func(code uint64) {
			gram = appendGram(gram[:0], code)
			b.Bytes(gram)
		})
		writePostings(b, &s.tokens, b.Str)
	}
	if err := b.Flush(); err != nil {
		return fmt.Errorf("relstore: save segments: %w", err)
	}
	return nil
}

// writePostings encodes one posting index: the key count, then per key the
// key (written by key) and its delta-encoded id list.
func writePostings[K uint64 | string](b *binio.Writer, p *postings[K], key func(K)) {
	b.Uvarint(uint64(len(p.keys)))
	for i, k := range p.keys {
		key(k)
		ids := p.ids[p.off[i]:p.off[i+1]]
		b.Uvarint(uint64(len(ids)))
		prev := int32(0)
		for _, id := range ids {
			b.Uvarint(uint64(id - prev)) // ascending ids: deltas are non-negative
			prev = id
		}
	}
}

// readPostings decodes one posting index into flat arrays; scratch collects
// the ids and is reused across calls, so the index costs three allocations.
// key parses a section key, reporting false for one the index cannot hold.
// Keys must ascend strictly, and every id is checked as it is decoded: each
// list must ascend strictly from 0 and stay below nEntries, so a corrupt
// delta can neither wrap an id negative nor point past the segment's
// entries.
func readPostings[K uint64 | string](r *binio.Reader, nEntries int, key func(string) (K, bool), scratch *[]int32) postings[K] {
	n := r.Count("posting key")
	if r.Err() != nil || n == 0 {
		return postings[K]{}
	}
	p := postings[K]{keys: make([]K, n), off: make([]int32, n+1)}
	ids := (*scratch)[:0]
	for i := 0; i < n && r.Err() == nil; i++ {
		raw := r.Str()
		k, ok := key(raw)
		if r.Err() == nil && (!ok || i > 0 && k <= p.keys[i-1]) {
			r.Failf("posting key %q is malformed or not above its predecessor", raw)
		}
		p.keys[i] = k
		ln := r.Count("posting id")
		var id uint64
		for j := 0; j < ln; j++ {
			d := r.Uvarint()
			if r.Err() != nil {
				break
			}
			// d < nEntries-id keeps id+d in range and cannot overflow.
			if (j > 0 && d == 0) || d >= uint64(nEntries)-id {
				r.Failf("posting list %q is not ascending below %d entries", raw, nEntries)
				break
			}
			id += d
			ids = append(ids, int32(id))
		}
		p.off[i+1] = int32(len(ids))
	}
	*scratch = ids
	if r.Err() != nil {
		return postings[K]{}
	}
	p.ids = slices.Clone(ids)
	return p
}

func tokenKey(s string) (string, bool) { return s, true }

// LoadSegments decodes a SaveSegments section and installs each segment
// verbatim as its table's segment — the re-point load path: no
// normalisation, no trigram extraction, no row scans. Writer-side, like
// AddTable. A segment naming a relation absent from the catalog or already
// indexed, or attributes other than its table's, is an error (the
// snapshot's catalog and segment sections are written together and must
// agree), and so is an attribute span holding an empty value or values not
// strictly ascending, which Values and ValueOverlap rely on.
func (c *Catalog) LoadSegments(data []byte) error {
	r := binio.NewReader(data, segmentsBinMagic)
	var scratch []int32
	nSegs := r.Count("segment")
	for si := 0; si < nSegs && r.Err() == nil; si++ {
		s := &segment{rel: r.Str()}
		nAttr := r.Count("attribute")
		s.attrs = make([]string, nAttr)
		for i := range s.attrs {
			s.attrs[i] = r.Str()
		}
		s.attrStart = make([]int, nAttr+1)
		for i := range s.attrStart {
			s.attrStart[i] = int(r.Uvarint())
		}
		nEntries := r.Count("entry")
		if r.Err() == nil {
			ok := s.attrStart[0] == 0 && s.attrStart[nAttr] == nEntries
			for i := 0; ok && i < nAttr; i++ {
				ok = s.attrStart[i] <= s.attrStart[i+1]
			}
			if !ok {
				r.Failf("segment %s attribute spans disagree with %d entries", s.rel, nEntries)
				break
			}
		}
		s.entries = make([]indexEntry, nEntries)
		ai := 0
		for i := range s.entries {
			for ai < nAttr && i >= s.attrStart[ai+1] {
				ai++
			}
			e := indexEntry{
				attr: ai,
				val:  r.Str(),
				norm: r.Str(),
				rows: int(r.Uvarint()),
			}
			if r.Err() == nil && (e.val == "" || i > s.attrStart[ai] && e.val <= s.entries[i-1].val) {
				r.Failf("segment %s entry %q is empty or not above its predecessor", s.rel, e.val)
			}
			s.entries[i] = e
		}
		s.grams = readPostings(r, nEntries, parseGram, &scratch)
		s.tokens = readPostings(r, nEntries, tokenKey, &scratch)
		if r.Err() != nil {
			break
		}
		t := c.tables[s.rel]
		if t == nil {
			return fmt.Errorf("relstore: load segments: segment for unknown relation %s", s.rel)
		}
		if c.segs[s.rel] != nil {
			return fmt.Errorf("relstore: load segments: second segment for %s", s.rel)
		}
		if !slices.EqualFunc(s.attrs, t.Relation.Attributes, func(a string, b Attribute) bool { return a == b.Name }) {
			return fmt.Errorf("relstore: load segments: segment for %s disagrees with its table's attributes", s.rel)
		}
		c.segs[s.rel] = s
	}
	if r.Err() != nil {
		return fmt.Errorf("relstore: load segments: %w", r.Err())
	}
	return nil
}
