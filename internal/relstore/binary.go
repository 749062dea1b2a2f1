package relstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
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
// Both encoders are deterministic: tables serialise in registration order,
// segment entries are already sorted by (attribute, value), and posting
// indexes serialise in their ascending key order with delta-encoded
// ascending id lists. The same catalog therefore always produces the same
// bytes — which the storage layer's restart-equivalence tests rely on.

const (
	catalogBinMagic  = "QCATb1\n\n"
	segmentsBinMagic = "QSEGb1\n\n"
)

// ---------------------------------------------------------------------------
// encoding primitives

type binWriter struct {
	w       *bufio.Writer
	scratch [binary.MaxVarintLen64]byte
	err     error
}

func newBinWriter(w io.Writer) *binWriter { return &binWriter{w: bufio.NewWriter(w)} }

func (b *binWriter) uvarint(v uint64) {
	if b.err != nil {
		return
	}
	n := binary.PutUvarint(b.scratch[:], v)
	_, b.err = b.w.Write(b.scratch[:n])
}

func (b *binWriter) str(s string) {
	b.uvarint(uint64(len(s)))
	if b.err != nil {
		return
	}
	_, b.err = b.w.WriteString(s)
}

func (b *binWriter) bytes(p []byte) {
	b.uvarint(uint64(len(p)))
	if b.err != nil {
		return
	}
	_, b.err = b.w.Write(p)
}

func (b *binWriter) flush() error {
	if b.err != nil {
		return b.err
	}
	return b.w.Flush()
}

// binReader decodes from an in-memory section. The whole input converts to
// ONE string up front; str returns substrings of it, aliasing that single
// backing array instead of allocating per value.
type binReader struct {
	s   string
	off int
	err error
}

func newBinReader(data []byte, magic string) *binReader {
	r := &binReader{s: string(data)}
	if len(r.s) < len(magic) || r.s[:len(magic)] != magic {
		r.err = fmt.Errorf("relstore: bad binary section magic")
		return r
	}
	r.off = len(magic)
	return r
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("relstore: binary decode: truncated %s at offset %d", what, r.off)
	}
}

// uvarint decodes like binary.Uvarint, reading the section string in place.
func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	for i, shift := 0, uint(0); i < binary.MaxVarintLen64 && r.off+i < len(r.s); i, shift = i+1, shift+7 {
		c := r.s[r.off+i]
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				break // overflows 64 bits
			}
			r.off += i + 1
			return v | uint64(c)<<shift
		}
		v |= uint64(c&0x7f) << shift
	}
	r.fail("varint")
	return 0
}

// count reads a uvarint that will be used as an allocation size, bounding it
// by the bytes remaining so corrupt input cannot force a huge allocation.
func (r *binReader) count(what string) int {
	v := r.uvarint()
	if r.err == nil && v > uint64(len(r.s)-r.off) {
		r.err = fmt.Errorf("relstore: binary decode: %s count %d exceeds input", what, v)
		return 0
	}
	return int(v)
}

func (r *binReader) str() string {
	n := int(r.uvarint())
	if r.err != nil {
		return ""
	}
	if n < 0 || r.off+n > len(r.s) {
		r.fail("string")
		return ""
	}
	s := r.s[r.off : r.off+n]
	r.off += n
	return s
}

// ---------------------------------------------------------------------------
// catalog tables

// SaveBinary encodes the catalog's schemas and rows — the ground truth the
// engine re-registers on restart — in registration order.
func (c *Catalog) SaveBinary(w io.Writer) error {
	b := newBinWriter(w)
	if _, err := b.w.WriteString(catalogBinMagic); err != nil {
		return err
	}
	b.uvarint(uint64(len(c.order)))
	for _, qn := range c.order {
		t := c.tables[qn]
		rel := t.Relation
		b.str(rel.Source)
		b.str(rel.Name)
		b.uvarint(uint64(len(rel.Attributes)))
		for _, a := range rel.Attributes {
			b.str(a.Name)
			b.uvarint(uint64(a.Type))
		}
		b.uvarint(uint64(len(rel.ForeignKeys)))
		for _, fk := range rel.ForeignKeys {
			b.str(fk.FromAttr)
			b.str(fk.ToRelation)
			b.str(fk.ToAttr)
		}
		b.uvarint(uint64(len(t.Rows)))
		for _, row := range t.Rows {
			for _, v := range row {
				b.str(v)
			}
		}
	}
	if err := b.flush(); err != nil {
		return fmt.Errorf("relstore: save catalog: %w", err)
	}
	return nil
}

// LoadCatalog decodes a SaveBinary section into a fresh catalog. Row and
// schema strings alias one backing string for the whole section.
func LoadCatalog(data []byte) (*Catalog, error) {
	r := newBinReader(data, catalogBinMagic)
	c := NewCatalog()
	nTables := r.count("table")
	for ti := 0; ti < nTables && r.err == nil; ti++ {
		rel := &Relation{Source: r.str(), Name: r.str()}
		nAttr := r.count("attribute")
		rel.Attributes = make([]Attribute, nAttr)
		for i := range rel.Attributes {
			rel.Attributes[i] = Attribute{Name: r.str(), Type: Type(r.uvarint())}
		}
		nFK := r.count("foreign key")
		if nFK > 0 {
			rel.ForeignKeys = make([]ForeignKey, nFK)
			for i := range rel.ForeignKeys {
				rel.ForeignKeys[i] = ForeignKey{FromAttr: r.str(), ToRelation: r.str(), ToAttr: r.str()}
			}
		}
		nRows := r.count("row")
		rows := make([][]string, nRows)
		if nAttr > 0 {
			flat := make([]string, nRows*nAttr)
			for i := range rows {
				row := flat[i*nAttr : (i+1)*nAttr]
				for j := range row {
					row[j] = r.str()
				}
				rows[i] = row
			}
		} else {
			for i := range rows {
				rows[i] = []string{}
			}
		}
		if r.err != nil {
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
	if r.err != nil {
		return nil, r.err
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
	b := newBinWriter(w)
	if _, err := b.w.WriteString(segmentsBinMagic); err != nil {
		return err
	}
	var segs []*segment
	for _, qn := range c.order {
		if s := c.segs[qn]; s != nil {
			segs = append(segs, s)
		}
	}
	b.uvarint(uint64(len(segs)))
	var gram []byte
	for _, s := range segs {
		b.str(s.rel)
		b.uvarint(uint64(len(s.attrs)))
		for _, a := range s.attrs {
			b.str(a)
		}
		for _, off := range s.attrStart {
			b.uvarint(uint64(off))
		}
		b.uvarint(uint64(len(s.entries)))
		for _, e := range s.entries {
			b.str(e.val)
			b.str(e.norm)
			b.uvarint(uint64(e.rows))
		}
		writePostings(b, &s.grams, func(code uint64) {
			gram = appendGram(gram[:0], code)
			b.bytes(gram)
		})
		writePostings(b, &s.tokens, b.str)
	}
	if err := b.flush(); err != nil {
		return fmt.Errorf("relstore: save segments: %w", err)
	}
	return nil
}

// writePostings encodes one posting index: the key count, then per key the
// key (written by key) and its delta-encoded id list.
func writePostings[K uint64 | string](b *binWriter, p *postings[K], key func(K)) {
	b.uvarint(uint64(len(p.keys)))
	for i, k := range p.keys {
		key(k)
		ids := p.ids[p.off[i]:p.off[i+1]]
		b.uvarint(uint64(len(ids)))
		prev := int32(0)
		for _, id := range ids {
			b.uvarint(uint64(id - prev)) // ascending ids: deltas are non-negative
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
func readPostings[K uint64 | string](r *binReader, nEntries int, key func(string) (K, bool), scratch *[]int32) postings[K] {
	n := r.count("posting key")
	if r.err != nil || n == 0 {
		return postings[K]{}
	}
	p := postings[K]{keys: make([]K, n), off: make([]int32, n+1)}
	ids := (*scratch)[:0]
	for i := 0; i < n && r.err == nil; i++ {
		raw := r.str()
		k, ok := key(raw)
		if r.err == nil && (!ok || i > 0 && k <= p.keys[i-1]) {
			r.err = fmt.Errorf("relstore: binary decode: posting key %q is malformed or not above its predecessor", raw)
		}
		p.keys[i] = k
		ln := r.count("posting id")
		var id uint64
		for j := 0; j < ln; j++ {
			d := r.uvarint()
			if r.err != nil {
				break
			}
			// d < nEntries-id keeps id+d in range and cannot overflow.
			if (j > 0 && d == 0) || d >= uint64(nEntries)-id {
				r.err = fmt.Errorf("relstore: binary decode: posting list %q is not ascending below %d entries", raw, nEntries)
				break
			}
			id += d
			ids = append(ids, int32(id))
		}
		p.off[i+1] = int32(len(ids))
	}
	*scratch = ids
	if r.err != nil {
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
	r := newBinReader(data, segmentsBinMagic)
	var scratch []int32
	nSegs := r.count("segment")
	for si := 0; si < nSegs && r.err == nil; si++ {
		s := &segment{rel: r.str()}
		nAttr := r.count("attribute")
		s.attrs = make([]string, nAttr)
		for i := range s.attrs {
			s.attrs[i] = r.str()
		}
		s.attrStart = make([]int, nAttr+1)
		for i := range s.attrStart {
			s.attrStart[i] = int(r.uvarint())
		}
		nEntries := r.count("entry")
		if r.err == nil {
			ok := s.attrStart[0] == 0 && s.attrStart[nAttr] == nEntries
			for i := 0; ok && i < nAttr; i++ {
				ok = s.attrStart[i] <= s.attrStart[i+1]
			}
			if !ok {
				r.err = fmt.Errorf("relstore: binary decode: segment %s attribute spans disagree with %d entries", s.rel, nEntries)
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
				val:  r.str(),
				norm: r.str(),
				rows: int(r.uvarint()),
			}
			if r.err == nil && (e.val == "" || i > s.attrStart[ai] && e.val <= s.entries[i-1].val) {
				r.err = fmt.Errorf("relstore: binary decode: segment %s entry %q is empty or not above its predecessor", s.rel, e.val)
			}
			s.entries[i] = e
		}
		s.grams = readPostings(r, nEntries, parseGram, &scratch)
		s.tokens = readPostings(r, nEntries, tokenKey, &scratch)
		if r.err != nil {
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
	return r.err
}
