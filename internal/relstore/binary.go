package relstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"qint/internal/binio"
)

// This file is the binary persistence codec behind the durable storage
// engine (internal/storage): the catalog's tables and its value-index
// segments encode to compact length-prefixed binary sections, and decode by
// re-pointing rather than re-deriving — a loaded segment is installed
// verbatim as its table's segment, so a restart skips normalisation and
// trigram extraction entirely (the dominant cold-start cost).
//
// The catalog section is the ground truth: schemas and every row, whose
// strings decode as substrings of one backing string for the section. The
// segments section (QSEGb3) repeats none of it. A segment names its table
// by registration position, an entry names its value by the first row
// carrying it and writes its normalised form only when that differs, and a
// trigram key is its gram code as a delta from the previous key's. Loaded
// values therefore alias the catalog's rows, and the few differing
// normalised values are copied into one string per segment, so a loaded
// catalog does not pin its segments section. The posting index decodes
// into flat arrays, so loading allocates O(tables + segments) backing
// arrays, not O(values). The retired layouts are refused by name
// (ErrRetiredSegments): QSEGb1, which wrote every value, normalised form
// and key as a string, and QSEGb2, which also carried a whole-token
// posting index.
//
// The encoding primitives are internal/binio's, shared with the search
// graph's section. Both encoders are deterministic: tables serialise in
// registration order, segment entries are already sorted by (attribute,
// value), and posting indexes serialise in their ascending key order with
// delta-encoded ascending id lists. The same catalog therefore always
// produces the same bytes — which the storage layer's restart-equivalence
// tests rely on — and both decoders refuse trailing bytes and any
// structure their encoder would not write, so an accepted section
// re-encodes to itself.

const (
	catalogBinMagic  = "QCATb1\n\n"
	segmentsBinMagic = "QSEGb3\n\n"
	segmentsV1Magic  = "QSEGb1\n\n" // retired: see ErrRetiredSegments
	segmentsV2Magic  = "QSEGb2\n\n" // retired: see ErrRetiredSegments
)

// ---------------------------------------------------------------------------
// catalog tables

// SaveBinary encodes the catalog's schemas and rows — the ground truth the
// engine re-registers on restart — in registration order, each table as
// WriteTable writes it.
func (c *Catalog) SaveBinary(w io.Writer) error {
	b := binio.NewWriter(w)
	b.Raw(catalogBinMagic)
	b.Uvarint(uint64(len(c.order)))
	for _, qn := range c.order {
		WriteTable(b, c.tables[qn])
	}
	if err := b.Flush(); err != nil {
		return fmt.Errorf("relstore: save catalog: %w", err)
	}
	return nil
}

// WriteTable encodes one table: source, name, attributes (name, type),
// foreign keys, the row count and every cell row by row. It is the
// catalog section's table codec, and the engine's WAL records write
// their tables with it too.
func WriteTable(b *binio.Writer, t *Table) {
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

// ReadTable decodes one WriteTable table, whose strings are substrings of
// the reader's section. It returns nil once r has failed, and records an
// invalid schema (NewTable's error) as r's error.
func ReadTable(r *binio.Reader) *Table {
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
		return nil
	}
	t, err := NewTable(rel, rows)
	if err != nil {
		r.Failf("%w", err)
		return nil
	}
	return t
}

// LoadCatalog decodes a SaveBinary section into a fresh catalog. Row and
// schema strings alias one backing string for the whole section.
func LoadCatalog(data []byte) (*Catalog, error) {
	r := binio.NewReader(data, catalogBinMagic)
	c := NewCatalog()
	nTables := r.Count("table")
	for ti := 0; ti < nTables && r.Err() == nil; ti++ {
		t := ReadTable(r)
		if t == nil {
			break
		}
		if err := c.AddTable(t); err != nil {
			return nil, fmt.Errorf("relstore: load catalog: %w", err)
		}
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("relstore: load catalog: %w", err)
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

// ErrRetiredSegments is LoadSegments' error for a segments section in a
// retired layout: QSEGb1, which repeated every value, normalised form and
// key as a string, or QSEGb2, which also carried whole-token postings. Such
// a section's snapshot still carries its catalog's tables in the catalog
// section, so a restore treats it as absent and indexes the tables from
// their rows.
var ErrRetiredSegments = errors.New("relstore: load segments: section is in a retired layout (QSEGb1 or QSEGb2)")

// SaveSegments encodes the segment of every indexed table; an unindexed
// table writes none, and BuildValueIndex indexes it after a restart.
// Deterministic: segments serialise in registration order, posting keys in
// their stored ascending order, id lists delta-encoded. A segment is
// written as
//
//	table position in registration order (ascending across segments)
//	attribute span offsets, entry count
//	per entry: first row, rows<<1 | normDiffers, [norm if normDiffers]
//	trigram keys: count, per key the code's delta from the previous
//	  key's, then the id list
//
// where an id list is its length and its ascending ids as deltas. Nothing
// the catalog section holds is repeated: a value is its first row's cell.
func (c *Catalog) SaveSegments(w io.Writer) error {
	b := binio.NewWriter(w)
	b.Raw(segmentsBinMagic)
	var pos []int
	for i, qn := range c.order {
		if c.segs[qn] != nil {
			pos = append(pos, i)
		}
	}
	b.Uvarint(uint64(len(pos)))
	for _, p := range pos {
		s := c.segs[c.order[p]]
		b.Uvarint(uint64(p))
		for _, off := range s.attrStart {
			b.Uvarint(uint64(off))
		}
		b.Uvarint(uint64(len(s.entries)))
		for _, e := range s.entries {
			flags := uint64(e.rows) << 1
			if e.norm != e.val {
				flags |= 1 // normDiffers
			}
			b.Uvarint(uint64(e.row))
			b.Uvarint(flags)
			if flags&1 != 0 {
				b.Str(e.norm)
			}
		}
		b.Uvarint(uint64(len(s.grams.keys)))
		prev := uint64(0)
		for i, code := range s.grams.keys {
			b.Uvarint(code - prev)
			prev = code
			b.IDs(s.grams.list(i))
		}
	}
	if err := b.Flush(); err != nil {
		return fmt.Errorf("relstore: save segments: %w", err)
	}
	return nil
}

// readIDs decodes one posting list onto ids: a binio id list below
// nEntries, which must hold at least one id.
func readIDs(r *binio.Reader, nEntries int, ids []int32) []int32 {
	n := len(ids)
	if ids = r.IDs(ids, nEntries); r.Err() == nil && len(ids) == n {
		r.Failf("empty posting list")
	}
	return ids
}

// LoadSegments decodes a SaveSegments section and installs each segment
// verbatim as its table's segment — the re-point load path: no
// normalisation, no trigram extraction, no row scans. Writer-side, like
// AddTable. The section is checked whole before any segment is installed:
// table positions must ascend and name tables not yet indexed; an entry's
// row must exist and carry a non-empty value, its row count must fit the
// table, and an attribute's values must ascend strictly, which Values and
// ValueOverlap rely on; posting keys must ascend strictly, a trigram code
// must pack three valid runes; and no byte may trail. Every accepted
// section therefore re-encodes to itself. Values alias the catalog's rows,
// and the normalised values that differ from their values are copied, so
// nothing aliases data once LoadSegments returns. A section in a retired
// layout installs nothing and returns ErrRetiredSegments.
func (c *Catalog) LoadSegments(data []byte) error {
	if bytes.HasPrefix(data, []byte(segmentsV1Magic)) || bytes.HasPrefix(data, []byte(segmentsV2Magic)) {
		return ErrRetiredSegments
	}
	// Nothing decoded aliases the section (see ownNorms), so the reader
	// need not copy it.
	r := binio.NewTransientReader(data, segmentsBinMagic)
	var segs []*segment
	var scratch segmentScratch
	nSegs := r.Count("segment")
	prev := -1
	for si := 0; si < nSegs && r.Err() == nil; si++ {
		p := r.Uvarint()
		if r.Err() != nil {
			break
		}
		if p >= uint64(len(c.order)) || int(p) <= prev {
			r.Failf("segment table position %d is out of range or does not ascend", p)
			break
		}
		prev = int(p)
		qn := c.order[p]
		if c.segs[qn] != nil {
			return fmt.Errorf("relstore: load segments: second segment for %s", qn)
		}
		segs = append(segs, readSegment(r, c.tables[qn], &scratch))
	}
	if err := r.End(); err != nil {
		return fmt.Errorf("relstore: load segments: %w", err)
	}
	for _, s := range segs {
		c.segs[s.rel] = s
	}
	return nil
}

// readSegment decodes one segment of table t; r records any error.
func readSegment(r *binio.Reader, t *Table, scratch *segmentScratch) *segment {
	nAttr := len(t.Relation.Attributes)
	s := &segment{rel: t.Relation.QualifiedName(), attrs: make([]string, nAttr), attrStart: make([]int, nAttr+1)}
	for i, a := range t.Relation.Attributes {
		s.attrs[i] = a.Name
	}
	for i := range s.attrStart {
		s.attrStart[i] = int(r.Uvarint())
	}
	nEntries := r.Count("entry")
	if r.Err() != nil {
		return nil
	}
	ok := s.attrStart[0] == 0 && s.attrStart[nAttr] == nEntries
	for i := 0; ok && i < nAttr; i++ {
		ok = s.attrStart[i] <= s.attrStart[i+1]
	}
	if !ok {
		r.Failf("segment %s attribute spans disagree with %d entries", s.rel, nEntries)
		return nil
	}
	s.entries = make([]indexEntry, nEntries)
	differ := scratch.differ[:0] // the entries whose normalised value differs
	normBytes := 0               // their normalised values' length
	ai := 0
	for i := 0; i < nEntries && r.Err() == nil; i++ {
		for ai < nAttr && i >= s.attrStart[ai+1] {
			ai++
		}
		row, flags := r.Uvarint(), r.Uvarint()
		if r.Err() != nil {
			break
		}
		rows := flags >> 1
		if row >= uint64(len(t.Rows)) || rows == 0 || rows > uint64(len(t.Rows)) {
			r.Failf("segment %s entry %d: row %d or row count %d out of range", s.rel, i, row, rows)
			break
		}
		e := indexEntry{attr: int32(ai), row: int32(row), val: t.Rows[row][ai], rows: int32(rows)}
		e.norm = e.val
		if flags&1 != 0 {
			if e.norm = r.Str(); r.Err() == nil && e.norm == e.val {
				r.Failf("segment %s entry %q: marked normalised form equals the value", s.rel, e.val)
			}
			differ = append(differ, int32(i))
			normBytes += len(e.norm)
		}
		if r.Err() == nil && (e.val == "" || i > s.attrStart[ai] && e.val <= s.entries[i-1].val) {
			r.Failf("segment %s entry %q is empty or not above its predecessor", s.rel, e.val)
		}
		s.entries[i] = e
	}
	scratch.differ = differ
	if r.Err() != nil {
		return nil
	}
	if normBytes > 0 {
		ownNorms(s.entries, differ, normBytes)
	}
	s.grams = readGrams(r, nEntries, &scratch.ids)
	return s
}

// segmentScratch is the decoder's buffers, reused across segments.
type segmentScratch struct {
	ids    []int32 // a posting index's ids
	differ []int32 // entries whose normalised value is written
}

// ownNorms copies the normalised values of the differ entries, normBytes
// in all, into one string, so they stop aliasing the section.
func ownNorms(entries []indexEntry, differ []int32, normBytes int) {
	var b strings.Builder
	b.Grow(normBytes)
	for _, i := range differ {
		b.WriteString(entries[i].norm)
	}
	all, off := b.String(), 0
	for _, i := range differ {
		e := &entries[i]
		e.norm = all[off : off+len(e.norm)]
		off += len(e.norm)
	}
}

// readGrams decodes a trigram posting index into flat arrays; scratch
// collects the ids and is reused across calls, so the index costs three
// allocations. Each code is a non-zero delta from the previous key's and
// must pack three valid runes.
func readGrams(r *binio.Reader, nEntries int, scratch *[]int32) postings {
	n := r.Count("trigram key")
	if r.Err() != nil || n == 0 {
		return postings{}
	}
	p := postings{keys: make([]uint64, n), off: make([]int32, n+1)}
	ids := (*scratch)[:0]
	code := uint64(0)
	for i := 0; i < n && r.Err() == nil; i++ {
		d := r.Uvarint()
		if r.Err() == nil && (d == 0 || d > gramMask-code || !validGram(code+d)) {
			r.Failf("trigram key delta %d from %#x is zero or leaves three valid runes", d, code)
		}
		code += d
		p.keys[i] = code
		ids = readIDs(r, nEntries, ids)
		p.off[i+1] = int32(len(ids))
	}
	*scratch = ids
	if r.Err() != nil {
		return postings{}
	}
	p.ids = slices.Clone(ids)
	return p
}
