package relstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"qint/internal/binio"
)

func binaryFixtureCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := NewCatalog()
	rels := []*Relation{
		{
			Source: "dblp",
			Name:   "pubs",
			Attributes: []Attribute{
				{Name: "id", Type: TypeInt},
				{Name: "title", Type: TypeString},
				{Name: "score", Type: TypeFloat},
			},
		},
		{
			Source: "dblp",
			Name:   "authors",
			Attributes: []Attribute{
				{Name: "pub", Type: TypeInt},
				{Name: "name", Type: TypeString},
			},
			ForeignKeys: []ForeignKey{{FromAttr: "pub", ToRelation: "dblp.pubs", ToAttr: "id"}},
		},
		{
			Source:     "geo",
			Name:       "sites",
			Attributes: []Attribute{{Name: "place", Type: TypeString}},
		},
	}
	rows := [][][]string{
		{{"1", "Sensor Fusion in Plants", "0.9"}, {"2", "Protein Signaling", "0.5"}, {"3", "", "1.25"}},
		{{"1", "O'Brien"}, {"2", "Zoë Müller"}, {"2", "O'Brien"}},
		{{"Cañon City"}, {"\"quoted\" place"}, {""}},
	}
	for i, rel := range rels {
		tab, err := NewTable(rel, rows[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestCatalogBinaryRoundTrip(t *testing.T) {
	c := binaryFixtureCatalog(t)
	var buf bytes.Buffer
	if err := c.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := LoadCatalog(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.RelationNames(), c2.RelationNames()) {
		t.Fatalf("relation names differ: %v vs %v", c.RelationNames(), c2.RelationNames())
	}
	for _, qn := range c.RelationNames() {
		a, b := c.Table(qn), c2.Table(qn)
		if !reflect.DeepEqual(a.Relation, b.Relation) {
			t.Errorf("%s: schema differs: %+v vs %+v", qn, a.Relation, b.Relation)
		}
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("%s: row count differs", qn)
		}
		for i := range a.Rows {
			if !reflect.DeepEqual(a.Rows[i], b.Rows[i]) {
				t.Errorf("%s row %d: %v vs %v", qn, i, a.Rows[i], b.Rows[i])
			}
		}
	}
	// Foreign keys survive, and value indexes work on the loaded catalog.
	if rel := c2.Relation("dblp.authors"); rel == nil || len(rel.ForeignKeys) != 1 {
		t.Errorf("foreign keys lost: %+v", rel)
	}
	pub, id := AttrRef{Relation: "dblp.authors", Attr: "pub"}, AttrRef{Relation: "dblp.pubs", Attr: "id"}
	if got := c2.ValueOverlap(pub, id); got != 2 || got != c.ValueOverlap(pub, id) {
		t.Errorf("overlap = %d, want 2 (original %d)", got, c.ValueOverlap(pub, id))
	}
}

func TestCatalogSaveLoadRoundTrip(t *testing.T) {
	c := testCatalog(t)
	var buf bytes.Buffer
	if err := c.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := LoadCatalog(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumRelations() != c.NumRelations() || c2.NumAttributes() != c.NumAttributes() {
		t.Fatalf("shape mismatch: %d/%d relations, %d/%d attributes",
			c2.NumRelations(), c.NumRelations(), c2.NumAttributes(), c.NumAttributes())
	}
	// Registration order preserved.
	a, b := c.RelationNames(), c2.RelationNames()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("order differs at %d: %s vs %s", i, a[i], b[i])
		}
	}
	// Data and foreign keys survive.
	tb := c2.Table("go.term")
	if tb == nil || len(tb.Rows) != 3 {
		t.Fatalf("go.term data lost: %+v", tb)
	}
	rel := c2.Relation("ip.interpro2go")
	if rel == nil || len(rel.ForeignKeys) != 1 {
		t.Errorf("foreign keys lost: %+v", rel)
	}
	// Value indexes work on the loaded catalog.
	ov := c2.ValueOverlap(
		AttrRef{Relation: "go.term", Attr: "acc"},
		AttrRef{Relation: "ip.interpro2go", Attr: "go_id"})
	if ov != 2 {
		t.Errorf("overlap = %d, want 2", ov)
	}
}

func TestLoadCatalogRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"nope",
		catalogBinMagic[:len(catalogBinMagic)-1], // magic cut short
		"QCATb9\n\n\x00",                         // another format version
		// A JSON catalog from before the binary codec was the one format.
		`{"version":1,"tables":[{"source":"s","name":"r","attributes":[{"Name":"a"}],"rows":[["x"]]}]}`,
		// One table s.r(a) declaring one row whose value is missing.
		catalogBinMagic + "\x01" + "\x01s\x01r" + "\x01\x01a\x00" + "\x00" + "\x01",
		// A row count larger than the remaining input.
		catalogBinMagic + "\x01" + "\x01s\x01r" + "\x01\x01a\x00" + "\x00" + "\x7f",
	}
	for i, c := range cases {
		if _, err := LoadCatalog([]byte(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestCatalogBinaryDeterministic(t *testing.T) {
	c := binaryFixtureCatalog(t)
	var a, b bytes.Buffer
	if err := c.SaveBinary(&a); err != nil {
		t.Fatal(err)
	}
	c.BuildValueIndex(2)
	if err := c.SaveBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("catalog encoding not deterministic")
	}
	var sa, sb bytes.Buffer
	if err := c.SaveSegments(&sa); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveSegments(&sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Error("segment encoding not deterministic")
	}
}

// TestSegmentsRoundTrip pins the re-point load path: segments decoded by
// LoadSegments must answer every keyword exactly like freshly built ones,
// and are the catalog's own segments (BuildValueIndex has nothing left to
// build).
func TestSegmentsRoundTrip(t *testing.T) {
	c := binaryFixtureCatalog(t)
	c.BuildValueIndex(2)
	var catBuf, segBuf bytes.Buffer
	if err := c.SaveBinary(&catBuf); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveSegments(&segBuf); err != nil {
		t.Fatal(err)
	}

	c2, err := LoadCatalog(catBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.LoadSegments(segBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got, want := len(c2.segs), c.NumRelations(); got != want {
		t.Fatalf("loaded catalog has %d segments, want %d", got, want)
	}
	for _, kw := range []string{"brien", "o'brien", "plant", "zoë", "cañon", "QUOTED", "sign", "x", "", "1.25"} {
		want := c.FindValues(kw)
		got := c2.FindValues(kw)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("FindValues(%q): %v vs %v", kw, want, got)
		}
		// And against the reference scan, closing the loop.
		if scan := scanFindValues(c2, kw); !reflect.DeepEqual(scan, got) {
			t.Errorf("FindValues(%q) disagrees with scan: %v vs %v", kw, got, scan)
		}
	}
}

// TestSegmentsPartialSave: only indexed tables' segments persist; after
// load the rest answer identically through throwaway segments, the catalog
// still holds one segment, and BuildValueIndex indexes the rest.
func TestSegmentsPartialSave(t *testing.T) {
	c := binaryFixtureCatalog(t)
	indexOne(c, "dblp.pubs")
	var catBuf, segBuf bytes.Buffer
	if err := c.SaveBinary(&catBuf); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveSegments(&segBuf); err != nil {
		t.Fatal(err)
	}
	c2, err := LoadCatalog(catBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.LoadSegments(segBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if c2.segs["dblp.pubs"] == nil || len(c2.segs) != 1 {
		t.Fatalf("loaded segments %v, want dblp.pubs alone", c2.segs)
	}
	want := scanFindValues(c2, "brien")
	if got := c2.FindValues("brien"); !reflect.DeepEqual(want, got) {
		t.Errorf("partly indexed catalog diverged from the scan: %v vs %v", got, want)
	}
	if len(c2.segs) != 1 {
		t.Errorf("a lookup indexed a table: %d segments, want 1", len(c2.segs))
	}
	c2.BuildValueIndex(2)
	if got := c2.FindValues("brien"); len(c2.segs) != c2.NumRelations() || !reflect.DeepEqual(want, got) {
		t.Errorf("after BuildValueIndex: %d of %d segments, FindValues %v, want %v", len(c2.segs), c2.NumRelations(), got, want)
	}
}

func TestBinaryDecodeRejectsCorruption(t *testing.T) {
	c := binaryFixtureCatalog(t)
	c.BuildValueIndex(1)
	var catBuf, segBuf bytes.Buffer
	if err := c.SaveBinary(&catBuf); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveSegments(&segBuf); err != nil {
		t.Fatal(err)
	}
	// Truncations at any point must error, never panic. (Bit flips are the
	// storage container's CRC's job; the codec only owes structural safety.)
	for cut := 0; cut < catBuf.Len(); cut += 7 {
		if _, err := LoadCatalog(catBuf.Bytes()[:cut]); err == nil {
			// A cut landing exactly after a whole table count of 0 tables
			// can be valid; only the empty prefix of the magic must fail.
			if cut < 8 {
				t.Errorf("catalog truncated to %d bytes accepted", cut)
			}
		}
	}
	for cut := 0; cut < segBuf.Len(); cut += 7 {
		c2, err := LoadCatalog(catBuf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if err := c2.LoadSegments(segBuf.Bytes()[:cut]); err == nil && cut < 8 {
			t.Errorf("segments truncated to %d bytes accepted", cut)
		}
	}
	if _, err := LoadCatalog([]byte("garbage-not-a-catalog")); err == nil {
		t.Error("garbage accepted as catalog")
	}
	// One trailing byte after a whole section is refused by both decoders.
	if _, err := LoadCatalog(append(bytes.Clone(catBuf.Bytes()), 0)); err == nil {
		t.Error("catalog with a trailing byte accepted")
	}
	c2, err := LoadCatalog(catBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.LoadSegments(append(bytes.Clone(segBuf.Bytes()), 0)); err == nil {
		t.Error("segments with a trailing byte accepted")
	} else if len(c2.segs) != 0 {
		t.Errorf("a refused section installed %d segments", len(c2.segs))
	}
	// Two well-formed copies of one table: the catalog must refuse the
	// duplicate rather than load half of it.
	one := NewCatalog()
	tab, err := NewTable(&Relation{Source: "s", Name: "r", Attributes: []Attribute{{Name: "a"}}}, [][]string{{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := one.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	var oneBuf bytes.Buffer
	if err := one.SaveBinary(&oneBuf); err != nil {
		t.Fatal(err)
	}
	table := oneBuf.Bytes()[len(catalogBinMagic)+1:] // past the magic and the count 1
	dup := append([]byte(catalogBinMagic+"\x02"), table...)
	dup = append(dup, table...)
	if _, err := LoadCatalog(dup); err == nil {
		t.Error("duplicate table accepted")
	}
}

// TestPersistRoundTrip pins the catalog section's round trip on a
// randomised catalog: the reload has the same registration order and the
// same FindValues and value-set answers, both before and after
// BuildValueIndex; with no segments section loaded it holds no segment, and
// its lookups build none; and saving it again reproduces the original bytes.
func TestPersistRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	orig := NewCatalog()
	for _, tb := range randomIndexTables(r, 16) {
		if err := orig.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	orig.BuildValueIndex(4)

	kws := indexKeywords(r, orig)
	fingerprint := func(c *Catalog) string {
		var b strings.Builder
		fmt.Fprintf(&b, "order=%v\n", c.RelationNames())
		for _, kw := range kws {
			fmt.Fprintf(&b, "find %q = %v\n", kw, c.FindValues(kw))
		}
		refs := c.AttrRefs()
		for i := 0; i+1 < len(refs); i += 3 {
			fmt.Fprintf(&b, "overlap %v~%v = %d values=%q\n", refs[i], refs[i+1],
				c.ValueOverlap(refs[i], refs[i+1]), c.Values(refs[i]))
		}
		return b.String()
	}
	want := fingerprint(orig)

	var buf bytes.Buffer
	if err := orig.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCatalog(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(loaded); got != want {
		t.Errorf("reloaded catalog diverged from the original\ngot:\n%s\nwant:\n%s", got, want)
	}
	if len(loaded.segs) != 0 {
		t.Errorf("%d segments after load and lookups, want none", len(loaded.segs))
	}
	loaded.BuildValueIndex(4)
	if got := fingerprint(loaded); got != want {
		t.Errorf("indexed reload diverged from the original\ngot:\n%s\nwant:\n%s", got, want)
	}
	var buf2 bytes.Buffer
	if err := loaded.SaveBinary(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2.Bytes(), buf.Bytes()) {
		t.Error("save/load/save is not byte-stable")
	}
}

// TestLoadSegmentsChecksEveryPostingID pins the structural checks of
// LoadSegments on hand-built sections over a one-table catalog s.r(a) with
// rows "abc", "abd" and "", one hostile structure per case: a list must
// hold an id, ascend strictly from 0 and stay below the entry count at
// every id, not just the last; the keys of a posting index must ascend
// strictly; a trigram code must pack three valid runes; an entry must refer to
// a row of the table whose cell is non-empty, carry a row count the table
// can hold, and write its normalised form only when it differs; an
// attribute's values must ascend strictly (Values and ValueOverlap merge
// them as sorted sets); and table positions must ascend within the
// table count, so a relation takes one segment. Before the check covered
// every id, a uvarint delta of 2³¹ wrapped an int32 id negative, the
// section loaded, and the first FindValues reaching the id panicked with an
// index out of range. Before keys were checked, a duplicate key silently
// replaced the earlier list, and keys loaded in any order. Before values
// and relations were checked, unsorted values loaded and miscounted
// overlaps, and a second segment silently replaced the first.
func TestLoadSegmentsChecksEveryPostingID(t *testing.T) {
	tab, err := NewTable(&Relation{Source: "s", Name: "r", Attributes: []Attribute{{Name: "a"}}},
		[][]string{{"abc"}, {"abd"}, {""}})
	if err != nil {
		t.Fatal(err)
	}
	// entry is one entry as written: its row, rows<<1 | normDiffers, and
	// the normalised form written when normDiffers is set.
	type entry struct {
		row, flags uint64
		norm       string
	}
	// list is one posting key, a trigram code, and the deltas of its id
	// list.
	type list struct {
		key    uint64
		deltas []uint64
	}
	// layout is a segments section holding one segment per position.
	type layout struct {
		pos     []uint64
		spans   []uint64 // attribute span offsets, then the entry count
		entries []entry
		grams   []list
	}
	gram := func(g string) uint64 {
		var code uint64
		for _, r := range g {
			code = code<<gramRuneBits | uint64(r)
		}
		return code
	}
	good := func() layout {
		return layout{
			pos:     []uint64{0},
			spans:   []uint64{0, 2, 2},
			entries: []entry{{row: 0, flags: 1 << 1}, {row: 1, flags: 1 << 1}},
			grams:   []list{{gram("abc"), []uint64{0}}, {gram("abd"), []uint64{1}}},
		}
	}
	section := func(l layout) []byte {
		var buf bytes.Buffer
		b := binio.NewWriter(&buf)
		b.Raw(segmentsBinMagic)
		b.Uvarint(uint64(len(l.pos)))
		ids := func(deltas []uint64) {
			b.Uvarint(uint64(len(deltas)))
			for _, d := range deltas {
				b.Uvarint(d)
			}
		}
		for _, p := range l.pos {
			b.Uvarint(p)
			for _, off := range l.spans {
				b.Uvarint(off)
			}
			for _, e := range l.entries {
				b.Uvarint(e.row)
				b.Uvarint(e.flags)
				if e.flags&1 != 0 {
					b.Str(e.norm)
				}
			}
			b.Uvarint(uint64(len(l.grams)))
			prev := uint64(0)
			for _, g := range l.grams {
				b.Uvarint(g.key - prev) // a key below its predecessor wraps
				prev = g.key
				ids(g.deltas)
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	load := func(data []byte) (*Catalog, error) {
		c := NewCatalog()
		if err := c.AddTable(tab); err != nil {
			t.Fatal(err)
		}
		return c, c.LoadSegments(data)
	}

	// The well-formed section loads and answers like a fresh index, is the
	// bytes SaveSegments writes for the table, and refuses to load a
	// second time over its own segment.
	c, err := load(section(good()))
	if err != nil {
		t.Fatal(err)
	}
	for _, kw := range []string{"abc", "abd", "bd"} {
		if got, want := c.FindValues(kw), scanFindValues(c, kw); !reflect.DeepEqual(got, want) {
			t.Fatalf("FindValues(%s) = %v, want %v", kw, got, want)
		}
	}
	built := NewCatalog()
	if err := built.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	built.BuildValueIndex(1)
	var saved bytes.Buffer
	if err := built.SaveSegments(&saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), section(good())) {
		t.Fatalf("SaveSegments wrote %q, want the hand-built %q", saved.Bytes(), section(good()))
	}
	if err := c.LoadSegments(section(good())); err == nil {
		t.Error("second load of the section accepted over the loaded segment")
	}

	gramDeltas := func(deltas ...uint64) func(*layout) {
		return func(l *layout) { l.grams[0].deltas = deltas }
	}
	for _, tc := range []struct {
		name string
		edit func(*layout)
	}{
		{"wrapped to [-2^31 0]", gramDeltas(1<<31, 1<<31)},
		{"wrapped mid-list [5 1]", gramDeltas(5, 1<<32-4)},
		{"repeated id [0 0]", gramDeltas(0, 0)},
		{"last id past the entries", gramDeltas(0, 2)},
		{"largest delta", gramDeltas(1<<64 - 1)},
		{"empty id list", gramDeltas()},
		{"attribute spans disagree with the entries", func(l *layout) { l.spans = []uint64{0, 1, 2} }},
		{"duplicate trigram key (zero delta)", func(l *layout) { l.grams[1].key = l.grams[0].key }},
		{"trigram keys out of order", func(l *layout) { l.grams[0], l.grams[1] = l.grams[1], l.grams[0] }},
		{"trigram rune past U+10FFFF", func(l *layout) { l.grams[1].key = gram("ab")<<gramRuneBits | 0x110000 }},
		{"trigram code wider than three runes", func(l *layout) { l.grams[1].key = 1<<(3*gramRuneBits) | gram("abd") }},
		{"trigram surrogate rune", func(l *layout) { l.grams[1].key = gram("ab")<<gramRuneBits | 0xd800 }},
		{"values out of order", func(l *layout) { l.entries[0].row, l.entries[1].row = 1, 0 }},
		{"repeated value", func(l *layout) { l.entries[1].row = 0 }},
		{"row reference to an empty cell", func(l *layout) { l.entries[0].row = 2 }},
		{"row reference out of range", func(l *layout) { l.entries[1].row = 3 }},
		{"row count zero", func(l *layout) { l.entries[0].flags = 0 }},
		{"row count past the table", func(l *layout) { l.entries[0].flags = 4 << 1 }},
		{"normalised form marked but equal", func(l *layout) { l.entries[0] = entry{row: 0, flags: 1<<1 | 1, norm: "abc"} }},
		{"table position out of range", func(l *layout) { l.pos = []uint64{1} }},
		{"second segment for s.r (positions do not ascend)", func(l *layout) { l.pos = []uint64{0, 0} }},
	} {
		l := good()
		tc.edit(&l)
		if _, err := load(section(l)); err == nil {
			t.Errorf("%s: section accepted", tc.name)
		}
	}
	// A normalised form that differs from its value loads.
	l := good()
	l.entries[0] = entry{row: 0, flags: 1<<1 | 1, norm: "abc abc"}
	if _, err := load(section(l)); err != nil {
		t.Errorf("a differing normalised form was refused: %v", err)
	}
}

// checkSegmentCodecMatchesV1Oracle pins SaveSegments and LoadSegments to
// the QSEGb1 codec on an indexed catalog c: each codec's section decodes,
// into a fresh catalog over c's tables, to segments field-equal to the
// built ones — entries with their first rows, spans and both posting
// indexes — and each re-encodes to its own bytes. LoadSegments refuses the
// QSEGb1 section with ErrRetiredSegments and installs nothing.
func checkSegmentCodecMatchesV1Oracle(t *testing.T, c *Catalog) {
	t.Helper()
	var v1, v2 bytes.Buffer
	if err := saveSegmentsV1Oracle(c, &v1); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveSegments(&v2); err != nil {
		t.Fatal(err)
	}
	fresh := func() *Catalog {
		f := NewCatalog()
		for _, qn := range c.order {
			if err := f.AddTable(c.tables[qn]); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	fromV1, fromV2 := fresh(), fresh()
	if err := loadSegmentsV1Oracle(fromV1, v1.Bytes()); err != nil {
		t.Fatalf("QSEGb1 oracle: %v", err)
	}
	if err := fromV2.LoadSegments(v2.Bytes()); err != nil {
		t.Fatal(err)
	}
	for _, qn := range c.order {
		want := c.segs[qn]
		for name, got := range map[string]*segment{"QSEGb1 oracle": fromV1.segs[qn], "LoadSegments": fromV2.segs[qn]} {
			if (got == nil) != (want == nil) || want != nil && !reflect.DeepEqual(*got, *want) {
				t.Fatalf("%s: %s decoded a segment that differs from the built one", qn, name)
			}
		}
	}
	var again1, again2 bytes.Buffer
	if err := saveSegmentsV1Oracle(fromV1, &again1); err != nil {
		t.Fatal(err)
	}
	if err := fromV2.SaveSegments(&again2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again1.Bytes(), v1.Bytes()) || !bytes.Equal(again2.Bytes(), v2.Bytes()) {
		t.Fatal("Save → Load → Save is not byte-identical")
	}
	retired := fresh()
	if err := retired.LoadSegments(v1.Bytes()); !errors.Is(err, ErrRetiredSegments) || len(retired.segs) != 0 {
		t.Fatalf("LoadSegments on a QSEGb1 section: %v with %d segments, want ErrRetiredSegments and none", err, len(retired.segs))
	}
	t.Logf("%d segments: QSEGb1 %d bytes, SaveSegments %d bytes", len(c.segs), v1.Len(), v2.Len())
}

// TestLoadSegmentsRefusesRetiredLayouts: a segments section in either
// retired layout — QSEGb1, or QSEGb2 with its whole-token postings — is
// refused with ErrRetiredSegments and installs nothing, on the binary
// fixture and on random catalogs, fully and partly indexed; the same
// catalog then loads the current section.
func TestLoadSegmentsRefusesRetiredLayouts(t *testing.T) {
	catalogs := []*Catalog{binaryFixtureCatalog(t)}
	r := rand.New(rand.NewSource(11))
	for range 10 {
		catalogs = append(catalogs, randomIndexCatalog(t, r))
	}
	for i, c := range catalogs {
		if i%2 == 0 {
			c.BuildValueIndex(1)
		} else {
			indexOne(c, c.order[0])
		}
		var current bytes.Buffer
		if err := c.SaveSegments(&current); err != nil {
			t.Fatal(err)
		}
		for _, layout := range []struct {
			name string
			save func(*Catalog, io.Writer) error
		}{{"QSEGb1", saveSegmentsV1Oracle}, {"QSEGb2", saveSegmentsV2Oracle}} {
			var retired bytes.Buffer
			if err := layout.save(c, &retired); err != nil {
				t.Fatal(err)
			}
			f := NewCatalog()
			for _, qn := range c.order {
				if err := f.AddTable(c.tables[qn]); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.LoadSegments(retired.Bytes()); !errors.Is(err, ErrRetiredSegments) || len(f.segs) != 0 {
				t.Fatalf("catalog %d: LoadSegments on a %s section: %v with %d segments, want ErrRetiredSegments and none", i, layout.name, err, len(f.segs))
			}
			if err := f.LoadSegments(current.Bytes()); err != nil {
				t.Fatalf("catalog %d: the current section after a refused %s one: %v", i, layout.name, err)
			}
		}
	}
}
