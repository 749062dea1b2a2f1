package relstore

import (
	"bytes"
	"fmt"
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

// TestLoadSegmentsChecksEveryPostingID pins the posting checks of
// LoadSegments on hand-built sections over a one-table catalog s.r(a): a
// list must ascend strictly from 0 and stay below the entry count at every
// id, not just the last; the keys of a posting index must ascend strictly;
// a trigram key must be three validly encoded runes; an attribute's values
// must be non-empty and ascend strictly (Values and ValueOverlap merge
// them as sorted sets); and a relation takes one segment. Before the check
// covered every id, a uvarint delta of 2³¹ wrapped an int32 id negative,
// the section loaded, and the first FindValues reaching the id panicked
// with an index out of range. Before keys were checked, a duplicate key
// silently replaced the earlier list, and keys loaded in any order. Before
// values and relations were checked, unsorted values loaded and miscounted
// overlaps, and a second segment silently replaced the first.
func TestLoadSegmentsChecksEveryPostingID(t *testing.T) {
	tab, err := NewTable(&Relation{Source: "s", Name: "r", Attributes: []Attribute{{Name: "a"}}},
		[][]string{{"abc"}, {"abd"}})
	if err != nil {
		t.Fatal(err)
	}
	// list is one posting key and the deltas of its id list.
	type list struct {
		key    string
		deltas []uint64
	}
	// section encodes copies segments for s.r, each with the given
	// attribute names, two entries holding vals, and the given trigram and
	// token postings.
	section := func(copies int, attrs, vals []string, grams, tokens []list) []byte {
		var buf bytes.Buffer
		b := binio.NewWriter(&buf)
		b.Raw(segmentsBinMagic)
		b.Uvarint(uint64(copies))
		for range copies {
			b.Str("s.r")
			b.Uvarint(uint64(len(attrs)))
			for _, a := range attrs {
				b.Str(a)
			}
			b.Uvarint(0)
			b.Uvarint(2)
			b.Uvarint(2)
			for _, v := range vals {
				b.Str(v)
				b.Str(v)
				b.Uvarint(1)
			}
			for _, index := range [][]list{grams, tokens} {
				b.Uvarint(uint64(len(index)))
				for _, l := range index {
					b.Str(l.key)
					b.Uvarint(uint64(len(l.deltas)))
					for _, d := range l.deltas {
						b.Uvarint(d)
					}
				}
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
	attrs := []string{"a"}
	vals := []string{"abc", "abd"}
	grams := []list{{"abc", []uint64{0}}, {"abd", []uint64{1}}}
	tokens := grams

	// The well-formed section loads and answers like a fresh index, and
	// refuses to load a second time over its own segment.
	good := section(1, attrs, vals, grams, tokens)
	c, err := load(good)
	if err != nil {
		t.Fatal(err)
	}
	for _, kw := range []string{"abc", "abd", "bd"} {
		if got, want := c.FindValues(kw), scanFindValues(c, kw); !reflect.DeepEqual(got, want) {
			t.Fatalf("FindValues(%s) = %v, want %v", kw, got, want)
		}
	}
	if err := c.LoadSegments(good); err == nil {
		t.Error("second load of the section accepted over the loaded segment")
	}

	gramDeltas := func(deltas ...uint64) []list { return []list{{"abc", deltas}, {"abd", []uint64{1}}} }
	for _, tc := range []struct {
		name   string
		copies int
		attrs  []string
		vals   []string
		grams  []list
		tokens []list
	}{
		{"wrapped to [-2^31 0]", 1, attrs, vals, gramDeltas(1<<31, 1<<31), tokens},
		{"wrapped mid-list [5 1]", 1, attrs, vals, gramDeltas(5, 1<<32-4), tokens},
		{"repeated id [0 0]", 1, attrs, vals, gramDeltas(0, 0), tokens},
		{"last id past the entries", 1, attrs, vals, gramDeltas(0, 2), tokens},
		{"largest delta", 1, attrs, vals, gramDeltas(1<<64 - 1), tokens},
		{"attributes differ from the table's", 1, []string{"b"}, vals, grams, tokens},
		{"duplicate trigram key", 1, attrs, vals, []list{{"abc", []uint64{0}}, {"abc", []uint64{1}}}, tokens},
		{"trigram keys out of order", 1, attrs, vals, []list{{"abd", []uint64{1}}, {"abc", []uint64{0}}}, tokens},
		{"duplicate token key", 1, attrs, vals, grams, []list{{"abc", []uint64{0}}, {"abc", []uint64{1}}}},
		{"token keys out of order", 1, attrs, vals, grams, []list{{"abd", []uint64{1}}, {"abc", []uint64{0}}}},
		{"trigram key of two runes", 1, attrs, vals, []list{{"ab", []uint64{0}}, {"abc", []uint64{0}}}, tokens},
		{"trigram key of four runes", 1, attrs, vals, []list{{"abc", []uint64{0}}, {"abcd", []uint64{0}}}, tokens},
		{"trigram key not UTF-8", 1, attrs, vals, []list{{"ab\xff", []uint64{0}}}, tokens},
		{"values out of order", 1, attrs, []string{"abd", "abc"}, grams, tokens},
		{"repeated value", 1, attrs, []string{"abc", "abc"}, grams, tokens},
		{"empty value", 1, attrs, []string{"", "abc"}, grams, tokens},
		{"second segment for s.r", 2, attrs, vals, grams, tokens},
	} {
		if _, err := load(section(tc.copies, tc.attrs, tc.vals, tc.grams, tc.tokens)); err == nil {
			t.Errorf("%s: section accepted", tc.name)
		}
	}
}
