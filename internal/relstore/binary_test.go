package relstore

import (
	"bytes"
	"reflect"
	"testing"
)

func binaryFixtureCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := NewCatalogSharded(4)
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
	c2, err := LoadCatalogBinary(buf.Bytes(), 4)
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
	// A different shard count must load the same logical catalog.
	c3, err := LoadCatalogBinary(buf.Bytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.RelationNames(), c3.RelationNames()) {
		t.Error("shard count changed decoded catalog")
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
// and must count as built (no lazy rebuild on first use).
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

	c2, err := LoadCatalogBinary(catBuf.Bytes(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.LoadSegments(segBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got, want := c2.IndexedRelations(), c.NumRelations(); got != want {
		t.Fatalf("loaded catalog has %d built segments, want %d", got, want)
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

// TestSegmentsPartialSave: only built segments persist; the rest rebuild
// lazily after load with identical answers.
func TestSegmentsPartialSave(t *testing.T) {
	c := binaryFixtureCatalog(t)
	c.EnsureIndexed("dblp.pubs")
	var catBuf, segBuf bytes.Buffer
	if err := c.SaveBinary(&catBuf); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveSegments(&segBuf); err != nil {
		t.Fatal(err)
	}
	c2, err := LoadCatalogBinary(catBuf.Bytes(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.LoadSegments(segBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got := c2.IndexedRelations(); got != 1 {
		t.Fatalf("loaded %d segments, want 1", got)
	}
	if want, got := c.FindValues("brien"), c2.FindValues("brien"); !reflect.DeepEqual(want, got) {
		t.Errorf("lazy rebuild after partial load diverged: %v vs %v", want, got)
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
		if _, err := LoadCatalogBinary(catBuf.Bytes()[:cut], 2); err == nil {
			// A cut landing exactly after a whole table count of 0 tables
			// can be valid; only the empty prefix of the magic must fail.
			if cut < 8 {
				t.Errorf("catalog truncated to %d bytes accepted", cut)
			}
		}
	}
	for cut := 0; cut < segBuf.Len(); cut += 7 {
		c2, err := LoadCatalogBinary(catBuf.Bytes(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := c2.LoadSegments(segBuf.Bytes()[:cut]); err == nil && cut < 8 {
			t.Errorf("segments truncated to %d bytes accepted", cut)
		}
	}
	if _, err := LoadCatalogBinary([]byte("garbage-not-a-catalog"), 2); err == nil {
		t.Error("garbage accepted as catalog")
	}
}
