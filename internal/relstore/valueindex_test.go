package relstore

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"qint/internal/text"
)

// The property under test: FindValues (the inverted index) is
// observationally identical to the full-scan oracle scanFindValues — same
// hits, same row counts, same order, same nil-ness — for ANY catalog and ANY
// keyword. The scan is the executable specification; the index is an
// optimisation that must never change a single byte of the answer.

// indexVocab mixes the value shapes the normaliser and the trigram index
// have to agree on: plain words, multi-word phrases, identifiers with
// punctuation, unicode (accents, greek, CJK), digits, strings that
// normalise to nothing, and near-collisions sharing trigrams.
var indexVocab = []string{
	"plasma membrane", "membrane", "Membrane protein", "nucleus", "nucleolus",
	"GO:0005886", "GO:0005634", "IPR000001", "IPR000002",
	"zinc finger", "Zinc Finger Domain", "kringle", "Kringle domain",
	"café au lait", "naïve", "Ångström", "βeta-catenin", "東京タワー", "protéine",
	"!!!", "@#$%", "  ", "--::--", "42", "3.14159", "0005886",
	"a", "ab", "abc", "abcd", "membranes and proteins",
	"transmembrane transport", "the membrane-bound organelle",
	"PUB0001", "pub0001x", "xPUB0001", "entry_ac", "entry ac",
}

// randomIndexTables builds random tables whose values are drawn from
// indexVocab (sometimes empty, sometimes random composites), so keyword
// hits land across tables and attributes. It panics on construction errors
// (test-only code; the fuzz targets reuse it without a testing.T). minTables
// sets a floor on the table count.
func randomIndexTables(r *rand.Rand, minTables int) []*Table {
	var out []*Table
	nTables := minTables + r.Intn(4)
	if nTables < 1 {
		nTables = 1
	}
	for ti := 0; ti < nTables; ti++ {
		nAttr := 1 + r.Intn(4)
		attrs := make([]Attribute, nAttr)
		for ai := range attrs {
			attrs[ai] = Attribute{Name: fmt.Sprintf("attr%d", ai)}
		}
		rel := &Relation{
			Source:     fmt.Sprintf("src%d", ti%3),
			Name:       fmt.Sprintf("tab%d", ti),
			Attributes: attrs,
		}
		rows := make([][]string, r.Intn(30))
		for i := range rows {
			row := make([]string, nAttr)
			for ai := range row {
				switch r.Intn(10) {
				case 0:
					row[ai] = "" // empty values are skipped by both impls
				case 1:
					// Composite phrase: stresses multi-token and space grams.
					row[ai] = indexVocab[r.Intn(len(indexVocab))] + " " +
						indexVocab[r.Intn(len(indexVocab))]
				default:
					row[ai] = indexVocab[r.Intn(len(indexVocab))]
				}
			}
			rows[i] = row
		}
		tb, err := NewTable(rel, rows)
		if err != nil {
			panic(err)
		}
		out = append(out, tb)
	}
	return out
}

// randomIndexCatalog builds a catalog over randomIndexTables.
func randomIndexCatalog(t *testing.T, r *rand.Rand) *Catalog {
	t.Helper()
	c := NewCatalog()
	for _, tb := range randomIndexTables(r, 1) {
		if err := c.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// indexKeywords is the keyword battery every random catalog is probed with:
// present and absent terms, unicode, empty, whitespace- and punctuation-only
// (both normalise to nothing), single- and two-rune keywords (below the
// trigram width), exact tokens, substrings of tokens, multi-token phrases,
// and whole values.
func indexKeywords(r *rand.Rand, c *Catalog) []string {
	kws := []string{
		"", " ", "\t\n", "!?;", "€∞", // normalise to ""
		"a", "é", "京", "ab", "GO", "aβ", // shorter than a trigram
		"membrane", "MEMBRANE", "Membrane Protein", "plasma membrane",
		"mbran", "embr", "005886", "GO:0005886", "kringle domain",
		"no-such-keyword-zzqqx", "zzz zzz zzz",
		"café", "βeta", "東京", "ngström",
	}
	// A few keywords carved from actual catalog values: whole value, one
	// token, and an inner substring of a token (rune-safe).
	for _, qn := range c.RelationNames() {
		tb := c.Table(qn)
		for _, row := range tb.Rows {
			for _, v := range row {
				if v == "" || r.Intn(6) != 0 {
					continue
				}
				kws = append(kws, v)
				norm := text.Normalize(v)
				toks := text.Tokenize(v)
				if len(toks) > 0 {
					kws = append(kws, toks[r.Intn(len(toks))])
				}
				if rn := []rune(norm); len(rn) > 2 {
					lo := r.Intn(len(rn) - 2)
					hi := lo + 2 + r.Intn(len(rn)-lo-2+1)
					kws = append(kws, string(rn[lo:hi]))
				}
			}
		}
	}
	return kws
}

// TestFindValuesScanIndexEquivalence is the metamorphic suite: across
// randomised catalogs and the full keyword battery, the index answer must
// be deep-equal to the reference scan — content, counts, order and nil-ness.
func TestFindValuesScanIndexEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			c := randomIndexCatalog(t, r)
			for _, kw := range indexKeywords(r, c) {
				scan := scanFindValues(c, kw)
				idx := c.FindValues(kw)
				if !reflect.DeepEqual(scan, idx) {
					t.Fatalf("FindValues(%q) diverged\nscan:  %v\nindex: %v", kw, scan, idx)
				}
			}
		})
	}
}

// TestIndexFindValuesConcurrent hammers FindValues and Values from many
// goroutines against a partly indexed catalog: every other table answers
// from its segment, the rest through throwaway segments the readers build
// concurrently. Run under -race; every answer must equal the row-scan
// oracle, and the readers must leave the catalog's segments as they were.
func TestIndexFindValuesConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	c := randomIndexCatalog(t, r)
	for i, qn := range c.RelationNames() {
		if i%2 == 0 {
			indexOne(c, qn)
		}
	}
	indexed := len(c.segs)
	kws := []string{"membrane", "GO:0005886", "ab", "é", "plasma membrane", "005886", "zzqqx", "", "Kringle domain"}
	want := make([][]ValueHit, len(kws))
	for i, kw := range kws {
		want[i] = scanFindValues(c, kw)
	}
	refs := c.AttrRefs()
	wantVals := make([][]string, len(refs))
	for i, ref := range refs {
		wantVals[i] = scanValues(c, ref)
	}

	const readers = 8
	const rounds = 20
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g + i) % len(kws)
				if got := c.FindValues(kws[k]); !reflect.DeepEqual(got, want[k]) {
					errc <- fmt.Errorf("reader %d: FindValues(%q) = %v, want %v", g, kws[k], got, want[k])
					return
				}
				a := (g*rounds + i) % len(refs)
				if got := c.Values(refs[a]); !slices.Equal(got, wantVals[a]) {
					errc <- fmt.Errorf("reader %d: Values(%v) = %q, want %q", g, refs[a], got, wantVals[a])
					return
				}
			}
			errc <- nil
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(c.segs) != indexed {
		t.Fatalf("readers changed the catalog's segments: %d, want %d", len(c.segs), indexed)
	}
}

// TestReadsNeverIndex pins that a read of a catalog never writes it: on a
// catalog with no indexed table, FindValues, Values, ValueOverlap and
// OverlappingAttrPairs equal the row-scan oracles, and afterwards the
// catalog holds no segment and SaveSegments writes none. The readers run
// under -race beside a writer that clones the catalog, grows the clone and
// indexes it, as a registration does.
func TestReadsNeverIndex(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	c := NewCatalog()
	for _, tb := range randomIndexTables(r, 6) {
		if err := c.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	kws := indexKeywords(r, c)
	wantHits := make([][]ValueHit, len(kws))
	for i, kw := range kws {
		wantHits[i] = scanFindValues(c, kw)
	}
	refs := append(c.AttrRefs(), AttrRef{Relation: "missing.rel", Attr: "a"}, AttrRef{Relation: c.RelationNames()[0], Attr: "ghost"})
	rels := c.Relations()

	// check reads everything once and reports the first divergence.
	check := func() error {
		for i, kw := range kws {
			if got := c.FindValues(kw); !reflect.DeepEqual(got, wantHits[i]) {
				return fmt.Errorf("FindValues(%q) = %v, want %v", kw, got, wantHits[i])
			}
		}
		for i, a := range refs {
			if got, want := c.Values(a), scanValues(c, a); !slices.Equal(got, want) {
				return fmt.Errorf("Values(%v) = %q, want %q", a, got, want)
			}
			b := refs[(i*7+3)%len(refs)]
			if got, want := c.ValueOverlap(a, b), scanOverlap(c, a, b); got != want {
				return fmt.Errorf("ValueOverlap(%v, %v) = %d, want %d", a, b, got, want)
			}
		}
		for i, a := range rels {
			b := rels[(i+1)%len(rels)]
			if got, want := c.OverlappingAttrPairs(a, b), scanOverlappingAttrPairs(c, a, b); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("OverlappingAttrPairs(%s, %s) = %v, want %v", a.QualifiedName(), b.QualifiedName(), got, want)
			}
		}
		return nil
	}

	const readers = 4
	errc := make(chan error, readers+1)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errc <- check()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := c.Clone()
		tb, err := NewTable(&Relation{Source: "new", Name: "notes", Attributes: []Attribute{{Name: "body"}}},
			[][]string{{"membrane transport"}, {"unrelated"}})
		if err == nil {
			err = cl.AddTable(tb)
		}
		if err == nil {
			cl.BuildValueIndex(4)
			if len(cl.segs) != cl.NumRelations() {
				err = fmt.Errorf("indexed clone holds %d segments, want %d", len(cl.segs), cl.NumRelations())
			} else if got, want := cl.FindValues("membrane"), scanFindValues(cl, "membrane"); !reflect.DeepEqual(got, want) {
				err = fmt.Errorf("indexed clone: FindValues = %v, want %v", got, want)
			}
		}
		errc <- err
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(c.segs) != 0 {
		t.Fatalf("reads indexed %d tables", len(c.segs))
	}
	var buf bytes.Buffer
	if err := c.SaveSegments(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), segmentsBinMagic+"\x00"; got != want {
		t.Fatalf("SaveSegments after reads wrote %q, want no segment (%q)", got, want)
	}
}

// TestIndexIncrementalAcrossClones pins the copy-on-write contract: a clone
// shares the original's segments, BuildValueIndex on the clone indexes ONLY
// the new table, and the original catalog's answers never change —
// concurrent readers of the original race the clone's writer under -race.
func TestIndexIncrementalAcrossClones(t *testing.T) {
	c := testCatalog(t)
	c.BuildValueIndex(4)
	if got := len(c.segs); got != c.NumRelations() {
		t.Fatalf("%d segments, want %d", got, c.NumRelations())
	}
	wantOrig := c.FindValues("membrane")

	clone := c.Clone()
	if !maps.Equal(clone.segs, c.segs) {
		t.Fatal("clone should share the original's segments")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := c.FindValues("membrane"); !reflect.DeepEqual(got, wantOrig) {
					t.Errorf("original catalog's answer changed under a clone writer: %v", got)
					return
				}
			}
		}()
	}

	// Writer: grow the clone with a table that also matches "membrane".
	rel := &Relation{Source: "new", Name: "notes",
		Attributes: []Attribute{{Name: "body"}}}
	tb, err := NewTable(rel, [][]string{{"membrane transport"}, {"unrelated"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := clone.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	clone.BuildValueIndex(4)
	close(stop)
	wg.Wait()

	// Incremental: exactly one segment was added, no rebuilds.
	if got := len(clone.segs); got != clone.NumRelations() {
		t.Fatalf("clone holds %d segments, want %d", got, clone.NumRelations())
	}
	for qn, s := range c.segs {
		if clone.segs[qn] != s {
			t.Fatalf("clone rebuilt the segment of %s", qn)
		}
	}
	if c.segs["new.notes"] != nil {
		t.Fatal("the clone's BuildValueIndex wrote the original")
	}
	got := clone.FindValues("membrane")
	want := scanFindValues(clone, "membrane")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("clone index diverged from scan after AddTable\nindex: %v\nscan:  %v", got, want)
	}
	if len(got) != len(wantOrig)+1 {
		t.Fatalf("clone should see the new table's hit: %v", got)
	}
	if !reflect.DeepEqual(c.FindValues("membrane"), wantOrig) {
		t.Fatal("original catalog sees the clone's table")
	}
}

// TestCloneIsolation pins Clone's copy-on-write contract: an AddTable or a
// BuildValueIndex on either side of a Clone is invisible to the other, both
// sides share the segments built before the Clone (the clone indexes only
// its own additions), and Clone only reads its receiver, so concurrent
// Clones of one catalog are race-free (run under -race).
func TestCloneIsolation(t *testing.T) {
	c := NewCatalog()
	for _, tb := range randomIndexTables(rand.New(rand.NewSource(5)), 16) {
		if err := c.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	c.BuildValueIndex(4)
	wantOrig := c.FindValues("membrane")
	n := c.NumRelations()
	notes := func(source string) *Table {
		tb, err := NewTable(&Relation{Source: source, Name: "notes", Attributes: []Attribute{{Name: "body"}}},
			[][]string{{"membrane transport"}, {"unrelated"}})
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}

	clone := c.Clone()
	if len(clone.segs) != n || !maps.Equal(clone.segs, c.segs) {
		t.Fatalf("clone should share the original's %d segments: holds %d", n, len(clone.segs))
	}
	if err := clone.AddTable(notes("new")); err != nil {
		t.Fatal(err)
	}
	clone.BuildValueIndex(4)
	if got := len(clone.segs); got != n+1 || len(c.segs) != n {
		t.Fatalf("clone holds %d segments, the original %d; want %d and %d (exactly the new segment added)", got, len(c.segs), n+1, n)
	}
	if got, want := clone.FindValues("membrane"), scanFindValues(clone, "membrane"); !reflect.DeepEqual(got, want) {
		t.Fatalf("clone index diverged from scan after AddTable\nindex: %v\nscan:  %v", got, want)
	}
	if c.Table("new.notes") != nil || c.NumRelations() != n || !reflect.DeepEqual(c.FindValues("membrane"), wantOrig) {
		t.Fatal("original catalog sees the clone's table")
	}
	if err := c.AddTable(notes("orig")); err != nil {
		t.Fatal(err)
	}
	if clone.Table("orig.notes") != nil || clone.NumRelations() != n+1 {
		t.Fatal("clone sees a table added to the original after Clone")
	}

	// Concurrent Clones of one catalog, each growing its own copy.
	const cloners = 8
	var wg sync.WaitGroup
	errc := make(chan error, cloners)
	for g := 0; g < cloners; g++ {
		tb := notes(fmt.Sprintf("g%d", g))
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := clone.Clone()
			if err := cl.AddTable(tb); err != nil {
				errc <- err
				return
			}
			if cl.NumRelations() != n+2 || cl.Table(tb.Relation.QualifiedName()) != tb {
				errc <- fmt.Errorf("clone of %s lost a table", tb.Relation.QualifiedName())
				return
			}
			if got, want := cl.FindValues("membrane"), scanFindValues(cl, "membrane"); !reflect.DeepEqual(got, want) {
				errc <- fmt.Errorf("clone with %s: index diverged from scan", tb.Relation.QualifiedName())
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if clone.NumRelations() != n+1 {
		t.Fatalf("concurrent clones changed their receiver: %d relations, want %d", clone.NumRelations(), n+1)
	}
}

// TestValueSetFromIndexSegments pins the value sets read from segment
// spans: Values must equal the sorted row scan for every attribute, and
// ValueOverlap and OverlappingAttrPairs must equal their row-scan oracles,
// on an indexed catalog and on its unindexed twin alike.
func TestValueSetFromIndexSegments(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	indexed := randomIndexCatalog(t, r)
	indexed.BuildValueIndex(4)
	plain := randomIndexCatalog(t, rand.New(rand.NewSource(7))) // identical twin, no index

	refs := indexed.AttrRefs()
	if !reflect.DeepEqual(refs, plain.AttrRefs()) {
		t.Fatal("twin catalogs differ")
	}
	for _, c := range []*Catalog{indexed, plain} {
		for _, ref := range refs {
			if got, want := c.Values(ref), scanValues(c, ref); !slices.Equal(got, want) {
				t.Fatalf("Values(%v) = %q, row scan %q", ref, got, want)
			}
		}
		for i := 0; i < len(refs); i++ {
			for j := i + 1; j < len(refs); j++ {
				if got, want := c.ValueOverlap(refs[i], refs[j]), scanOverlap(c, refs[i], refs[j]); got != want {
					t.Fatalf("ValueOverlap(%v, %v) = %d, row scan %d", refs[i], refs[j], got, want)
				}
			}
		}
		rels := c.Relations()
		for i := range rels {
			for j := range rels {
				if got, want := c.OverlappingAttrPairs(rels[i], rels[j]), scanOverlappingAttrPairs(c, rels[i], rels[j]); !reflect.DeepEqual(got, want) {
					t.Fatalf("OverlappingAttrPairs(%s, %s) = %v, row scan %v",
						rels[i].QualifiedName(), rels[j].QualifiedName(), got, want)
				}
			}
		}
		// Unknown relation/attribute answer nil.
		if c.Values(AttrRef{Relation: "missing.rel", Attr: "a"}) != nil {
			t.Error("missing relation should give nil values")
		}
		if c.Values(AttrRef{Relation: refs[0].Relation, Attr: "ghost"}) != nil {
			t.Error("missing attribute should give nil values")
		}
	}
	if len(plain.segs) != 0 {
		t.Errorf("reads indexed %d tables of the unindexed twin", len(plain.segs))
	}
}

// TestFindValuesShortKeywords pins the below-trigram-width edge: empty and
// normalise-to-empty keywords return nil, and one- and two-rune keywords
// take the deterministic fallback with answers identical to the scan.
func TestFindValuesShortKeywords(t *testing.T) {
	c := NewCatalog()
	rel := &Relation{Source: "s", Name: "t",
		Attributes: []Attribute{{Name: "v"}}}
	tb, err := NewTable(rel, [][]string{
		{"ab"}, {"abc"}, {"a b"}, {"xaby"}, {"AB"}, {"Ω"}, {"ωmega"},
		{"b"}, {"!!"}, {""}, {"a"}, {"ba"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		kw   string
		want []string // matching values, in output order (nil = no hits)
	}{
		{"", nil},
		{"   ", nil},
		{"!?", nil}, // punctuation-only: normalises to ""
		// Hits sort by raw value bytes: uppercase before lowercase, and
		// "ωmega" matches "a" (its final rune).
		{"a", []string{"AB", "a", "a b", "ab", "abc", "ba", "xaby", "ωmega"}},
		{"b", []string{"AB", "a b", "ab", "abc", "b", "ba", "xaby"}},
		{"ab", []string{"AB", "ab", "abc", "xaby"}},
		{"a b", []string{"a b"}},
		{"ω", []string{"Ω", "ωmega"}}, // unicode, one rune, case-folded
		{"abc", []string{"abc"}},      // exactly trigram width
		{"zz", nil},
	}
	for _, tc := range cases {
		idx := c.FindValues(tc.kw)
		scan := scanFindValues(c, tc.kw)
		if !reflect.DeepEqual(idx, scan) {
			t.Errorf("kw %q: index %v != scan %v", tc.kw, idx, scan)
			continue
		}
		var got []string
		for _, h := range idx {
			got = append(got, h.Value)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("kw %q: values = %v, want %v", tc.kw, got, tc.want)
		}
	}
	// Determinism: repeated calls are identical.
	for i := 0; i < 3; i++ {
		if !reflect.DeepEqual(c.FindValues("a"), c.FindValues("a")) {
			t.Fatal("short-keyword fallback is nondeterministic")
		}
	}
}

// TestIndexRowCounts pins the Rows field through the index path: a value
// appearing in several rows reports its multiplicity, matching the scan.
func TestIndexRowCounts(t *testing.T) {
	c := testCatalog(t)
	hits := c.FindValues("GO:0005886")
	found := false
	for _, h := range hits {
		if h.Ref.Relation == "ip.interpro2go" {
			found = true
			if h.Rows != 2 {
				t.Errorf("GO:0005886 appears in 2 rows of interpro2go, got %d", h.Rows)
			}
		}
	}
	if !found {
		t.Fatalf("expected a hit in ip.interpro2go, got %v", hits)
	}
}

// multiByteAlphabet mixes 1- to 4-byte runes, case pairs, a combining mark,
// separators and an invalid byte, so normalised values carry trigrams that
// straddle every rune width and repeat within one value.
var multiByteAlphabet = []string{
	"a", "b", "Z", "7", " ", "-", "_", "é", "É", "β", "Σ", "ς", "ß",
	"京", "タ", "́", "𝔘", "😀", "\xff", "İ",
}

// TestSegmentPostingsMatchOracle pins the flat posting build against the
// map-based oracles on random tables of multi-byte values: each segment's
// trigram posting index must hold exactly the lists postingsOracle posts
// for the same entries, under strictly ascending keys;
// the QSEGb1 encoder saveSegmentsV1Oracle must write the bytes the map
// encoder saveSegmentsOracle writes; and SaveSegments' section must load
// back into segments deep-equal to the built ones and save again to the
// same bytes. Keys cut from norm at rune boundaries equal
// the []rune-cut ones because text.Normalize emits only valid UTF-8
// (FuzzNormalize asserts it).
func TestSegmentPostingsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		c := NewCatalog()
		for ti := 0; ti < 1+r.Intn(3); ti++ {
			nAttr := 1 + r.Intn(3)
			attrs := make([]Attribute, nAttr)
			for i := range attrs {
				attrs[i] = Attribute{Name: fmt.Sprintf("a%d", i)}
			}
			rows := make([][]string, r.Intn(40))
			for i := range rows {
				rows[i] = make([]string, nAttr)
				for j := range rows[i] {
					var b strings.Builder
					for n := r.Intn(12); n > 0; n-- {
						b.WriteString(multiByteAlphabet[r.Intn(len(multiByteAlphabet))])
					}
					rows[i][j] = b.String()
				}
			}
			tb, err := NewTable(&Relation{Source: "s", Name: fmt.Sprintf("t%d", ti), Attributes: attrs}, rows)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.AddTable(tb); err != nil {
				t.Fatal(err)
			}
		}
		c.BuildValueIndex(1)
		built := make(map[string]*segment)
		for _, qn := range c.order {
			got := c.segs[qn]
			built[qn] = got
			want := postingsOracle(got)
			if m := postingMap(t, &got.grams); !reflect.DeepEqual(m, want.grams) {
				t.Fatalf("trial %d %s: trigram postings diverged\ngot:  %v\nwant: %v", trial, qn, m, want.grams)
			}
		}

		var v1, oracle bytes.Buffer
		if err := saveSegmentsV1Oracle(c, &v1); err != nil {
			t.Fatal(err)
		}
		if err := saveSegmentsOracle(c, &oracle); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v1.Bytes(), oracle.Bytes()) {
			t.Fatalf("trial %d: the QSEGb1 encoder wrote %d bytes that differ from the map encoder's %d", trial, v1.Len(), oracle.Len())
		}
		var saved bytes.Buffer
		if err := c.SaveSegments(&saved); err != nil {
			t.Fatal(err)
		}
		loaded := NewCatalog()
		for _, qn := range c.order {
			if err := loaded.AddTable(c.tables[qn]); err != nil {
				t.Fatal(err)
			}
		}
		if err := loaded.LoadSegments(saved.Bytes()); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for qn, want := range built {
			got := loaded.segs[qn]
			if !slices.Equal(got.entries, want.entries) || !reflect.DeepEqual(got.grams, want.grams) {
				t.Fatalf("trial %d %s: loaded segment differs from the built one", trial, qn)
			}
		}
		var again bytes.Buffer
		if err := loaded.SaveSegments(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), saved.Bytes()) {
			t.Fatalf("trial %d: Save → Load → Save is not byte-identical", trial)
		}
	}
}

// postingMap checks a flat posting index's layout — keys strictly
// ascending, offsets covering ids without gaps, each list strictly
// ascending — and returns it as a map from the trigram each key packs.
func postingMap(t *testing.T, p *postings) map[string][]int32 {
	t.Helper()
	str := func(code uint64) string { return string(appendGram(nil, code)) }
	m := make(map[string][]int32, len(p.keys))
	if len(p.keys) == 0 {
		if p.off != nil || p.ids != nil {
			t.Fatalf("empty posting index holds off %v, ids %v", p.off, p.ids)
		}
		return m
	}
	if len(p.off) != len(p.keys)+1 || p.off[0] != 0 || int(p.off[len(p.keys)]) != len(p.ids) {
		t.Fatalf("offsets %v do not span %d keys and %d ids", p.off, len(p.keys), len(p.ids))
	}
	for i, k := range p.keys {
		if i > 0 && k <= p.keys[i-1] {
			t.Fatalf("key %d (%q) is not above its predecessor (%q)", i, str(k), str(p.keys[i-1]))
		}
		if i > 0 && str(k) <= str(p.keys[i-1]) {
			t.Fatalf("key %q does not sort above %q as a string", str(k), str(p.keys[i-1]))
		}
		ids := p.ids[p.off[i]:p.off[i+1]]
		if !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
			t.Fatalf("list of %q is not strictly ascending: %v", str(k), ids)
		}
		m[str(k)] = ids
	}
	return m
}

// TestIndexEntrySize: an entry's first row rides in the padding beside its
// attribute, so recording it costs the value index no memory.
func TestIndexEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(indexEntry{}); unsafe.Sizeof(uintptr(0)) == 8 && got != 48 {
		t.Errorf("indexEntry is %d bytes, want 48", got)
	}
}
