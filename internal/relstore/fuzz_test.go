package relstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// FuzzFindValuesEquivalence fuzzes the keyword side of the FindValues
// contract: for an ARBITRARY utf-8 (or invalid-utf-8) keyword, the
// reference full scan (scanFindValues) and the inverted index must return
// deep-equal hits — content, row counts, order and nil-ness. The catalog is
// fixed (built once, read-only), so the fuzz workers exercise the
// concurrent read paths too. CI runs this as a short -fuzz smoke on every
// push.

var (
	fuzzOnce sync.Once
	fuzzCat  *Catalog // every segment pre-built
)

func fuzzCatalog() *Catalog {
	fuzzOnce.Do(func() {
		fuzzCat = NewCatalog()
		for _, tb := range randomIndexTables(rand.New(rand.NewSource(2024)), 16) {
			if err := fuzzCat.AddTable(tb); err != nil {
				panic(err)
			}
		}
		fuzzCat.BuildValueIndex(4)
	})
	return fuzzCat
}

func FuzzFindValuesEquivalence(f *testing.F) {
	for _, kw := range fuzzKeywords {
		f.Add(kw)
	}
	f.Fuzz(func(t *testing.T, kw string) {
		c := fuzzCatalog()
		if got, want := c.FindValues(kw), scanFindValues(c, kw); !reflect.DeepEqual(got, want) {
			t.Errorf("index diverged from scan on %q\nindex: %v\nscan:  %v", kw, got, want)
		}
	})
}

// fuzzKeywords seeds FuzzFindValuesEquivalence and is the fixed probe set
// FuzzLoadSegments answers on every loaded section.
var fuzzKeywords = []string{
	"", " ", "membrane", "MEMBRANE", "plasma membrane", "GO:0005886",
	"ab", "é", "東京", "βeta", "ngström", "005886", "kringle domain",
	"no-such-keyword-zzqqx", "a b c", "\x00", "\xff\xfe invalid",
	"𝔘nicode", "É̃ composed",
}

// FuzzLoadSegments fuzzes the segment decoder: a segments section —
// seeded with real SaveSegments output and a section in each retired
// layout (QSEGb1, QSEGb2), and mutated arbitrarily — must either be
// refused by LoadSegments or load into a catalog that re-encodes to the
// same bytes, answers every probe keyword
// without panicking, and whose every attribute's values ascend strictly,
// contain no empty value, and overlap themselves fully. Every count the
// decoder allocates by is bounded by the bytes left, so no input makes it
// allocate without bound.
func FuzzLoadSegments(f *testing.F) {
	tables := randomIndexTables(rand.New(rand.NewSource(7)), 4)
	build := func() *Catalog {
		c := NewCatalog()
		for _, tb := range tables {
			if err := c.AddTable(tb); err != nil {
				f.Fatal(err)
			}
		}
		return c
	}
	src := build()
	var empty bytes.Buffer
	if err := src.SaveSegments(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	indexOne(src, src.RelationNames()[0])
	var one bytes.Buffer
	if err := src.SaveSegments(&one); err != nil {
		f.Fatal(err)
	}
	f.Add(one.Bytes())
	src.BuildValueIndex(1)
	var all bytes.Buffer
	if err := src.SaveSegments(&all); err != nil {
		f.Fatal(err)
	}
	f.Add(all.Bytes())
	var v1 bytes.Buffer
	if err := saveSegmentsV1Oracle(src, &v1); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	var v2 bytes.Buffer
	if err := saveSegmentsV2Oracle(src, &v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		c := build()
		if c.LoadSegments(data) != nil {
			return
		}
		var again bytes.Buffer
		if err := c.SaveSegments(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("accepted section re-encodes to different bytes\nin:  %q\nout: %q", data, again.Bytes())
		}
		for _, kw := range fuzzKeywords {
			c.FindValues(kw)
		}
		for _, ref := range c.AttrRefs() {
			vals := c.Values(ref)
			for i, v := range vals {
				if v == "" || i > 0 && v <= vals[i-1] {
					t.Fatalf("Values(%v) = %q: not strictly ascending non-empty values", ref, vals)
				}
			}
			if n := c.ValueOverlap(ref, ref); n != len(vals) {
				t.Fatalf("ValueOverlap(%v, itself) = %d, want %d", ref, n, len(vals))
			}
		}
	})
}

// fuzzPairCatalog builds the two-table catalog both executor fuzz targets
// query: l.r and r.r, each with columns x and y.
func fuzzPairCatalog(t *testing.T, lrows, rrows [][]string) *Catalog {
	t.Helper()
	lrel := &Relation{Source: "l", Name: "r", Attributes: []Attribute{{Name: "x"}, {Name: "y"}}}
	lt, err := NewTable(lrel, lrows)
	if err != nil {
		t.Fatal(err)
	}
	rrel := &Relation{Source: "r", Name: "r", Attributes: []Attribute{{Name: "x"}, {Name: "y"}}}
	rt, err := NewTable(rrel, rrows)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	if err := cat.AddTable(lt); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(rt); err != nil {
		t.Fatal(err)
	}
	return cat
}

// checkExecutorsAgainstOracle demands that every production entry point
// returns exactly what the materialised, unplanned oracle returns on each
// query of the batch: Execute standalone, BatchPlan.Execute, and
// BatchPlan.TopKUnion against the oracle's top-k union. label names the fuzz input in failure messages.
func checkExecutorsAgainstOracle(t *testing.T, cat *Catalog, queries []*ConjunctiveQuery, label string) {
	t.Helper()
	prov := make([]string, len(queries))
	for i := range queries {
		prov[i] = fmt.Sprintf("b%d", i)
	}
	bp, err := PlanBatch(cat, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, err := executeOracle(cat, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Execute(cat, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("executor divergence on %s query %d\nproduction: %v\noracle:     %v", label, i, got, want)
		}
		batched, err := bp.Execute(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batched, want) {
			t.Errorf("batch divergence on %s query %d\nbatched: %v\noracle:  %v", label, i, batched, want)
		}
	}
	for _, k := range []int{1, 3, 50} {
		want, err := oracleTopKUnion(cat, queries, k, prov)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := executeTopKUnion(cat, queries, k, prov)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("top-k union divergence on %s k=%d\ngot:    %v\noracle: %v", label, k, got, want)
		}
	}
}

// FuzzExecuteEquivalence fuzzes the executor-equivalence contract on the
// value side: for ARBITRARY row values (NUL bytes, spaces, empty strings,
// invalid utf-8 — whatever the fuzzer invents), every production entry point
// must return exactly what the materialised, unplanned oracle returns on a
// two-table equi-join and a projection-dedup scan. This is the fuzz arm of
// the row-identity regression tests: the old fmt.Sprint dedup key and
// "\x00"-separator join keys are exactly the kind of encoding this target
// finds. CI runs it as a short -fuzz smoke on every push.
func FuzzExecuteEquivalence(f *testing.F) {
	f.Add("a\x00", "b", "a")
	f.Add("a b", "c", "a")
	f.Add("", " ", "")
	f.Add("x", "\x00x", "x\x00")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		cat := fuzzPairCatalog(t,
			[][]string{{a, b}, {b, c}, {a + "\x00", "\x00" + b}, {c, c}},
			[][]string{{a, "\x00" + b}, {b, c}, {a + " ", b}, {c + "\x00", c}})
		join := &ConjunctiveQuery{
			Atoms: []Atom{{Relation: "l.r", Alias: "t0"}, {Relation: "r.r", Alias: "t1"}},
			Joins: []JoinCond{
				{LeftAlias: "t0", LeftAttr: "x", RightAlias: "t1", RightAttr: "x"},
				{LeftAlias: "t0", LeftAttr: "y", RightAlias: "t1", RightAttr: "y"},
			},
			Project: []ProjCol{{Alias: "t0", Attr: "x", As: "v"}, {Alias: "t1", Attr: "y", As: "w"}},
			Cost:    1,
		}
		proj := &ConjunctiveQuery{
			Atoms:   []Atom{{Relation: "l.r", Alias: "t0"}},
			Project: []ProjCol{{Alias: "t0", Attr: "x", As: "v"}, {Alias: "t0", Attr: "y", As: "w"}},
			Cost:    2,
		}
		checkExecutorsAgainstOracle(t, cat, []*ConjunctiveQuery{join, proj}, fmt.Sprintf("%q/%q/%q", a, b, c))
	})
}

// FuzzPlanEquivalence fuzzes the planner-equivalence contract: for ARBITRARY
// row values, the structural join order (with its self-filter pushdown) must
// return exactly what the oracle's naive spec order returns — standalone,
// through PlanBatch, and through the top-k union. The query shapes cover
// what the planner actually decides: a two-atom equi-join with a selection
// and a self-filter condition, a one-atom selection, a duplicated branch,
// and a three-atom chain filtered only on atom 2, which the structural rule
// scans first where the naive order starts at atom 0. CI runs it as a short
// -fuzz smoke on every push.
func FuzzPlanEquivalence(f *testing.F) {
	f.Add("a\x00", "b", "a")
	f.Add("a b", "c", "a")
	f.Add("", " ", "")
	f.Add("x", "\x00x", "x\x00")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		cat := fuzzPairCatalog(t,
			[][]string{{a, b}, {b, c}, {c, c}, {a, a}},
			[][]string{{a, "\x00" + b}, {b, c}, {c + "\x00", c}})
		cat.BuildValueIndex(1)
		join := &ConjunctiveQuery{
			Atoms: []Atom{{Relation: "l.r", Alias: "t0"}, {Relation: "r.r", Alias: "t1"}},
			Joins: []JoinCond{
				{LeftAlias: "t0", LeftAttr: "x", RightAlias: "t1", RightAttr: "x"},
				{LeftAlias: "t0", LeftAttr: "x", RightAlias: "t0", RightAttr: "y"}, // self-filter
			},
			Selects: []SelCond{{Alias: "t1", Attr: "y", Value: c}},
			Project: []ProjCol{{Alias: "t0", Attr: "x", As: "v"}, {Alias: "t1", Attr: "y", As: "w"}},
			Cost:    1,
		}
		sel := &ConjunctiveQuery{
			Atoms:   []Atom{{Relation: "l.r", Alias: "t0"}},
			Selects: []SelCond{{Alias: "t0", Attr: "y", Value: a}},
			Project: []ProjCol{{Alias: "t0", Attr: "x", As: "v"}, {Alias: "t0", Attr: "y", As: "w"}},
			Cost:    2,
		}
		dup := *join
		chain := &ConjunctiveQuery{
			Atoms: []Atom{{Relation: "l.r", Alias: "t0"}, {Relation: "r.r", Alias: "t1"}, {Relation: "l.r", Alias: "t2"}},
			Joins: []JoinCond{
				{LeftAlias: "t0", LeftAttr: "x", RightAlias: "t1", RightAttr: "x"},
				{LeftAlias: "t1", LeftAttr: "y", RightAlias: "t2", RightAttr: "y"},
			},
			Selects: []SelCond{{Alias: "t2", Attr: "x", Value: b}},
			Project: []ProjCol{{Alias: "t0", Attr: "y", As: "v"}, {Alias: "t2", Attr: "x", As: "w"}},
			Cost:    3,
		}
		checkExecutorsAgainstOracle(t, cat, []*ConjunctiveQuery{join, sel, &dup, chain}, fmt.Sprintf("%q/%q/%q", a, b, c))
	})
}
