package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"qint/internal/matcher/meta"
	"qint/internal/relstore"
)

// randomCatalog builds nRel relations with overlapping key domains: each
// relation gets an id column drawing from a shared entity pool (so value
// overlap exists for matchers and joins), one or two FK columns into
// earlier relations, and a label column with recognisable words.
func randomCatalog(r *rand.Rand, nRel int) []*relstore.Table {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta",
		"kappa", "lambda", "sigma", "omega"}
	var tables []*relstore.Table
	pools := make([][]string, nRel)
	for i := 0; i < nRel; i++ {
		pool := make([]string, 12)
		for j := range pool {
			pool[j] = fmt.Sprintf("K%02d_%03d", i, j)
		}
		pools[i] = pool

		rel := &relstore.Relation{
			Source: fmt.Sprintf("s%d", i),
			Name:   fmt.Sprintf("r%d", i),
			Attributes: []relstore.Attribute{
				{Name: fmt.Sprintf("id%d", i)},
				{Name: "label"},
			},
		}
		fkTargets := []int{}
		if i > 0 {
			t1 := r.Intn(i)
			rel.Attributes = append(rel.Attributes,
				relstore.Attribute{Name: fmt.Sprintf("ref%d", t1)})
			rel.ForeignKeys = append(rel.ForeignKeys, relstore.ForeignKey{
				FromAttr:   fmt.Sprintf("ref%d", t1),
				ToRelation: fmt.Sprintf("s%d.r%d", t1, t1),
				ToAttr:     fmt.Sprintf("id%d", t1),
			})
			fkTargets = append(fkTargets, t1)
		}
		nRows := 12 + r.Intn(12)
		rows := make([][]string, nRows)
		for j := 0; j < nRows; j++ {
			row := make([]string, len(rel.Attributes))
			row[0] = pool[j%len(pool)]
			row[1] = words[r.Intn(len(words))] + fmt.Sprintf(" item %d", j)
			for k, tgt := range fkTargets {
				row[2+k] = pools[tgt][r.Intn(len(pools[tgt]))]
			}
			rows[j] = row
		}
		t, err := relstore.NewTable(rel, rows)
		if err != nil {
			panic(err)
		}
		tables = append(tables, t)
	}
	return tables
}

// canonicalRows renders a view's determined top-k answers independent of
// unified column order (the outer-union layout depends on branch order,
// which can legitimately differ between runs with different edge ids) and
// of tie-breaking at the k-th slot: rows costing exactly the k-th cost are
// summarised by their cost alone (which member of a tie enters the top-k is
// unspecified), while strictly-cheaper rows are compared in full, each as
// its sorted non-empty values.
func canonicalRows(v *View) string {
	m := v.Current()
	k := min(v.K, len(m.Result.Rows))
	if k == 0 {
		return ""
	}
	// The ambiguity boundary is the cost of the last RETAINED TREE, not the
	// k-th row: when several trees tie at the k-th tree slot, which of them
	// is retained (and hence which equal-cost rows exist at all) is
	// unspecified — and the two strategies legitimately have different
	// equal-cost trees available.
	kth := m.Result.Rows[k-1].Cost
	if len(m.Trees) > 0 {
		if c := m.Trees[len(m.Trees)-1].Cost; c < kth {
			kth = c
		}
	}
	rows := make([]string, 0, k)
	for _, r := range m.Result.Rows[:k] {
		if r.Cost >= kth-1e-9 {
			rows = append(rows, fmt.Sprintf("%.4f|<tied>", r.Cost))
			continue
		}
		var vals []string
		for _, x := range r.Values {
			if x != "" {
				vals = append(vals, x)
			}
		}
		sort.Strings(vals)
		rows = append(rows, fmt.Sprintf("%.4f|%s", r.Cost, strings.Join(vals, "|")))
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// TestViewBasedEqualsExhaustiveRandomized is the Algorithm 2 guarantee as a
// randomized property: for random catalogs, random keyword views and a
// random new source, VIEWBASEDALIGNER must leave every view with exactly
// the same top-k contents as EXHAUSTIVE, while never doing more work.
func TestViewBasedEqualsExhaustiveRandomized(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		tables := randomCatalog(r, 5+r.Intn(3))

		newTable := func() *relstore.Table {
			rel := &relstore.Relation{
				Source: "fresh", Name: "data",
				Attributes: []relstore.Attribute{
					{Name: fmt.Sprintf("id%d", r.Intn(3))}, // name-similar to some id
					{Name: "label"},
				},
			}
			rows := [][]string{
				{tables[0].Rows[0][0], "alpha mention"},
				{tables[1].Rows[0][0], "beta mention"},
			}
			tb, err := relstore.NewTable(rel, rows)
			if err != nil {
				t.Fatal(err)
			}
			return tb
		}

		// Two keyword queries per trial, built from data the catalog holds.
		queries := []string{
			fmt.Sprintf("'%s' label", tables[0].Rows[0][0]),
			fmt.Sprintf("'%s' %s", tables[1].Rows[1][0], "alpha"),
		}

		build := func(strategy AlignStrategy) (*Q, []string, int) {
			q := New(DefaultOptions())
			q.AddMatcher(meta.New())
			if err := q.AddTables(tables...); err != nil {
				t.Fatal(err)
			}
			var rendered []string
			for _, qs := range queries {
				v, err := queryStr(q, qs)
				if err != nil {
					t.Fatalf("trial %d query %q: %v", trial, qs, err)
				}
				_ = v
			}
			if _, err := q.RegisterSource([]*relstore.Table{newTable()}, strategy); err != nil {
				t.Fatalf("trial %d register: %v", trial, err)
			}
			for _, v := range q.Views() {
				rendered = append(rendered, canonicalRows(v))
			}
			return q, rendered, q.Stats.AttrComparisons()
		}

		_, exRows, exWork := build(Exhaustive)
		_, vbRows, vbWork := build(ViewBased)

		for i := range exRows {
			if exRows[i] != vbRows[i] {
				t.Errorf("trial %d view %d: contents diverge\nEXHAUSTIVE:\n%s\nVIEWBASED:\n%s",
					trial, i, exRows[i], vbRows[i])
			}
		}
		if vbWork > exWork {
			t.Errorf("trial %d: view-based did more work (%d > %d)", trial, vbWork, exWork)
		}
	}
}
