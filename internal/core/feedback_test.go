package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qint/internal/relstore"
	"qint/internal/steiner"
)

// starCatalog is a tie-heavy catalog: spokes relations that each hold the
// same rows and point to one hub by a foreign key, so a query joining a
// spoke word to a hub value has one tree per spoke, all at one cost.
func starCatalog(t *testing.T, spokes int) []*relstore.Table {
	t.Helper()
	hub := &relstore.Relation{Source: "star", Name: "hub",
		Attributes: []relstore.Attribute{{Name: "hid"}, {Name: "title"}}}
	tables := []*relstore.Table{mkTable(t, hub, [][]string{{"H1", "north pole"}, {"H2", "south pole"}})}
	for i := 0; i < spokes; i++ {
		rel := &relstore.Relation{Source: "star", Name: fmt.Sprintf("spoke%d", i),
			Attributes:  []relstore.Attribute{{Name: "sid"}, {Name: "hub_ref"}, {Name: "note"}},
			ForeignKeys: []relstore.ForeignKey{{FromAttr: "hub_ref", ToRelation: "star.hub", ToAttr: "hid"}}}
		tables = append(tables, mkTable(t, rel, [][]string{{"S1", "H1", "red stone"}, {"S2", "H2", "blue stone"}}))
	}
	return tables
}

// unlimitedPage is the tie-inclusive page of k trees over m's overlay as
// it stood before the page had a limit: the unlimited top k+kBestTieSlack,
// cut after the last tree within kBestTieTol of the k-th cost.
func unlimitedPage(q *Q, m Materialization, k int) []steiner.Tree {
	trees := q.topKTrees(m.m.ov, m.m.terminals, k+kBestTieSlack, math.Inf(1), 0)
	if len(trees) <= k {
		return trees
	}
	cut := k
	for cut < len(trees) && trees[cut].Cost <= trees[k-1].Cost+1e-9 {
		cut++
	}
	return trees[:cut]
}

// TestFeedbackPageMatchesUnlimited: the feedback page, searched under its
// view's k-th cost, returns the unlimited tie-inclusive page — same trees,
// same order, bit-equal costs — and never has to run again. The views are
// random keyword queries over the fixture, a random catalog and a
// tie-heavy star catalog, at several k, asked for pages at, below and
// beyond their own k: limited pages, limited pages whose k-th cost ties
// with the trees after it, one-keyword views and views with fewer than k
// trees are counted, and each must occur.
func TestFeedbackPageMatchesUnlimited(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	var limited, ties, short, single int
	check := func(q *Q, name string, keywords []string) {
		t.Helper()
		v, err := q.Query(Request{Keywords: keywords, K: []int{1, 2, 3, 5, 8}[r.Intn(5)], Ephemeral: true})
		if err != nil {
			t.Fatalf("%s %q: %v", name, keywords, err)
		}
		m := v.Current()
		if len(m.Trees) == 0 {
			return
		}
		if len(m.Trees) < m.K {
			short++
		}
		if terms := m.m.terminals; !slices.ContainsFunc(terms, func(n steiner.NodeID) bool { return n != terms[0] }) {
			single++
		}
		for _, k := range []int{1, 2, m.K - 1, m.K, m.K + 3} {
			if k <= 0 {
				continue
			}
			before := q.metrics.steinerLimited.Load()
			got, want := q.KBestTrees(m, k), unlimitedPage(q, m, k)
			if q.metrics.steinerLimited.Load() > before {
				limited++
				if len(want) > k {
					ties++
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s %q (view k %d, %d trees), page k %d: %d trees, want %d", name, keywords, m.K, len(m.Trees), k, len(got), len(want))
			}
			for i := range got {
				if got[i].Key() != want[i].Key() || math.Float64bits(got[i].Cost) != math.Float64bits(want[i].Cost) {
					t.Fatalf("%s %q (view k %d), page k %d: tree %d is %s at %v, want %s at %v",
						name, keywords, m.K, k, i, got[i].Key(), got[i].Cost, want[i].Key(), want[i].Cost)
				}
			}
		}
	}
	pick := func(words []string) []string {
		kws := make([]string, 1+r.Intn(3))
		for i := range kws {
			kws[i] = words[r.Intn(len(words))]
		}
		return kws
	}

	fixture := newFixtureQ(t, true)
	words := []string{"plasma membrane", "Kringle domain", "term", "entry", "name", "title",
		"nucleus", "GO:0000001", "IPR000001", "PUB0001", "pub_id", "Zinc finger"}
	for range 40 {
		check(fixture, "fixture", pick(words))
	}

	random := New(Options{})
	if err := random.AddTables(randomCatalog(rand.New(rand.NewSource(61)), 7)...); err != nil {
		t.Fatal(err)
	}
	words = []string{"alpha", "beta", "gamma", "sigma", "omega", "item", "label", "id3", "ref2", "r4", "K01_002", "K03_005"}
	for range 60 {
		check(random, "random", pick(words))
	}

	star := New(Options{})
	if err := star.AddTables(starCatalog(t, 12)...); err != nil {
		t.Fatal(err)
	}
	words = []string{"stone", "red stone", "blue", "north pole", "pole", "title", "note", "H1", "S2"}
	for range 40 {
		check(star, "star", pick(words))
	}

	for _, q := range []*Q{fixture, random, star} {
		if n := q.metrics.steinerReruns.Load(); n != 0 {
			t.Errorf("%d limited searches ran again", n)
		}
	}
	t.Logf("limited pages %d (%d with boundary ties), short views %d, one-keyword views %d", limited, ties, short, single)
	if limited == 0 || ties == 0 || short == 0 || single == 0 {
		t.Errorf("cases not reached: limited pages %d (%d with boundary ties), short views %d, one-keyword views %d",
			limited, ties, short, single)
	}
}
