package searchgraph

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"qint/internal/learning"
	"qint/internal/relstore"
	"qint/internal/steiner"
)

// keywordOverlay is runOverlayQuery's query graph: two keyword nodes with
// keyword edges onto base nodes and onto value nodes, returned with the
// keyword nodes as terminals.
func keywordOverlay(snap *Snapshot) (*Overlay, []steiner.NodeID) {
	ov := snap.NewOverlay()
	k1, k2 := ov.KeywordNode("membrane"), ov.KeywordNode("IPR1")
	ov.AddKeywordEdge(k1, snap.LookupAttribute(relstore.AttrRef{Relation: "go.term", Attr: "name"}), 0.8)
	ov.AddKeywordEdge(k1, ov.ValueNode(relstore.AttrRef{Relation: "go.term", Attr: "name"}, "membrane"), 1.0)
	ov.AddKeywordEdge(k2, snap.LookupRelation("ip.entry"), 0.7)
	ov.AddKeywordEdge(k2, ov.ValueNode(relstore.AttrRef{Relation: "ip.entry", Attr: "entry_ac"}, "IPR1"), 0.9)
	return ov, []steiner.NodeID{k1, k2}
}

// flatCopy is one fresh steiner.Graph holding an overlay's base and
// overlay edges under the same ids, at the costs the overlay sees.
func flatCopy(ov *Overlay) *steiner.Graph {
	v := ov.View()
	g := steiner.NewGraph()
	for range v.NumNodes() {
		g.AddNode()
	}
	for id := range v.NumEdges() {
		e := v.Edge(steiner.EdgeID(id))
		g.AddEdge(e.U, e.V, e.Cost)
	}
	return g
}

// searches is what every search of one view answers for the terminals.
type searches struct {
	Trees []steiner.Tree
	Stats steiner.Stats
	Near  map[steiner.NodeID]struct{}
	Dist  [][]float64
}

func searchAll(v steiner.GraphView, terms []steiner.NodeID) searches {
	s := searches{Near: steiner.NeighborhoodIntersectOn(v, terms, 2)}
	s.Trees, s.Stats = steiner.TopKSteinerStats(v, terms, 5, math.Inf(1))
	for _, t := range terms {
		s.Dist = append(s.Dist, steiner.DijkstraOn(v, t))
	}
	return s
}

// TestOneCSRPerGeneration: two overlays of one snapshot, and eight
// goroutines racing to run a snapshot's first search, all read one CSR,
// frozen once; an unchanged graph's next Snapshot and a Reset to the
// snapshot keep it; every search equals the same search over a flat copy.
func TestOneCSRPerGeneration(t *testing.T) {
	g, _ := overlayFixture(t)
	snap := g.Snapshot()
	ov, terms := keywordOverlay(snap)
	want := searchAll(flatCopy(ov), terms)
	if len(want.Trees) == 0 {
		t.Fatal("the keyword query finds no tree")
	}

	start := make(chan struct{})
	views := make([]*steiner.CSR, 8)
	var wg sync.WaitGroup
	for w := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ov, terms := keywordOverlay(snap)
			if got := searchAll(ov.View(), terms); !reflect.DeepEqual(got, want) {
				t.Errorf("goroutine %d: searches %+v, flat copy %+v", w, got, want)
			}
			views[w] = snap.View()
		}()
	}
	close(start)
	wg.Wait()
	for w, v := range views {
		if v != views[0] {
			t.Fatalf("goroutine %d searched CSR %p, goroutine 0 %p", w, v, views[0])
		}
	}

	ov2, terms2 := keywordOverlay(snap)
	if got := searchAll(ov2.View(), terms2); !reflect.DeepEqual(got, want) {
		t.Errorf("second overlay: searches %+v, flat copy %+v", got, want)
	}
	if g.Snapshot() != snap || snap.View() != views[0] {
		t.Error("an unchanged graph's snapshot froze a second CSR")
	}
	g.AddAssociationEdge(relstore.AttrRef{Relation: "go.term", Attr: "name"},
		relstore.AttrRef{Relation: "ip.entry", Attr: "entry_ac"}, learning.Vector{"handcoded": 1})
	g.Reset(snap)
	if g.Snapshot().View() != views[0] {
		t.Error("a Reset to the snapshot froze a second CSR")
	}
}

// TestRepricedGenerationSearchesMatchFlatCopy: after SetWeights, and after
// ApplyWeightDelta with the RepriceEdges that ends a replay, the new
// snapshot's searches equal the same searches over a flat copy of the
// repriced graph, and searches over a snapshot held from before the writes
// answer as they did.
func TestRepricedGenerationSearchesMatchFlatCopy(t *testing.T) {
	g, _ := overlayFixture(t)
	held := g.Snapshot()
	heldOv, heldTerms := keywordOverlay(held)
	before := searchAll(heldOv.View(), heldTerms)

	check := func(what string) *Snapshot {
		t.Helper()
		snap := g.Snapshot()
		ov, terms := keywordOverlay(snap)
		if got, want := searchAll(ov.View(), terms), searchAll(flatCopy(ov), terms); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: searches %+v, flat copy %+v", what, got, want)
		}
		if snap.View() == held.View() {
			t.Errorf("%s: the new generation searches the held generation's CSR", what)
		}
		if reflect.DeepEqual(searchAll(ov.View(), terms).Dist, before.Dist) {
			t.Errorf("%s: no distance moved; the repricing exercises nothing", what)
		}
		return snap
	}
	g.SetWeights(learning.Vector{"default": 0.4, "fk": 0.2, "mismatch": 1.5, "handcoded": 0.3})
	check("SetWeights")
	g.ApplyWeightDelta(WeightDelta{Set: learning.Vector{"fk": 1.1, "handcoded": 2}, Del: []string{"default"}})
	g.RepriceEdges()
	check("ApplyWeightDelta")

	if got := searchAll(heldOv.View(), heldTerms); !reflect.DeepEqual(got, before) {
		t.Errorf("held overlay: searches %+v, before the writes %+v", got, before)
	}
	ov, terms := keywordOverlay(held)
	if got := searchAll(ov.View(), terms); !reflect.DeepEqual(got, before) {
		t.Errorf("new overlay of the held snapshot: searches %+v, before the writes %+v", got, before)
	}
}
