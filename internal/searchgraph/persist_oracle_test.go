package searchgraph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"testing"

	"qint/internal/datasets"
	"qint/internal/learning"
	"qint/internal/relstore"
	"qint/internal/steiner"
)

// This file holds the reference implementation the binary graph codec is
// verified against: the JSON codec it replaced, kept verbatim (renamed) as
// a test oracle. Nothing outside the tests can select it.

// snapshot is the JSON wire form of a search graph. Node and edge order is
// preserved exactly so steiner ids remain stable across a save/load cycle
// (views serialised elsewhere can keep referring to them).
type snapshot struct {
	Version int                `json:"version"`
	Weights map[string]float64 `json:"weights"`
	Nodes   []snapNode         `json:"nodes"`
	Edges   []snapEdge         `json:"edges"`
}

type snapNode struct {
	Kind  int    `json:"kind"`
	Rel   string `json:"rel,omitempty"`
	Ref   string `json:"ref,omitempty"`
	Value string `json:"value,omitempty"`
}

type snapEdge struct {
	Kind     int                `json:"kind"`
	U        int                `json:"u"`
	V2       int                `json:"v"`
	Fixed    bool               `json:"fixed,omitempty"`
	Features map[string]float64 `json:"features,omitempty"`
	A        string             `json:"a,omitempty"`
	B        string             `json:"b,omitempty"`
}

const snapshotVersion = 1

// saveJSONOracle writes the graph (topology, features, weights) as JSON: the "graph"
// section of a checkpoint container. The builder holds relation and
// attribute nodes only; keyword and value nodes live in per-query overlays.
func (g *Graph) saveJSONOracle(w io.Writer) error {
	s := snapshot{Version: snapshotVersion, Weights: g.s.weights}
	for _, n := range g.s.nodes {
		sn := snapNode{Kind: int(n.Kind), Rel: n.Rel, Value: n.Value}
		if n.Ref != (relstore.AttrRef{}) {
			sn.Ref = n.Ref.String()
		}
		s.Nodes = append(s.Nodes, sn)
	}
	for _, e := range g.s.edges {
		ge := g.s.sg.Edge(e.ID)
		se := snapEdge{
			Kind:  int(e.Kind),
			U:     int(ge.U),
			V2:    int(ge.V),
			Fixed: e.Fixed,
		}
		if e.Features != nil {
			se.Features = e.Features
		}
		if e.A != (relstore.AttrRef{}) {
			se.A = e.A.String()
		}
		if e.B != (relstore.AttrRef{}) {
			se.B = e.B.String()
		}
		s.Edges = append(s.Edges, se)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}

// loadJSONOracle reconstructs a graph saved with saveJSONOracle. The returned graph has
// identical node/edge ids, features, weights and costs. Keyword and value
// nodes, and keyword and value-attr edges, belong to query overlays and
// never to a saved graph: Load rejects them. It also rejects an association
// edge whose endpoints are not the attribute nodes of its pair, and a
// second association edge for one pair.
func loadJSONOracle(r io.Reader) (*Graph, error) {
	var s snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("searchgraph: load: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("searchgraph: unsupported snapshot version %d", s.Version)
	}
	g := New(learning.Vector(s.Weights))

	for i, sn := range s.Nodes {
		n := Node{Kind: NodeKind(sn.Kind), Rel: sn.Rel, Value: sn.Value}
		if sn.Ref != "" {
			ref, err := relstore.ParseAttrRef(sn.Ref)
			if err != nil {
				return nil, fmt.Errorf("searchgraph: load node %d: %w", i, err)
			}
			n.Ref = ref
		}
		switch n.Kind {
		case KindRelation:
			g.s.relNode[n.Rel] = g.addNode(n)
		case KindAttribute:
			g.s.attrNode[n.Ref] = g.addNode(n)
		default:
			return nil, fmt.Errorf("searchgraph: load node %d: %s node in a base graph", i, n.Kind)
		}
	}

	for i, se := range s.Edges {
		if se.U < 0 || se.U >= len(s.Nodes) || se.V2 < 0 || se.V2 >= len(s.Nodes) {
			return nil, fmt.Errorf("searchgraph: load edge %d: endpoint out of range", i)
		}
		e := Edge{
			Kind:  EdgeKind(se.Kind),
			Fixed: se.Fixed,
		}
		if e.Kind != EdgeAttrRel && e.Kind != EdgeForeignKey && e.Kind != EdgeAssociation {
			return nil, fmt.Errorf("searchgraph: load edge %d: %s edge in a base graph", i, e.Kind)
		}
		if se.Features != nil {
			e.Features = learning.Vector(se.Features)
		}
		if se.A != "" {
			ref, err := relstore.ParseAttrRef(se.A)
			if err != nil {
				return nil, fmt.Errorf("searchgraph: load edge %d: %w", i, err)
			}
			e.A = ref
		}
		if se.B != "" {
			ref, err := relstore.ParseAttrRef(se.B)
			if err != nil {
				return nil, fmt.Errorf("searchgraph: load edge %d: %w", i, err)
			}
			e.B = ref
		}
		u, v := steiner.NodeID(se.U), steiner.NodeID(se.V2)
		if e.Kind == EdgeAssociation {
			a, okA := g.s.attrNode[e.A]
			b, okB := g.s.attrNode[e.B]
			if !okA || !okB || !(u == a && v == b || u == b && v == a) {
				return nil, fmt.Errorf("searchgraph: load edge %d: endpoints are not the attribute nodes of %s and %s", i, e.A, e.B)
			}
			if g.association(e.A, e.B) >= 0 {
				return nil, fmt.Errorf("searchgraph: load edge %d: a second association edge for %s and %s", i, e.A, e.B)
			}
		}
		g.addEdge(u, v, e)
	}
	return g, nil
}

// fixtureGraphs are graphs of every shape a checkpoint holds: the rich
// fixture, GBCO's relations and foreign keys, GBCO with association edges
// made, merged and rolled back, and the last with associations and a
// weight delta replayed as a restart replays the WAL.
func fixtureGraphs() map[string]*Graph {
	rich := buildRichGraph()
	corpus := datasets.GBCO()
	cat := relstore.NewCatalog()
	for _, t := range corpus.Tables {
		if err := cat.AddTable(t); err != nil {
			panic(err)
		}
	}
	gbco := Build(cat, defaultWeights())

	aligned := Build(cat, defaultWeights())
	rels := cat.Relations()
	var pairs [][2]relstore.AttrRef
	for i := 1; i < len(rels); i++ {
		a, b := rels[i-1], rels[i]
		pairs = append(pairs, [2]relstore.AttrRef{
			{Relation: a.QualifiedName(), Attr: a.Attributes[0].Name},
			{Relation: b.QualifiedName(), Attr: b.Attributes[len(b.Attributes)-1].Name},
		})
	}
	for i, p := range pairs {
		aligned.AddAssociationEdge(p[0], p[1], learning.Vector{fmt.Sprintf("matcher:meta:bin%d", i%5): 1})
	}
	// A discarded write interns names no saved edge uses.
	snap := aligned.Snapshot()
	aligned.AddAssociationEdge(pairs[0][1], pairs[len(pairs)-1][0], learning.Vector{"matcher:rolled:bin9": 1})
	aligned.Reset(snap)
	// A second matcher endorsing a pair merges into its edge.
	aligned.AddAssociationEdge(pairs[0][1], pairs[0][0], learning.Vector{"matcher:mad:bin3": 1})
	w := maps.Clone(aligned.Weights())
	w["matcher:meta:bin4"], w["fk"] = 0.15, 0.7
	aligned.SetWeights(w)

	replayed := Build(cat, defaultWeights())
	for _, e := range aligned.s.edges {
		if e.Kind == EdgeAssociation {
			replayed.RestoreAssociationEdge(e.A, e.B, e.Features)
		}
	}
	replayed.RestoreAssociationEdge(pairs[1][0], pairs[1][1], learning.Vector{"default": 1, "handcoded": 1})
	replayed.ApplyWeightDelta(DiffWeights(replayed.Weights(), learning.Vector{"default": 0.3, "handcoded": 0.05, "mismatch": 1, "kw": 0.2}))
	replayed.RepriceEdges()

	return map[string]*Graph{"rich": rich, "gbco": gbco, "aligned": aligned, "replayed": replayed}
}

// TestFixtureGraphsMatchJSONOracle runs the oracle comparison over the
// fixture graphs; TestGraphCodecMatchesJSONOracle (codec_oracle_test.go)
// runs it over graphs the engine built.
func TestFixtureGraphsMatchJSONOracle(t *testing.T) {
	for name, g := range fixtureGraphs() {
		checkCodecMatchesJSONOracle(t, name, g)
	}
}

// CheckCodecMatchesJSONOracle is checkCodecMatchesJSONOracle for the
// external test package, whose graphs come from the engine.
var CheckCodecMatchesJSONOracle = checkCodecMatchesJSONOracle

// checkCodecMatchesJSONOracle saves g through both codecs and loads each
// section back. The two loaded graphs must agree on nodes, edges, Features,
// weights, interned entries and dictionary, and Float64bits-equal costs;
// both must agree with g on everything but the dictionary's ids, which g
// may have spent on names a rollback discarded. Save∘Load∘Save must give
// the binary section back byte for byte, from either loaded graph.
func checkCodecMatchesJSONOracle(t *testing.T, name string, g *Graph) {
	t.Helper()
	var bin, js bytes.Buffer
	if err := g.Save(&bin); err != nil {
		t.Fatalf("%s: save: %v", name, err)
	}
	if err := g.saveJSONOracle(&js); err != nil {
		t.Fatalf("%s: oracle save: %v", name, err)
	}
	gb, err := Load(bin.Bytes())
	if err != nil {
		t.Fatalf("%s: load: %v", name, err)
	}
	gj, err := loadJSONOracle(&js)
	if err != nil {
		t.Fatalf("%s: oracle load: %v", name, err)
	}
	sameGraph(t, name+": binary vs source", gb, g, false)
	sameGraph(t, name+": binary vs JSON oracle", gb, gj, true)
	for _, h := range []*Graph{gb, gj} {
		var again bytes.Buffer
		if err := h.Save(&again); err != nil {
			t.Fatalf("%s: re-save: %v", name, err)
		}
		if !bytes.Equal(again.Bytes(), bin.Bytes()) {
			t.Errorf("%s: Save∘Load∘Save is not byte-identical", name)
		}
	}
}

// sameGraph compares got with want; sameIDs also requires the same
// dictionary and interned ids, otherwise interned entries compare by name.
func sameGraph(t *testing.T, what string, got, want *Graph, sameIDs bool) {
	t.Helper()
	if !slices.Equal(got.s.nodes, want.s.nodes) {
		t.Errorf("%s: nodes differ", what)
	}
	if !maps.Equal(got.s.relNode, want.s.relNode) || !maps.Equal(got.s.attrNode, want.s.attrNode) {
		t.Errorf("%s: node lookups differ", what)
	}
	if !maps.EqualFunc(got.s.weights, want.s.weights, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Errorf("%s: weights differ", what)
	}
	if len(got.s.edges) != len(want.s.edges) {
		t.Fatalf("%s: %d edges, want %d", what, len(got.s.edges), len(want.s.edges))
	}
	for i := range got.s.edges {
		ge, we := got.s.edges[i], want.s.edges[i]
		gs, ws := got.s.sg.Edge(steiner.EdgeID(i)), want.s.sg.Edge(steiner.EdgeID(i))
		if ge.ID != we.ID || ge.Kind != we.Kind || ge.Fixed != we.Fixed || ge.A != we.A || ge.B != we.B ||
			gs.U != ws.U || gs.V != ws.V || !maps.Equal(ge.Features, we.Features) || (ge.Features == nil) != (we.Features == nil) {
			t.Errorf("%s: edge %d is %+v %d-%d, want %+v %d-%d", what, i, ge, gs.U, gs.V, we, ws.U, ws.V)
		}
		if math.Float64bits(gs.Cost) != math.Float64bits(ws.Cost) {
			t.Errorf("%s: edge %d costs %v, want %v", what, i, gs.Cost, ws.Cost)
		}
		gf, wf := got.s.interned[i], want.s.interned[i]
		if (gf == nil) != (wf == nil) {
			t.Errorf("%s: edge %d interned %v, want %v", what, i, gf, wf)
			continue
		}
		if gf == nil {
			continue
		}
		if math.Float64bits(gf.Norm2) != math.Float64bits(wf.Norm2) || len(gf.Entries) != len(wf.Entries) {
			t.Errorf("%s: edge %d interned %+v, want %+v", what, i, *gf, *wf)
			continue
		}
		for j, e := range gf.Entries {
			w := wf.Entries[j]
			same := e.ID == w.ID
			if !sameIDs {
				same = got.dict.Name(e.ID) == want.dict.Name(w.ID)
			}
			if !same || math.Float64bits(e.X) != math.Float64bits(w.X) {
				t.Errorf("%s: edge %d interned entry %d differs", what, i, j)
			}
		}
	}
	if sameIDs {
		if got.dict.Len() != want.dict.Len() {
			t.Fatalf("%s: dictionary of %d names, want %d", what, got.dict.Len(), want.dict.Len())
		}
		for id := range int32(got.dict.Len()) {
			if got.dict.Name(id) != want.dict.Name(id) {
				t.Errorf("%s: dictionary id %d is %q, want %q", what, id, got.dict.Name(id), want.dict.Name(id))
			}
		}
	}
}
