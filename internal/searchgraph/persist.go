package searchgraph

import (
	"encoding/json"
	"fmt"
	"io"

	"qint/internal/learning"
	"qint/internal/relstore"
	"qint/internal/steiner"
)

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

// Save writes the graph (topology, features, weights) as JSON: the "graph"
// section of a checkpoint container. The builder holds relation and
// attribute nodes only; keyword and value nodes live in per-query overlays.
func (g *Graph) Save(w io.Writer) error {
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

// Load reconstructs a graph saved with Save. The returned graph has
// identical node/edge ids, features, weights and costs. Keyword and value
// nodes, and keyword and value-attr edges, belong to query overlays and
// never to a saved graph: Load rejects them. It also rejects an association
// edge whose endpoints are not the attribute nodes of its pair, and a
// second association edge for one pair.
func Load(r io.Reader) (*Graph, error) {
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
