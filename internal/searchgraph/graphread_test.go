package searchgraph

import (
	"qint/internal/learning"
	"qint/internal/relstore"
	"qint/internal/steiner"
)

// The Graph readers and constructors below are used only by this package's
// tests; the engine reads a published Snapshot instead.

// Cost returns the current cost of an edge.
func (g *Graph) Cost(id steiner.EdgeID) float64 { return g.s.sg.Edge(id).Cost }

// EdgeCost is the cost of a learnable edge with the given features under
// weights w, summed in map order and quantised; Graph.price sums the same
// terms in feature-name order.
func EdgeCost(w, features learning.Vector) float64 { return quantiseCost(w.Dot(features)) }

// Node returns the node with the given id.
func (g *Graph) Node(id steiner.NodeID) Node { return g.s.nodes[id] }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.s.nodes) }

// LookupRelation returns the relation node id, or -1 if absent.
func (g *Graph) LookupRelation(qualified string) steiner.NodeID {
	if id, ok := g.s.relNode[qualified]; ok {
		return id
	}
	return -1
}

// LookupAttribute returns the attribute node id, or -1 if absent.
func (g *Graph) LookupAttribute(ref relstore.AttrRef) steiner.NodeID {
	if id, ok := g.s.attrNode[ref]; ok {
		return id
	}
	return -1
}

// AssociationList returns all association edges in id order.
func (g *Graph) AssociationList() []Association { return g.s.associationList() }

// EdgesOfKind returns the ids of all edges of the given kind, ascending.
func (g *Graph) EdgesOfKind(kind EdgeKind) []steiner.EdgeID {
	var out []steiner.EdgeID
	for _, e := range g.s.edges {
		if e.Kind == kind {
			out = append(out, e.ID)
		}
	}
	return out
}

// Summary computes node/edge counts by kind.
func (g *Graph) Summary() Stats { return g.s.summary() }

// Build constructs the initial search graph from catalog metadata: one
// relation node per table, one attribute node per column (with its fixed
// zero-cost edge), and one learnable foreign-key edge per declared foreign
// key (paper §2.1).
func Build(c *relstore.Catalog, weights learning.Vector) *Graph {
	g := New(weights)
	g.AddRelations(c, c.Relations())
	return g
}

// AddSource incorporates every relation of the catalog belonging to source
// into the graph.
func (g *Graph) AddSource(c *relstore.Catalog, source string) {
	var rels []*relstore.Relation
	for _, rel := range c.Relations() {
		if rel.Source == source {
			rels = append(rels, rel)
		}
	}
	g.AddRelations(c, rels)
}
