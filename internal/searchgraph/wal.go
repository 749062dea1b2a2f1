package searchgraph

import (
	"slices"
	"sort"

	"qint/internal/learning"
	"qint/internal/relstore"
	"qint/internal/steiner"
)

// This file is the search graph's interface to the epoch WAL
// (internal/storage, wired by internal/core): mutations are logged as
// EFFECTS, not operations. Replaying a source registration cannot re-run the
// schema matchers (they are code, re-registered only after the store opens),
// so the log instead carries each association edge the write touched with
// its FINAL merged feature vector (core reads it back with Edge), and
// RestoreAssociationEdge installs it verbatim — no matcher invocation, no
// feature merging, no indicator synthesis. A weight change likewise logs
// the weight-vector delta it produced, not the preference that caused it.
// Replay is therefore exact and needs nothing beyond the graph itself.
// The record codec is core's; this file only applies what it decodes.

// RestoreAssociationEdge installs an association edge with the given feature
// vector VERBATIM — the WAL replay path. Unlike AddAssociationEdge it never
// merges, clones into indicators, or invokes matcher-bin semantics: the
// features are the edge's complete final vector as logged. The graph takes
// features over instead of copying it (replay decodes a fresh vector per
// edge), so the caller must not modify it afterwards. An existing edge for
// the pair has its features replaced (replaying a merge); a missing one is
// created. Endpoint attribute nodes (and their relation nodes and fixed
// edges) are created as needed.
func (g *Graph) RestoreAssociationEdge(a, b relstore.AttrRef, features learning.Vector) steiner.EdgeID {
	a, b = canonicalPair(a, b)
	g.own()
	if id := g.association(a, b); id >= 0 {
		g.setFeatures(id, features)
		return id
	}
	u := g.AttributeNode(a)
	v := g.AttributeNode(b)
	return g.addEdge(u, v, Edge{Kind: EdgeAssociation, Features: features, A: a, B: b})
}

// GrowEdges makes room for n more edges — a replay that knows how many
// association edges its tail restores — so that adding them does not copy
// the edge lists again and again.
func (g *Graph) GrowEdges(n int) {
	g.own()
	g.s.edges = slices.Grow(g.s.edges, n)
	g.s.interned = slices.Grow(g.s.interned, n)
	g.s.sg.Grow(n)
}

// WeightDelta is the logged effect of one weight-vector mutation: the
// features whose weights changed (with their new values) and the features
// that were removed. Applying it to the pre-mutation vector reproduces the
// post-mutation vector exactly.
type WeightDelta struct {
	Set map[string]float64
	Del []string
}

// DiffWeights computes the delta from old to new. Deleted features are
// listed sorted for deterministic encodings.
func DiffWeights(old, new learning.Vector) WeightDelta {
	var d WeightDelta
	for k, v := range new {
		if ov, ok := old[k]; !ok || ov != v {
			if d.Set == nil {
				d.Set = make(map[string]float64)
			}
			d.Set[k] = v
		}
	}
	for k := range old {
		if _, ok := new[k]; !ok {
			d.Del = append(d.Del, k)
		}
	}
	sort.Strings(d.Del)
	return d
}

// Empty reports whether the delta changes nothing.
func (d WeightDelta) Empty() bool { return len(d.Set) == 0 && len(d.Del) == 0 }

// ApplyWeightDelta applies a logged delta to the graph's current weights —
// the feedback replay path. It leaves every learnable edge cost stale, as
// DeferPricing does: replay reads no cost, and an edge's cost is a function
// of the final weights and its own features alone, so the replaying caller
// reprices once with RepriceEdges after the whole tail, not once per
// record.
func (g *Graph) ApplyWeightDelta(d WeightDelta) {
	g.own()
	for k, v := range d.Set {
		g.s.weights[k] = v
	}
	for _, k := range d.Del {
		delete(g.s.weights, k)
	}
	g.staleCosts = true
}

// DeferPricing leaves every learnable edge cost stale until RepriceEdges:
// edges added, restored or given new features meanwhile are not priced. A
// replay whose tail changes the weights calls it before installing the
// tail, so that each replayed edge is priced once, by the RepriceEdges
// that ends the replay, and not also when it is installed.
func (g *Graph) DeferPricing() { g.staleCosts = true }

// RepriceEdges recomputes every learnable edge cost under the current
// weights if ApplyWeightDelta or DeferPricing has left them stale, and
// does nothing otherwise.
func (g *Graph) RepriceEdges() {
	if !g.staleCosts {
		return
	}
	g.own()
	g.reprice()
}
