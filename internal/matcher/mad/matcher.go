package mad

import (
	"sort"
	"sync"

	"qint/internal/matcher"
	"qint/internal/relstore"
	"qint/internal/text"
)

// Matcher adapts MAD label propagation to Q's matcher.Matcher interface.
// Propagation is global — it runs once over the whole catalog (plus the new
// relation, which is part of the same catalog by registration time) and is
// cached under (catalog pointer, relation count); Match then answers per
// relation pair by filtering each attribute's label distribution. A
// published catalog is never written and a write that adds tables works on
// a fresh copy-on-write clone, so the key changes whenever the catalog
// does and the cache needs no invalidation. From Q's perspective it
// remains a black box emitting (attribute, attribute, confidence) triples
// (paper §3.2.3).
type Matcher struct {
	Params Params
	// TopY bounds how many candidate labels per attribute are considered.
	TopY int
	// MinConfidence suppresses candidates below this normalised score.
	MinConfidence float64

	mu      sync.Mutex
	cache   *propagation
	cacheOn *relstore.Catalog
	cacheN  int // relations in catalog at cache time; registration grows it

	// runOverride replaces the MAD propagation (ablations; see UseLPZGL).
	runOverride func(*Graph) *Result
}

// New returns a MAD matcher with the paper's hyper-parameters.
func New() *Matcher {
	return &Matcher{Params: DefaultParams(), TopY: 5, MinConfidence: 0.01}
}

// Name implements matcher.Matcher.
func (m *Matcher) Name() string { return "mad" }

// propagation is the cached outcome of one global MAD run.
type propagation struct {
	attrNode map[relstore.AttrRef]int
	attrOf   []relstore.AttrRef // label id -> attribute (labels are attrs)
	result   *Result
}

// Match implements matcher.Matcher: alignments between attributes of a and b
// read off the propagated label distributions in both directions.
func (m *Matcher) Match(cat *relstore.Catalog, a, b *relstore.Relation) []matcher.Alignment {
	if cat == nil || a == nil || b == nil {
		return nil
	}
	p := m.propagate(cat)
	y := m.TopY
	if y <= 0 {
		y = 5
	}

	type key struct{ a, b relstore.AttrRef }
	best := make(map[key]float64)
	// scan reads label distributions of `from`'s attributes restricted to
	// labels owned by `to`; flip orients every alignment with its A side in
	// relation a, as the Matcher contract requires.
	scan := func(from, to *relstore.Relation, flip bool) {
		for _, attr := range from.Attributes {
			ref := relstore.AttrRef{Relation: from.QualifiedName(), Attr: attr.Name}
			node, ok := p.attrNode[ref]
			if !ok {
				continue // pruned (e.g. all-numeric or degree-1 column)
			}
			for _, ls := range p.result.TopLabels(node, y) {
				other := p.attrOf[ls.Label]
				if other == ref || other.Relation != to.QualifiedName() {
					continue
				}
				if ls.Score < m.MinConfidence {
					continue
				}
				k := key{a: ref, b: other}
				if flip {
					k = key{a: other, b: ref}
				}
				if ls.Score > best[k] {
					best[k] = ls.Score
				}
			}
		}
	}
	scan(a, b, false)
	scan(b, a, true)

	out := make([]matcher.Alignment, 0, len(best))
	for k, conf := range best {
		// Confidence is a normalised label share; clamp defensively.
		if conf > 1 {
			conf = 1
		}
		out = append(out, matcher.Alignment{A: k.a, B: k.b, Confidence: conf})
	}
	matcher.SortByConfidence(out)
	return out
}

func (m *Matcher) propagate(cat *relstore.Catalog) *propagation {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cache != nil && m.cacheOn == cat && m.cacheN == cat.NumRelations() {
		return m.cache
	}
	run := m.runOverride
	if run == nil {
		params := m.Params
		run = func(g *Graph) *Result { return g.Run(params) }
	}
	p := buildAndRun(cat, run)
	m.cache, m.cacheOn, m.cacheN = p, cat, cat.NumRelations()
	return p
}

// buildAndRun constructs the column-value graph of §3.2.2 and runs MAD:
//   - one node per attribute, seeded with its own (qualified) name label;
//   - one node per distinct non-numeric value, linked weight-1 to every
//     attribute containing it;
//   - degree-1 value nodes pruned (they cannot propagate anything);
//   - attribute nodes with no surviving values dropped from the graph.
func buildAndRun(cat *relstore.Catalog, run func(*Graph) *Result) *propagation {
	refs := cat.AttrRefs()

	// First pass: which attributes contain each usable value?
	valueAttrs := make(map[string][]int) // value -> attr ordinals
	for ai, ref := range refs {
		for _, v := range cat.Values(ref) {
			if text.IsNumeric(v) {
				continue // numeric values induce spurious associations (§5.2.1)
			}
			valueAttrs[v] = append(valueAttrs[v], ai)
		}
	}

	// Prune degree-1 value nodes: values held by a single attribute are
	// unlikely to contribute to propagation (§5.2.1).
	values := make([]string, 0, len(valueAttrs))
	for v, attrs := range valueAttrs {
		if len(attrs) >= 2 {
			values = append(values, v)
		}
	}
	sort.Strings(values) // deterministic node numbering

	// Attribute nodes that touch at least one surviving value.
	used := make(map[int]struct{})
	for _, v := range values {
		for _, ai := range valueAttrs[v] {
			used[ai] = struct{}{}
		}
	}
	attrNode := make(map[relstore.AttrRef]int)
	attrOf := make([]relstore.AttrRef, 0, len(used))
	nodeOfAttr := make(map[int]int)
	for ai, ref := range refs {
		if _, ok := used[ai]; !ok {
			continue
		}
		nodeOfAttr[ai] = len(attrOf)
		attrNode[ref] = len(attrOf)
		attrOf = append(attrOf, ref)
	}

	n := len(attrOf) + len(values)
	g := NewGraph(n, len(attrOf))
	for i := range attrOf {
		g.Seed(i, i) // label i == attribute i's canonical name
	}
	for vi, v := range values {
		vnode := len(attrOf) + vi
		for _, ai := range valueAttrs[v] {
			g.AddEdge(nodeOfAttr[ai], vnode, 1.0)
		}
	}

	return &propagation{attrNode: attrNode, attrOf: attrOf, result: run(g)}
}
