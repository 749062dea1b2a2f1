// Package mediated adapts Q to the traditional mediated-schema setting the
// paper discusses (§1, §7): a community defines a virtual global schema;
// each mediated attribute is mapped — by the same pluggable matchers and
// the same feedback-corrected association edges — onto source attributes;
// structured queries against the mediated schema compile into ranked
// conjunctive queries over the sources.
//
// The mediated schema lives inside the ordinary search graph: a virtual
// relation node plus one attribute node per mediated attribute, connected
// to candidate source attributes by association ("mapping") edges. Mapping
// quality is an edge cost like any other, so MIRA feedback on mediated
// answers re-ranks mappings exactly as it re-ranks alignments.
package mediated

import (
	"fmt"
	"sort"

	"qint/internal/core"
	"qint/internal/learning"
	"qint/internal/relstore"
	"qint/internal/searchgraph"
	"qint/internal/steiner"
)

// Attribute is one column of the mediated schema.
type Attribute struct {
	Name string
	// Synonyms seed the matchers with additional surface forms (mediated
	// schemas usually document their vocabulary).
	Synonyms []string
}

// Schema is a virtual global schema.
type Schema struct {
	Name       string
	Attributes []Attribute
}

// virtualRelation renders the schema as a relstore.Relation (never added to
// the catalog — it has no data) so the metadata matchers can run against it.
func (s Schema) virtualRelation() *relstore.Relation {
	rel := &relstore.Relation{Source: "mediated", Name: s.Name}
	for _, a := range s.Attributes {
		rel.Attributes = append(rel.Attributes, relstore.Attribute{Name: a.Name})
	}
	return rel
}

// qualified returns the virtual relation's qualified name.
func (s Schema) qualified() string { return "mediated." + s.Name }

// Mediator binds one mediated schema to a Q instance.
type Mediator struct {
	Q      *core.Q
	Schema Schema

	// edges tracks the mapping edges installed per mediated attribute.
	edges map[string]map[relstore.AttrRef]steiner.EdgeID
}

// Bind registers the schema's nodes in the search graph and runs every
// registered matcher between the virtual relation and each source relation,
// installing candidate mapping edges. Matchers that need instance data (the
// MAD matcher) contribute nothing for the data-less virtual relation and
// are skipped gracefully.
func Bind(q *core.Q, schema Schema) (*Mediator, error) {
	if schema.Name == "" || len(schema.Attributes) == 0 {
		return nil, fmt.Errorf("mediated: empty schema")
	}
	m := &Mediator{
		Q: q, Schema: schema,
		edges: make(map[string]map[relstore.AttrRef]steiner.EdgeID),
	}
	virt := schema.virtualRelation()

	for _, src := range q.Catalog.Relations() {
		for _, matcherImpl := range q.Matchers() {
			for _, al := range matcherImpl.Match(q.Catalog, virt, src) {
				m.installMapping(al.A.Attr, al.B, matcherImpl.Name(), al.Confidence)
			}
			// Synonyms: match each synonym surface separately.
			for _, a := range schema.Attributes {
				for _, syn := range a.Synonyms {
					alias := &relstore.Relation{Source: "mediated", Name: schema.Name,
						Attributes: []relstore.Attribute{{Name: syn}}}
					for _, al := range matcherImpl.Match(q.Catalog, alias, src) {
						m.installMapping(a.Name, al.B, matcherImpl.Name(), al.Confidence)
					}
				}
			}
		}
	}
	return m, nil
}

// installMapping adds (or strengthens) the mapping edge between a mediated
// attribute and a source attribute.
func (m *Mediator) installMapping(mediatedAttr string, src relstore.AttrRef, matcherName string, conf float64) {
	med := relstore.AttrRef{Relation: m.Schema.qualified(), Attr: mediatedAttr}
	feat := learning.Vector{
		fmt.Sprintf("matcher:%s:bin%d", matcherName, binOf(conf)): 1,
		"mapping": 1,
	}
	id := m.Q.Graph.AddMappingEdge(med, src, feat)
	if m.edges[mediatedAttr] == nil {
		m.edges[mediatedAttr] = make(map[relstore.AttrRef]steiner.EdgeID)
	}
	m.edges[mediatedAttr][src] = id
}

// binOf mirrors learning.DefaultBinner's bin boundaries.
func binOf(conf float64) int {
	switch {
	case conf < 0.2:
		return 0
	case conf < 0.4:
		return 1
	case conf < 0.6:
		return 2
	case conf < 0.8:
		return 3
	default:
		return 4
	}
}

// Mapping is one candidate source attribute for a mediated attribute,
// ranked by current edge cost (lower is better).
type Mapping struct {
	Source relstore.AttrRef
	Cost   float64
	Edge   steiner.EdgeID
}

// Mappings returns the candidate mappings of one mediated attribute,
// cheapest first. Mapping edges are never traversable in the graph, so the
// ranking cost is computed from their features under the current weights.
func (m *Mediator) Mappings(attr string) []Mapping {
	candidates := m.edges[attr]
	if len(candidates) == 0 {
		return nil
	}
	w := m.Q.Graph.Weights()
	out := make([]Mapping, 0, len(candidates))
	for src, id := range candidates {
		out = append(out, Mapping{
			Source: src,
			Cost:   m.Q.Graph.EdgeCostFor(id, w),
			Edge:   id,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost < out[j].Cost
		}
		return out[i].Source.String() < out[j].Source.String()
	})
	return out
}

// Condition restricts a mediated attribute to a value (exact match).
type Condition struct {
	Attr  string
	Value string
}

// Answer is one ranked mediated-query answer.
type Answer struct {
	Values map[string]string // mediated attribute -> value
	Cost   float64
	// ChosenMappings records which source attribute served each mediated
	// attribute — the provenance a user judges when giving feedback.
	ChosenMappings map[string]relstore.AttrRef
	SQL            string
}

// Query answers a structured query over the mediated schema: select the
// given output attributes subject to the conditions. For each combination
// of candidate mappings (bounded by fanout per attribute), the mapped
// source attributes become Steiner terminals; the cheapest join tree plus
// the mapping costs rank the answers.
func (m *Mediator) Query(output []string, conds []Condition, k int) ([]Answer, error) {
	if len(output) == 0 {
		return nil, fmt.Errorf("mediated: no output attributes")
	}
	need := make([]string, 0, len(output)+len(conds))
	need = append(need, output...)
	for _, c := range conds {
		need = append(need, c.Attr)
	}

	const fanout = 2 // candidate mappings considered per attribute
	options := make([][]Mapping, len(need))
	for i, attr := range need {
		maps := m.Mappings(attr)
		if len(maps) == 0 {
			return nil, fmt.Errorf("mediated: attribute %q has no mappings", attr)
		}
		if len(maps) > fanout {
			maps = maps[:fanout]
		}
		options[i] = maps
	}

	var answers []Answer
	m.enumerate(need, options, nil, conds, output, &answers)
	sort.SliceStable(answers, func(i, j int) bool { return answers[i].Cost < answers[j].Cost })
	if len(answers) > k {
		answers = answers[:k]
	}
	return answers, nil
}

// enumerate walks the cross product of candidate mappings.
func (m *Mediator) enumerate(need []string, options [][]Mapping, chosen []Mapping,
	conds []Condition, output []string, answers *[]Answer) {
	if len(chosen) == len(need) {
		m.answerFor(need, chosen, conds, output, answers)
		return
	}
	for _, opt := range options[len(chosen)] {
		m.enumerate(need, options, append(chosen, opt), conds, output, answers)
	}
}

// answerFor builds and executes the query for one mapping combination.
func (m *Mediator) answerFor(need []string, chosen []Mapping, conds []Condition,
	output []string, answers *[]Answer) {

	mappingCost := 0.0
	terminals := make([]steiner.NodeID, 0, len(chosen))
	chosenBy := make(map[string]relstore.AttrRef, len(chosen))
	for i, c := range chosen {
		mappingCost += c.Cost
		nid := m.Q.Graph.LookupAttribute(c.Source)
		if nid < 0 {
			return
		}
		terminals = append(terminals, nid)
		chosenBy[need[i]] = c.Source
	}

	trees := m.Q.Graph.G().TopKSteiner(terminals, 1)
	if len(trees) == 0 || trees[0].Cost >= searchgraph.DisabledEdgeCost {
		return // mappings land in disconnected relations
	}

	cq, err := m.Q.TreeQuery(trees[0])
	if err != nil {
		return
	}
	aliasOf := make(map[string]string, len(cq.Atoms))
	for _, a := range cq.Atoms {
		aliasOf[a.Relation] = a.Alias
	}
	for _, c := range conds {
		src := chosenBy[c.Attr]
		alias, ok := aliasOf[src.Relation]
		if !ok {
			return
		}
		cq.Selects = append(cq.Selects, relstore.SelCond{
			Alias: alias, Attr: src.Attr, Op: relstore.OpEq, Value: c.Value,
		})
	}
	rs, err := relstore.Execute(m.Q.Catalog, cq)
	if err != nil {
		return
	}
	// Project the mediated output attributes out of the result columns.
	colIdx := make(map[string]int, len(rs.Columns))
	for i, c := range rs.Columns {
		colIdx[c] = i
	}
	total := mappingCost + trees[0].Cost
	for _, row := range rs.Rows {
		ans := Answer{
			Values:         make(map[string]string, len(output)),
			Cost:           total,
			ChosenMappings: chosenBy,
			SQL:            cq.SQL(),
		}
		for _, attr := range output {
			src := chosenBy[attr]
			if i, ok := findProjected(cq, colIdx, src); ok {
				ans.Values[attr] = row[i]
			}
		}
		*answers = append(*answers, ans)
	}
}

// findProjected locates the result column projecting the given source
// attribute.
func findProjected(cq *relstore.ConjunctiveQuery, colIdx map[string]int, src relstore.AttrRef) (int, bool) {
	aliasRel := make(map[string]string, len(cq.Atoms))
	for _, a := range cq.Atoms {
		aliasRel[a.Alias] = a.Relation
	}
	for _, p := range cq.Project {
		if aliasRel[p.Alias] == src.Relation && p.Attr == src.Attr {
			i, ok := colIdx[p.As]
			return i, ok
		}
	}
	return 0, false
}

// PreferMapping applies feedback on mediated answers: the user judged an
// answer produced with `good` mappings correct and one produced with `bad`
// mappings wrong. The mapping edges are re-weighted through the same MIRA
// update that drives Q's answer feedback, with mapping sets standing in for
// query trees.
func (m *Mediator) PreferMapping(good, bad map[string]relstore.AttrRef) {
	target := m.mappingExample(good)
	worse := m.mappingExample(bad)
	mira := learning.NewMIRA()
	w := mira.Update(m.Q.Graph.Weights(), target, []learning.TreeExample{worse})
	m.Q.Graph.SetWeights(w)
}

func (m *Mediator) mappingExample(mapping map[string]relstore.AttrRef) learning.TreeExample {
	var keys []string
	var feats []learning.Vector
	for attr, src := range mapping {
		if id, ok := m.edges[attr][src]; ok {
			keys = append(keys, fmt.Sprintf("e%d", id))
			feats = append(feats, m.Q.Graph.Edge(id).Features)
		}
	}
	return learning.NewTreeExample(keys, feats)
}
