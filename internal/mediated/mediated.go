// Package mediated adapts Q to the traditional mediated-schema setting the
// paper discusses (§1, §7): a community defines a virtual global schema;
// each mediated attribute is mapped — by the same pluggable matchers and
// the same feedback-corrected association edges — onto source attributes;
// structured queries against the mediated schema compile into ranked
// conjunctive queries over the sources.
//
// Mappings are not search-graph edges: a mapping never joins relations, so
// it has no place in a Steiner tree. The Mediator keeps its candidate
// mappings itself — per mediated attribute, each source attribute with a
// feature vector built like an association edge's — and prices them with
// the graph's cost formula under the engine's published weights. Mapping
// quality is therefore a cost like any other, and MIRA feedback on mediated
// answers re-ranks mappings through the engine's SetWeights, exactly as it
// re-ranks alignments.
package mediated

import (
	"fmt"
	"maps"
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

	// mappings holds the candidate mappings per mediated attribute: source
	// attribute → feature vector.
	mappings map[string]map[relstore.AttrRef]learning.Vector
}

// Bind runs every registered matcher between the schema's virtual relation
// and each source relation of the published catalog, collecting candidate
// mappings. Matchers that need instance data (the MAD matcher) contribute
// nothing for the data-less virtual relation and are skipped gracefully.
func Bind(q *core.Q, schema Schema) (*Mediator, error) {
	if schema.Name == "" || len(schema.Attributes) == 0 {
		return nil, fmt.Errorf("mediated: empty schema")
	}
	m := &Mediator{
		Q: q, Schema: schema,
		mappings: make(map[string]map[relstore.AttrRef]learning.Vector),
	}
	virt := schema.virtualRelation()

	cat := q.CurrentCatalog()
	for _, src := range cat.Relations() {
		for _, matcherImpl := range q.Matchers() {
			for _, al := range matcherImpl.Match(cat, virt, src) {
				m.installMapping(al.A.Attr, al.B, matcherImpl.Name(), al.Confidence)
			}
			// Synonyms: match each synonym surface separately.
			for _, a := range schema.Attributes {
				for _, syn := range a.Synonyms {
					alias := &relstore.Relation{Source: "mediated", Name: schema.Name,
						Attributes: []relstore.Attribute{{Name: syn}}}
					for _, al := range matcherImpl.Match(cat, alias, src) {
						m.installMapping(a.Name, al.B, matcherImpl.Name(), al.Confidence)
					}
				}
			}
		}
	}
	return m, nil
}

// installMapping adds (or strengthens) the candidate mapping between a
// mediated attribute and a source attribute. A new mapping carries the
// default, source-relation and own-indicator features of an association
// edge; a repeated one merges the matcher's endorsement in by the same rule
// as a second matcher endorsing an association.
func (m *Mediator) installMapping(mediatedAttr string, src relstore.AttrRef, matcherName string, conf float64) {
	feat := learning.Vector{
		fmt.Sprintf("matcher:%s:bin%d", matcherName, binOf(conf)): 1,
		"mapping": 1,
	}
	cands := m.mappings[mediatedAttr]
	if cands == nil {
		cands = make(map[relstore.AttrRef]learning.Vector)
		m.mappings[mediatedAttr] = cands
	}
	if f, ok := cands[src]; ok {
		merged := f.Clone()
		searchgraph.MergeMatcherFeatures(merged, feat)
		cands[src] = merged
		return
	}
	searchgraph.MergeMatcherFeatures(feat, nil)
	med := relstore.AttrRef{Relation: m.Schema.qualified(), Attr: mediatedAttr}
	f := learning.Vector{
		"default":             1,
		"rel:" + src.Relation: 1,
		"edge:map:" + med.String() + "~" + src.String(): 1,
	}
	maps.Copy(f, feat)
	cands[src] = f
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
// ranked by current cost (lower is better).
type Mapping struct {
	Source relstore.AttrRef
	Cost   float64
}

// Mappings returns the candidate mappings of one mediated attribute,
// cheapest first, priced under the engine's published weights.
func (m *Mediator) Mappings(attr string) []Mapping {
	return m.mappingsUnder(m.Q.CurrentGraph().Weights(), attr)
}

func (m *Mediator) mappingsUnder(w learning.Vector, attr string) []Mapping {
	candidates := m.mappings[attr]
	if len(candidates) == 0 {
		return nil
	}
	out := make([]Mapping, 0, len(candidates))
	for src, f := range candidates {
		out = append(out, Mapping{Source: src, Cost: searchgraph.EdgeCost(w, f)})
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
// the mapping costs rank the answers. The whole query reads one published
// generation of the engine.
func (m *Mediator) Query(output []string, conds []Condition, k int) ([]Answer, error) {
	if len(output) == 0 {
		return nil, fmt.Errorf("mediated: no output attributes")
	}
	need := make([]string, 0, len(output)+len(conds))
	need = append(need, output...)
	for _, c := range conds {
		need = append(need, c.Attr)
	}

	g := m.Q.CurrentGraph()
	const fanout = 2 // candidate mappings considered per attribute
	options := make([][]Mapping, len(need))
	for i, attr := range need {
		cands := m.mappingsUnder(g.Weights(), attr)
		if len(cands) == 0 {
			return nil, fmt.Errorf("mediated: attribute %q has no mappings", attr)
		}
		if len(cands) > fanout {
			cands = cands[:fanout]
		}
		options[i] = cands
	}

	var answers []Answer
	m.enumerate(g, need, options, nil, conds, output, &answers)
	sort.SliceStable(answers, func(i, j int) bool { return answers[i].Cost < answers[j].Cost })
	if len(answers) > k {
		answers = answers[:k]
	}
	return answers, nil
}

// enumerate walks the cross product of candidate mappings.
func (m *Mediator) enumerate(g *searchgraph.Snapshot, need []string, options [][]Mapping, chosen []Mapping,
	conds []Condition, output []string, answers *[]Answer) {
	if len(chosen) == len(need) {
		m.answerFor(g, need, chosen, conds, output, answers)
		return
	}
	for _, opt := range options[len(chosen)] {
		m.enumerate(g, need, options, append(chosen, opt), conds, output, answers)
	}
}

// answerFor builds and executes the query for one mapping combination over
// the published graph g.
func (m *Mediator) answerFor(g *searchgraph.Snapshot, need []string, chosen []Mapping, conds []Condition,
	output []string, answers *[]Answer) {

	mappingCost := 0.0
	terminals := make([]steiner.NodeID, 0, len(chosen))
	chosenBy := make(map[string]relstore.AttrRef, len(chosen))
	for i, c := range chosen {
		mappingCost += c.Cost
		nid := g.LookupAttribute(c.Source)
		if nid < 0 {
			return
		}
		terminals = append(terminals, nid)
		chosenBy[need[i]] = c.Source
	}

	trees := steiner.TopKSteinerOn(g.View(), terminals, 1)
	if len(trees) == 0 {
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
			Alias: alias, Attr: src.Attr, Value: c.Value,
		})
	}
	rs, err := relstore.Execute(m.Q.CurrentCatalog(), cq)
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
// mappings wrong. The mappings are re-weighted through the same MIRA update
// that drives Q's answer feedback, with mapping sets standing in for query
// trees, and the new weights are one engine write (Q.SetWeights): logged,
// published and seen by every view.
func (m *Mediator) PreferMapping(good, bad map[string]relstore.AttrRef) error {
	target := m.mappingExample(good)
	worse := m.mappingExample(bad)
	mira := learning.NewMIRA()
	w := mira.Update(m.Q.CurrentGraph().Weights(), target, []learning.TreeExample{worse})
	return m.Q.SetWeights(w)
}

func (m *Mediator) mappingExample(mapping map[string]relstore.AttrRef) learning.TreeExample {
	var keys []string
	var feats []learning.Vector
	for attr, src := range mapping {
		if f, ok := m.mappings[attr][src]; ok {
			keys = append(keys, attr+"~"+src.String())
			feats = append(feats, f)
		}
	}
	return learning.NewTreeExample(keys, feats)
}
