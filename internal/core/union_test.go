package core

import (
	"testing"

	"qint/internal/relstore"
)

// TestOutputColumnUnification exercises the §2.2 outer-union renaming: when
// two queries output attributes linked by a low-cost association edge, the
// second query's attribute is renamed into the first's column, so
// conceptually compatible values share a column in the unified view.
func TestOutputColumnUnification(t *testing.T) {
	q := newFixtureQ(t, false)
	// Hand-code a cheap association between go.term.name and ip.entry.name:
	// they are "conceptually compatible" output columns.
	addHandCoded(t, q,
		relstore.AttrRef{Relation: "go.term", Attr: "name"},
		relstore.AttrRef{Relation: "ip.entry", Attr: "name"})

	// Build two single-relation queries by hand and push them through the
	// unification path.
	outputSchema := make(map[string]bool)
	cq1 := &relstore.ConjunctiveQuery{
		Atoms:   []relstore.Atom{{Relation: "go.term", Alias: "t0"}},
		Project: []relstore.ProjCol{{Alias: "t0", Attr: "name", As: "name"}},
	}
	q.alignOutputColumns(q.state(), cq1, outputSchema)
	if cq1.Project[0].As != "name" {
		t.Fatalf("first query keeps its own label, got %q", cq1.Project[0].As)
	}

	cq2 := &relstore.ConjunctiveQuery{
		Atoms:   []relstore.Atom{{Relation: "ip.entry", Alias: "t0"}},
		Project: []relstore.ProjCol{{Alias: "t0", Attr: "name", As: "entry_name"}},
	}
	q.alignOutputColumns(q.state(), cq2, outputSchema)
	if cq2.Project[0].As != "name" {
		t.Errorf("compatible attribute should be renamed into the shared column, got %q",
			cq2.Project[0].As)
	}

	// A third query already outputting "name" must NOT have a second column
	// renamed into it.
	cq3 := &relstore.ConjunctiveQuery{
		Atoms: []relstore.Atom{
			{Relation: "go.term", Alias: "t0"},
			{Relation: "ip.entry", Alias: "t1"},
		},
		Project: []relstore.ProjCol{
			{Alias: "t0", Attr: "name", As: "name"},
			{Alias: "t1", Attr: "name", As: "entry_name"},
		},
	}
	q.alignOutputColumns(q.state(), cq3, outputSchema)
	if cq3.Project[1].As != "entry_name" {
		t.Errorf("query already outputs 'name'; second compatible column must keep its label, got %q",
			cq3.Project[1].As)
	}
}

// TestOutputColumnUnificationRespectsThreshold: an association costing
// more than the threshold t must not merge columns.
func TestOutputColumnUnificationRespectsThreshold(t *testing.T) {
	q := newFixtureQ(t, false)
	addHandCoded(t, q,
		relstore.AttrRef{Relation: "go.term", Attr: "name"},
		relstore.AttrRef{Relation: "ip.entry", Attr: "name"})
	w := q.CurrentGraph().Weights().Clone()
	w["handcoded"] = 10 // the edge costs about 10, well over t = 2
	if err := q.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	if a := q.CurrentGraph().AssociationList(); len(a) != 1 || a[0].Cost < 10 {
		t.Fatalf("associations %v: want one costing at least 10", a)
	}

	outputSchema := map[string]bool{"name": true}
	cq := &relstore.ConjunctiveQuery{
		Atoms:   []relstore.Atom{{Relation: "ip.entry", Alias: "t0"}},
		Project: []relstore.ProjCol{{Alias: "t0", Attr: "name", As: "entry_name"}},
	}
	q.alignOutputColumns(q.state(), cq, outputSchema)
	if cq.Project[0].As != "entry_name" {
		t.Errorf("over-threshold association must not merge columns, got %q", cq.Project[0].As)
	}
}

// TestUnifiedColumnsShareValuesEndToEnd drives the whole pipeline: a query
// whose two cheapest trees come from different relations with associated
// name attributes must land both in one output column.
func TestUnifiedColumnsShareValuesEndToEnd(t *testing.T) {
	q := newFixtureQ(t, true)
	addHandCoded(t, q,
		relstore.AttrRef{Relation: "go.term", Attr: "name"},
		relstore.AttrRef{Relation: "ip.entry", Attr: "name"})
	// "membrane" matches plasma membrane (go.term.name) and Membrane
	// protein (ip.entry.name): two single-relation trees.
	v, err := queryStr(q, "membrane name")
	if err != nil {
		t.Fatal(err)
	}
	res := v.Current().Result
	if len(res.Rows) == 0 {
		t.Fatal("expected answers")
	}
	// Some column must contain values from both relations.
	colValues := make(map[int]map[string]bool)
	for _, row := range res.Rows {
		for i, val := range row.Values {
			if val == "" {
				continue
			}
			if colValues[i] == nil {
				colValues[i] = make(map[string]bool)
			}
			colValues[i][val] = true
		}
	}
	shared := false
	for _, vals := range colValues {
		if vals["plasma membrane"] && vals["Membrane protein"] {
			shared = true
		}
	}
	if !shared {
		t.Errorf("associated name columns should share one output column; columns: %v / rows %v",
			res.Columns, len(res.Rows))
	}
}
