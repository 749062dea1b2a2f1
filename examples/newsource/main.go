// New-source incorporation: the headline scenario of the paper. A user has
// a persistent keyword view over the GBCO beta-cell corpus; a new source
// (a journal catalogue) registers; VIEWBASEDALIGNER aligns it against only
// the relations inside the view's α-cost neighbourhood, and the view
// refreshes with the newly joinable data.
//
//	go run ./examples/newsource
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"
	"strings"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
)

func main() {
	q := core.New(core.DefaultOptions())
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())

	corpus := datasets.GBCO()
	if err := q.AddTables(corpus.Tables...); err != nil {
		log.Fatal(err)
	}

	// A persistent information need: which publications mention PUB00003?
	view, err := q.Query(core.Request{Keywords: core.ParseKeywords("'PUB00003' title")})
	if err != nil {
		log.Fatal(err)
	}
	m := view.Current()
	fmt.Printf("view created: %d answers, alpha=%.3f\n", len(m.Result.Rows), m.Alpha)
	fmt.Println("α-neighbourhood relations:", q.NeighborhoodRelations(m))

	// A new source appears: a journal catalogue whose pubmed identifiers
	// overlap GBCO's publication table.
	journal := &relstore.Relation{
		Source: "jcat", Name: "catalogue",
		Attributes: []relstore.Attribute{
			{Name: "pubmed_id"}, {Name: "journal_title"}, {Name: "impact_factor"},
		},
	}
	rows := [][]string{
		{"PUB00003", "Diabetes", "7.7"},
		{"PUB00007", "Cell Metabolism", "27.7"},
		{"PUB00011", "Endocrinology", "4.0"},
	}
	table, err := relstore.NewTable(journal, rows)
	if err != nil {
		log.Fatal(err)
	}

	report, err := q.RegisterSource([]*relstore.Table{table}, core.ViewBased)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nregistered source %q with VIEWBASEDALIGNER\n", report.Source)
	fmt.Printf("  compared against %d relations (of %d existing): %v\n",
		len(report.TargetsCompared), q.CurrentCatalog().NumRelations()-1, report.TargetsCompared)
	fmt.Printf("  attribute comparisons: %d, matcher calls: %d\n",
		report.AttrComparisons, report.MatcherCalls)
	fmt.Println("  discovered alignments:")
	for _, pair := range slices.Sorted(maps.Keys(report.AlignmentsByPair)) {
		fmt.Printf("    %-70s confidence %.2f\n", pair, report.AlignmentsByPair[pair])
	}

	// The view has been refreshed; answers may now draw on the new source.
	fmt.Println("\nrefreshed view:")
	m = view.Current()
	fmt.Println("columns:", strings.Join(m.Result.Columns, " | "))
	for i, row := range m.Result.Rows {
		fmt.Printf("[%d] cost=%.3f %s\n", i, row.Cost, strings.Join(row.Values, " | "))
	}
}
