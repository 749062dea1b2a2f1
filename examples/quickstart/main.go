// Quickstart: load the InterPro-GO corpus, let the matchers propose
// alignments, ask a keyword query, and print the ranked answers.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
)

func main() {
	// 1. Create a Q instance with the paper's default settings (k=5, Y=2)
	//    and both schema matchers: the metadata matcher (COMA++'s role) and
	//    the MAD label-propagation matcher.
	q := core.New(core.DefaultOptions())
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())

	// 2. Register the initial data sources. InterPro-GO ships without
	//    foreign keys in the metadata, so the matchers must discover how
	//    the eight tables interlink.
	corpus := datasets.InterProGO()
	if err := q.AddTables(corpus.Tables...); err != nil {
		log.Fatal(err)
	}
	report, err := q.AlignAllPairs()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matchers proposed %d candidate alignments\n\n", report.AlignmentsAdded)

	// 3. Ask a keyword query. 'single quotes' group multi-word phrases.
	//    This one needs a join the matchers had to discover: GO:0001000 is
	//    a GO accession, fam_0 an InterPro entry short name.
	view, err := q.Query(core.Request{Keywords: core.ParseKeywords("'GO:0001000' 'fam_0'")})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Inspect the ranked view.
	m := view.Current()
	fmt.Printf("top-%d view over %v (alpha=%.3f)\n", view.K, view.Keywords, m.Alpha)
	fmt.Println("columns:", strings.Join(m.Result.Columns, " | "))
	for i, row := range m.Result.Rows {
		fmt.Printf("[%d] cost=%.3f %s\n", i, row.Cost, strings.Join(row.Values, " | "))
	}

	// 5. Every answer carries provenance: the conjunctive query (and hence
	//    the alignment edges) that produced it.
	fmt.Println("\ngenerated SQL for the best branch:")
	fmt.Println(m.Queries[0].SQL())
}
