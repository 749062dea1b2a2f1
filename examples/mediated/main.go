// Mediated-schema mode: the adaptation the paper sketches for traditional
// data-integration settings. A virtual global schema is bound onto the
// sources; the matchers propose attribute mappings; structured queries
// against the mediated schema compile into ranked joins over the sources;
// feedback re-ranks mappings.
//
//	go run ./examples/mediated
package main

import (
	"fmt"
	"log"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/mediated"
)

func main() {
	q := core.New(core.DefaultOptions())
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	corpus := datasets.InterProGO()
	if err := q.AddTables(corpus.Tables...); err != nil {
		log.Fatal(err)
	}
	// Source-to-source alignments for the joins.
	if _, err := q.AlignAllPairs(); err != nil {
		log.Fatal(err)
	}

	// The community's global schema for protein annotation.
	schema := mediated.Schema{
		Name: "annotation",
		Attributes: []mediated.Attribute{
			{Name: "go_accession", Synonyms: []string{"acc", "go_id"}},
			{Name: "term_name", Synonyms: []string{"name"}},
			{Name: "protein_family", Synonyms: []string{"entry name"}},
		},
	}
	m, err := mediated.Bind(q, schema)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("proposed mappings:")
	for _, attr := range []string{"go_accession", "term_name", "protein_family"} {
		fmt.Printf("  %s:\n", attr)
		for i, mp := range m.Mappings(attr) {
			if i >= 3 {
				break
			}
			fmt.Printf("    %.3f %s\n", mp.Cost, mp.Source)
		}
	}

	// A structured query against the global schema — the user never sees
	// the source schemas.
	answers, err := m.Query(
		[]string{"term_name", "protein_family"},
		[]mediated.Condition{{Attr: "go_accession", Value: "GO:0001000"}},
		5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSELECT term_name, protein_family WHERE go_accession = 'GO:0001000':")
	for i, a := range answers {
		fmt.Printf("[%d] cost=%.3f term=%q family=%q\n",
			i, a.Cost, a.Values["term_name"], a.Values["protein_family"])
		if i == 0 {
			fmt.Println("    via:", a.SQL)
		}
	}
}
