// Scaling: the alignment-strategy comparison of §5.1.2 on a synthetic
// 500-source search graph. EXHAUSTIVE matching grows with the graph;
// VIEWBASEDALIGNER stays near the query neighbourhood; PREFERENTIALALIGNER
// is bounded by its prior budget.
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/learning"
	"qint/internal/relstore"
)

func main() {
	corpus := datasets.GBCO()

	for _, size := range []int{18, 100, 500} {
		q := core.New(core.DefaultOptions())
		if err := q.AddTables(corpus.Tables...); err != nil {
			log.Fatal(err)
		}
		// Pad to the requested size with synthetic two-attribute sources,
		// attached to the graph by average-cost association edges.
		if extra := size - len(corpus.Tables); extra > 0 {
			synth := datasets.SyntheticRelations(extra, int64(size))
			if err := q.AddTables(synth...); err != nil {
				log.Fatal(err)
			}
			refs := q.CurrentCatalog().AttrRefs()
			var pairs [][2]relstore.AttrRef
			for i, t := range synth {
				qn := t.Relation.QualifiedName()
				for j, a := range t.Relation.Attributes {
					pairs = append(pairs, [2]relstore.AttrRef{{Relation: qn, Attr: a.Name}, refs[(i*7+j*13)%len(refs)]})
				}
			}
			if err := q.AddAssociations(learning.Vector{"synthetic": 1}, pairs...); err != nil {
				log.Fatal(err)
			}
		}

		// One live view defines the α-neighbourhood.
		v, err := q.Query(core.Request{Keywords: core.ParseKeywords("'GEN00001' transcript")})
		if err != nil {
			log.Fatal(err)
		}

		// How many column comparisons would aligning a fresh 8-attribute
		// source require under each strategy?
		newRel := &relstore.Relation{Source: "fresh", Name: "data"}
		for i := 0; i < 8; i++ {
			newRel.Attributes = append(newRel.Attributes,
				relstore.Attribute{Name: fmt.Sprintf("col%d", i)})
		}
		rels := []*relstore.Relation{newRel}
		fmt.Printf("graph with %3d sources: exhaustive=%6d  view-based=%5d  preferential=%4d  (alpha=%.2f)\n",
			size,
			q.CountTargetComparisons(rels, core.Exhaustive),
			q.CountTargetComparisons(rels, core.ViewBased),
			q.CountTargetComparisons(rels, core.Preferential),
			v.Current().Alpha)
	}
}
