package core

import (
	"testing"

	"qint/internal/relstore"
	"qint/internal/steiner"
)

// TestApproxSteinerMode runs the full query pipeline with the BANKS-style
// approximation enabled (the paper's large-scale configuration) and checks
// the results stay sane and comparable to the exact mode.
func TestApproxSteinerMode(t *testing.T) {
	build := func(approx bool) *Q {
		opts := DefaultOptions()
		opts.UseApproxSteiner = approx
		q := New(opts)
		if err := q.AddTables(fixtureTables(t)...); err != nil {
			t.Fatal(err)
		}
		addHandCoded(t, q,
			ref2("go.term", "acc"), ref2("ip.interpro2go", "go_id"))
		return q
	}

	exact := build(false)
	approx := build(true)
	ve, err := queryStr(exact, "'plasma membrane' 'Kringle domain'")
	if err != nil {
		t.Fatal(err)
	}
	va, err := queryStr(approx, "'plasma membrane' 'Kringle domain'")
	if err != nil {
		t.Fatal(err)
	}
	if len(va.Trees()) == 0 || len(va.Result().Rows) == 0 {
		t.Fatal("approximate mode should produce answers")
	}
	// The approximation never undercuts the exact optimum.
	if va.Trees()[0].Cost < ve.Trees()[0].Cost-1e-9 {
		t.Errorf("approx best (%v) beats exact best (%v)", va.Trees()[0].Cost, ve.Trees()[0].Cost)
	}
	// Feedback works in approximate mode too.
	if len(va.Trees()) >= 2 {
		if err := approx.FeedbackFavorTree(va, va.Trees()[1]); err != nil {
			t.Fatal(err)
		}
	}
	// KBestTrees honours the approximate setting.
	if trees := approx.KBestTrees(va, 3); len(trees) == 0 {
		t.Error("KBestTrees empty in approx mode")
	}
}

func ref2(rel, attr string) relstore.AttrRef {
	return relstore.AttrRef{Relation: rel, Attr: attr}
}

var _ = steiner.NodeID(0)
