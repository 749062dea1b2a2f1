package core

import (
	"strings"
	"testing"

	"qint/internal/steiner"
)

// TestApproxSteinerMode drives a query with more keywords than the exact
// search accepts, so the BANKS-style approximation answers it, and checks
// the view, feedback on it and its deeper feedback page all work.
func TestApproxSteinerMode(t *testing.T) {
	q := newFixtureQ(t, true)
	// Schema labels in three spellings each: 21 distinct keywords that
	// match attributes and relations, not values, so the joined tree has
	// rows.
	var kws []string
	for _, label := range []string{"title", "name", "acc", "go_id", "entry_ac", "pub_id", "term"} {
		kws = append(kws, label, strings.ToUpper(label), strings.ToUpper(label[:1])+label[1:])
	}
	if len(kws) <= steiner.MaxExactTerminals {
		t.Fatalf("%d keywords do not exceed MaxExactTerminals", len(kws))
	}
	routed := q.metrics.steinerApproxRouted.Load()
	v, err := q.Query(Request{Keywords: kws})
	if err != nil {
		t.Fatal(err)
	}
	if got := q.metrics.steinerApproxRouted.Load(); got != routed+1 {
		t.Errorf("%d keywords: approximation routings %d -> %d, want one", len(kws), routed, got)
	}
	if len(v.Trees()) < 2 || len(v.Result().Rows) == 0 {
		t.Fatalf("approximation gave %d trees and %d rows, want >= 2 trees and some rows",
			len(v.Trees()), len(v.Result().Rows))
	}
	epoch := q.Epoch()
	if err := q.FeedbackFavorTree(v, v.Trees()[1]); err != nil {
		t.Fatal(err)
	}
	if q.Epoch() == epoch {
		t.Error("feedback on an approximated view published nothing")
	}
	if trees := q.KBestTrees(v, 3); len(trees) == 0 {
		t.Error("KBestTrees empty on an approximated view")
	}
}
