package matcher

import (
	"reflect"
	"testing"

	"qint/internal/relstore"
)

func ref(rel, attr string) relstore.AttrRef {
	return relstore.AttrRef{Relation: rel, Attr: attr}
}

func TestTopYPerAttribute(t *testing.T) {
	aligns := []Alignment{
		{A: ref("s.r1", "a"), B: ref("s.r2", "x"), Confidence: 0.9},
		{A: ref("s.r1", "a"), B: ref("s.r2", "y"), Confidence: 0.5},
		{A: ref("s.r1", "a"), B: ref("s.r2", "z"), Confidence: 0.7},
		{A: ref("s.r1", "b"), B: ref("s.r2", "x"), Confidence: 0.3},
	}
	out := TopYPerAttribute(aligns, 2)
	if len(out) != 3 {
		t.Fatalf("got %d alignments, want 3 (2 for a, 1 for b)", len(out))
	}
	if out[0].B.Attr != "x" || out[1].B.Attr != "z" {
		t.Errorf("top-2 for a should be x then z: %v", out[:2])
	}
	if out[2].A.Attr != "b" {
		t.Errorf("b's alignment missing: %v", out)
	}
	if got := TopYPerAttribute(aligns, 0); got != nil {
		t.Errorf("y=0 should return nil, got %v", got)
	}
	if got := TopYPerAttribute(nil, 3); len(got) != 0 {
		t.Errorf("empty input: %v", got)
	}
}

func TestSortByConfidenceDeterministic(t *testing.T) {
	aligns := []Alignment{
		{A: ref("s.r1", "b"), B: ref("s.r2", "x"), Confidence: 0.5},
		{A: ref("s.r1", "a"), B: ref("s.r2", "x"), Confidence: 0.5},
		{A: ref("s.r1", "c"), B: ref("s.r2", "x"), Confidence: 0.9},
	}
	SortByConfidence(aligns)
	if aligns[0].Confidence != 0.9 {
		t.Errorf("best first: %v", aligns)
	}
	if aligns[1].A.Attr != "a" || aligns[2].A.Attr != "b" {
		t.Errorf("tie-break by name: %v", aligns)
	}
}

// TestSortByConfidenceKeyOrder pins the tie-break on tied confidences to
// the "A~B" string key where one name is a prefix of another. There the key
// and a field-by-field comparison disagree: "s.r.xy~…" sorts before
// "s.r.x~…" because 'y' < '~', and "s.a-b.x" before "s.a.x" because '-' <
// '.', while field by field "x" < "xy" and "s.a" < "s.a-b". So the key
// cannot be replaced by comparing fields without moving alignments.
func TestSortByConfidenceKeyOrder(t *testing.T) {
	aligns := []Alignment{
		{A: ref("s.r", "x"), B: ref("t.u", "y"), Confidence: 0.5},
		{A: ref("s.a", "x"), B: ref("t.u", "y"), Confidence: 0.5},
		{A: ref("s.r", "xy"), B: ref("t.u", "y"), Confidence: 0.5},
		{A: ref("s.a-b", "x"), B: ref("t.u", "y"), Confidence: 0.5},
		{A: ref("s.z", "z"), B: ref("t.u", "y"), Confidence: 0.9},
	}
	SortByConfidence(aligns)
	var got []string
	for _, al := range aligns {
		got = append(got, al.A.String())
	}
	want := []string{"s.z.z", "s.a-b.x", "s.a.x", "s.r.xy", "s.r.x"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order %q, want %q", got, want)
	}
}
