package learning

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVectorDot(t *testing.T) {
	a := Vector{"x": 2, "y": 3}
	b := Vector{"y": 4, "z": 5}
	if got := a.Dot(b); got != 12 {
		t.Errorf("Dot = %v, want 12", got)
	}
	if got := a.Dot(Vector{}); got != 0 {
		t.Errorf("Dot with empty = %v", got)
	}
	if a.Dot(b) != b.Dot(a) {
		t.Error("Dot not symmetric")
	}
}

func TestVectorCloneIndependence(t *testing.T) {
	a := Vector{"x": 1}
	b := a.Clone()
	b["x"] = 99
	if a["x"] != 1 {
		t.Error("Clone should not share storage")
	}
}

func TestVectorAddScaledRemovesZeros(t *testing.T) {
	a := Vector{"x": 1, "y": 2}
	a.AddScaled(Vector{"x": -1, "z": 3}, 1)
	if _, ok := a["x"]; ok {
		t.Error("zeroed entry should be deleted")
	}
	if a["z"] != 3 || a["y"] != 2 {
		t.Errorf("AddScaled result wrong: %v", a)
	}
}

func TestVectorSubAndNorm(t *testing.T) {
	a := Vector{"x": 3}
	b := Vector{"x": 1, "y": 2}
	d := a.Sub(b)
	if d["x"] != 2 || d["y"] != -2 {
		t.Errorf("Sub = %v", d)
	}
	if got := d.Norm2(); got != 8 {
		t.Errorf("Norm2 = %v, want 8", got)
	}
	if a["x"] != 3 {
		t.Error("Sub must not mutate receiver")
	}
}

func TestVectorString(t *testing.T) {
	v := Vector{"b": 2, "a": 1}
	if v.String() != "{a=1 b=2}" {
		t.Errorf("String = %q", v.String())
	}
}

func TestBinner(t *testing.T) {
	b := DefaultBinner()
	if b.NumBins() != 5 {
		t.Fatalf("NumBins = %d", b.NumBins())
	}
	cases := []struct {
		x    float64
		want int
	}{{0, 0}, {0.1, 0}, {0.2, 1}, {0.45, 2}, {0.79, 3}, {0.8, 4}, {1.0, 4}}
	for _, c := range cases {
		if got := b.Bin(c.x); got != c.want {
			t.Errorf("Bin(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	if f := b.Feature("mad", 0.95); f != "matcher:mad:bin4" {
		t.Errorf("Feature = %q", f)
	}
	if f := b.Feature("meta", math.NaN()); f != "matcher:meta:bin0" {
		t.Errorf("NaN should land in bin0: %q", f)
	}
	monotone := func(x, y float64) bool {
		x, y = math.Abs(math.Mod(x, 1)), math.Abs(math.Mod(y, 1))
		if x > y {
			x, y = y, x
		}
		return b.Bin(x) <= b.Bin(y)
	}
	if err := quick.Check(monotone, nil); err != nil {
		t.Error("binning not monotone:", err)
	}
}

func TestNewTreeExampleAggregates(t *testing.T) {
	ex := NewTreeExample(
		[]string{"e2", "e1"},
		[]Vector{{"default": 1, "fk": 1}, nil, {"default": 1}},
	)
	if ex.Features["default"] != 2 || ex.Features["fk"] != 1 {
		t.Errorf("aggregated features = %v", ex.Features)
	}
	if ex.EdgeKeys[0] != "e1" || ex.EdgeKeys[1] != "e2" {
		t.Errorf("keys should be sorted: %v", ex.EdgeKeys)
	}
	w := Vector{"default": 0.5, "fk": 2}
	if got := ex.Cost(w); got != 3 {
		t.Errorf("Cost = %v, want 3", got)
	}
}

func TestSymmetricLoss(t *testing.T) {
	a := TreeExample{EdgeKeys: []string{"e1", "e2", "e3"}}
	b := TreeExample{EdgeKeys: []string{"e2", "e4"}}
	if got := SymmetricLoss(a, b); got != 3 { // e1,e3 vs e4
		t.Errorf("loss = %v, want 3", got)
	}
	if got := SymmetricLoss(a, a); got != 0 {
		t.Errorf("self loss = %v, want 0", got)
	}
	if SymmetricLoss(a, b) != SymmetricLoss(b, a) {
		t.Error("loss not symmetric")
	}
	empty := TreeExample{}
	if got := SymmetricLoss(a, empty); got != 3 {
		t.Errorf("loss vs empty = %v, want 3", got)
	}
}

func TestMIRAUpdateSeparatesTarget(t *testing.T) {
	// Target uses edge A (feature fa), competitor uses edge B (feature fb).
	// A single update moves toward the margin (MaxAlpha caps aggressiveness
	// per step — Q replays feedback, as the paper does); repeated updates
	// must reach a margin of at least the loss (2).
	target := TreeExample{Features: Vector{"fa": 1}, EdgeKeys: []string{"A"}}
	comp := TreeExample{Features: Vector{"fb": 1}, EdgeKeys: []string{"B"}}
	w := Vector{"fa": 1, "fb": 1}
	m := NewMIRA()
	w2 := m.Update(w, target, []TreeExample{comp})
	step1 := comp.Cost(w2) - target.Cost(w2)
	if step1 <= 0 {
		t.Errorf("first update should open a margin, got %v", step1)
	}
	for i := 0; i < 100; i++ {
		w2 = m.Update(w2, target, []TreeExample{comp})
	}
	margin := comp.Cost(w2) - target.Cost(w2)
	if margin < 2-1e-6 {
		t.Errorf("margin after replays = %v, want ≥ 2", margin)
	}
	// Original weights untouched.
	if w["fa"] != 1 || w["fb"] != 1 {
		t.Errorf("Update mutated input weights: %v", w)
	}
}

func TestMIRAUpdateIsMinimal(t *testing.T) {
	// If the target already beats all competitors by the margin, weights
	// must not change.
	target := TreeExample{Features: Vector{"fa": 1}, EdgeKeys: []string{"A"}}
	comp := TreeExample{Features: Vector{"fb": 1}, EdgeKeys: []string{"B"}}
	w := Vector{"fa": 0, "fb": 10}
	m := NewMIRA()
	w2 := m.Update(w, target, []TreeExample{comp})
	if d := w2.Sub(w).Norm2(); d > 1e-12 {
		t.Errorf("satisfied constraints should not move weights, moved %v", d)
	}
}

func TestMIRAUpdateTargetInCompetitorSet(t *testing.T) {
	// Tr ∈ B: its constraint is trivially satisfied (loss 0), no effect.
	target := TreeExample{Features: Vector{"fa": 1}, EdgeKeys: []string{"A"}}
	w := Vector{"fa": 1}
	m := NewMIRA()
	w2 := m.Update(w, target, []TreeExample{target})
	if d := w2.Sub(w).Norm2(); d > 1e-12 {
		t.Errorf("self-constraint should be no-op, moved %v", d)
	}
}

func TestMIRAUpdateMultipleConstraints(t *testing.T) {
	target := TreeExample{Features: Vector{"fa": 1}, EdgeKeys: []string{"A"}}
	comps := []TreeExample{
		{Features: Vector{"fb": 1}, EdgeKeys: []string{"B"}},
		{Features: Vector{"fc": 1}, EdgeKeys: []string{"C"}},
		{Features: Vector{"fb": 1, "fc": 1}, EdgeKeys: []string{"B", "C"}},
	}
	w := Vector{"fa": 5, "fb": 1, "fc": 1}
	m := NewMIRA()
	w2 := w
	for i := 0; i < 200; i++ { // replayed stream converges to all margins
		w2 = m.Update(w2, target, comps)
	}
	for i, c := range comps {
		margin := c.Cost(w2) - target.Cost(w2)
		loss := SymmetricLoss(target, c)
		if margin < loss-1e-6 {
			t.Errorf("constraint %d: margin %v < loss %v", i, margin, loss)
		}
	}
}

func TestMIRAPositivityConstraints(t *testing.T) {
	// An edge whose only feature is "fa" must keep w·f ≥ floor even while
	// the margin update pulls fa down.
	target := TreeExample{Features: Vector{"fa": 1}, EdgeKeys: []string{"A"}}
	comp := TreeExample{Features: Vector{"fb": 1}, EdgeKeys: []string{"B"}}
	edgeA := Vector{"fa": 1}
	var d Dict
	pos := Positivity{Dict: &d, Edges: []*Interned{d.Intern(edgeA)}, Floor: 0.01}
	w := Vector{"fa": 0.05, "fb": 0.05}
	m := NewMIRA()
	for i := 0; i < 100; i++ {
		w = m.UpdateWithPositivity(w, target, []TreeExample{comp}, pos)
	}
	if cost := w.Dot(edgeA); cost < 0.01-1e-6 {
		t.Errorf("positivity constraint violated: edge cost %v", cost)
	}
	if margin := comp.Cost(w) - target.Cost(w); margin < 2-1e-6 {
		t.Errorf("margin %v should still be achievable via fb", margin)
	}
}

func TestMIRAMaxAlphaCapsAggressiveness(t *testing.T) {
	target := TreeExample{Features: Vector{"fa": 1}, EdgeKeys: []string{"A"}}
	comp := TreeExample{Features: Vector{"fb": 1}, EdgeKeys: []string{"B"}}
	w := Vector{"fa": 100, "fb": 0}
	capped := &MIRA{MaxIters: 100, Tolerance: 1e-9, MaxAlpha: 0.1}
	w2 := capped.Update(w, target, []TreeExample{comp})
	// With α ≤ 0.1 and ||d||² = 2, the weight change is at most 0.1·d.
	if diff := w2.Sub(w).Norm2(); diff > 0.1*0.1*2+1e-9 {
		t.Errorf("capped update moved too far: %v", diff)
	}
}

// Norm2 returns the squared L2 norm.
func (v Vector) Norm2() float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return s
}

// Cost returns the tree's cost under weights w.
func (t TreeExample) Cost(w Vector) float64 { return w.Dot(t.Features) }
