package learning

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// oracleUpdateWithPositivity is MIRA.UpdateWithPositivity as it stood
// before the update interned its features: constraints are maps, and every
// sweep sums w · d and ‖d‖² in map order and updates w in place through
// AddScaled. It is the reference TestUpdateMatchesOracle compares against.
func oracleUpdateWithPositivity(m *MIRA, prev Vector, target TreeExample, competitors []TreeExample, edgeFeatures []Vector, floor float64) Vector {
	type constraint struct {
		d      Vector
		b      float64
		norm2  float64
		capped bool
	}
	var cons []constraint
	for _, comp := range competitors {
		d := comp.Features.Sub(target.Features)
		b := SymmetricLoss(target, comp)
		n2 := d.Norm2()
		if n2 == 0 {
			continue
		}
		cons = append(cons, constraint{d: d, b: b, norm2: n2, capped: true})
	}
	for _, f := range edgeFeatures {
		n2 := f.Norm2()
		if n2 == 0 {
			continue
		}
		cons = append(cons, constraint{d: f, b: floor, norm2: n2})
	}
	w := prev.Clone()
	if len(cons) == 0 {
		return w
	}
	maxIters := m.MaxIters
	if maxIters <= 0 {
		maxIters = 100
	}
	alphas := make([]float64, len(cons))
	for iter := 0; iter < maxIters; iter++ {
		maxAdj := 0.0
		for i, c := range cons {
			violation := c.b - w.Dot(c.d)
			delta := violation / c.norm2
			if delta < -alphas[i] {
				delta = -alphas[i]
			}
			if c.capped && m.MaxAlpha > 0 && alphas[i]+delta > m.MaxAlpha {
				delta = m.MaxAlpha - alphas[i]
			}
			if delta != 0 {
				alphas[i] += delta
				w.AddScaled(c.d, delta)
			}
			if a := abs(delta); a > maxAdj {
				maxAdj = a
			}
		}
		if maxAdj < m.Tolerance {
			break
		}
	}
	return w
}

// oracleInternedUpdate is MIRA.UpdateWithPositivity as it stood before the
// search graph interned edge features once: every call interns the keys of
// all its constraints, the positivity vectors included, into one sorted
// table, then walks each constraint's map and sorts its entries by index.
// The solve is the same Hildreth sweep in key order. It is the reference
// TestUpdateMatchesInternedOracle and FuzzUpdateEquivalence hold the update
// to bit for bit.
func oracleInternedUpdate(m *MIRA, prev Vector, target TreeExample, competitors []TreeExample, edgeFeatures []Vector, floor float64) Vector {
	ds := make([]Vector, 0, len(competitors)+len(edgeFeatures))
	for _, comp := range competitors {
		ds = append(ds, comp.Features.Sub(target.Features))
	}
	ds = append(ds, edgeFeatures...)
	index := make(map[string]int32)
	var keys []string
	for _, d := range ds {
		for k := range d {
			if _, ok := index[k]; !ok {
				index[k] = 0
				keys = append(keys, k)
			}
		}
	}
	slices.Sort(keys)
	for j, k := range keys {
		index[k] = int32(j)
	}
	type constraint struct {
		entries []Entry
		b       float64
		norm2   float64
		capped  bool
	}
	var cons []constraint
	for i, d := range ds {
		var es []Entry
		for k, x := range d {
			es = append(es, Entry{index[k], x})
		}
		slices.SortFunc(es, func(a, b Entry) int { return cmp.Compare(a.ID, b.ID) })
		n2 := 0.0
		for _, e := range es {
			n2 += e.X * e.X
		}
		if n2 == 0 {
			continue
		}
		c := constraint{entries: es, b: floor, norm2: n2}
		if i < len(competitors) {
			c.b, c.capped = SymmetricLoss(target, competitors[i]), true
		}
		cons = append(cons, c)
	}
	w := prev.Clone()
	if len(cons) == 0 {
		return w
	}
	wv := make([]float64, len(keys))
	for j, k := range keys {
		wv[j] = prev[k]
	}
	touched := make([]bool, len(keys))
	maxIters := m.MaxIters
	if maxIters <= 0 {
		maxIters = 100
	}
	alphas := make([]float64, len(cons))
	for iter := 0; iter < maxIters; iter++ {
		maxAdj := 0.0
		for i, c := range cons {
			dot := 0.0
			for _, e := range c.entries {
				dot += wv[e.ID] * e.X
			}
			delta := (c.b - dot) / c.norm2
			if delta < -alphas[i] {
				delta = -alphas[i]
			}
			if c.capped && m.MaxAlpha > 0 && alphas[i]+delta > m.MaxAlpha {
				delta = m.MaxAlpha - alphas[i]
			}
			if delta != 0 {
				alphas[i] += delta
				for _, e := range c.entries {
					wv[e.ID] += delta * e.X
					touched[e.ID] = true
				}
			}
			if a := abs(delta); a > maxAdj {
				maxAdj = a
			}
		}
		if maxAdj < m.Tolerance {
			break
		}
	}
	for j, k := range keys {
		switch {
		case !touched[j]:
		case wv[j] == 0:
			delete(w, k)
		default:
			w[k] = wv[j]
		}
	}
	return w
}

// positivity splits edges the way core does: the first n interned over a
// dictionary whose ids run against name order (it first sees some keys
// nobody uses, then every key in descending name order), the rest passed
// to be interned per update.
func positivity(r *rand.Rand, edges []Vector, floor float64) Positivity {
	var d Dict
	d.Intern(Vector{"unused:z": 1, "unused:a": 1})
	var keys []string
	for _, e := range edges {
		keys = append(keys, slices.Collect(maps.Keys(e))...)
	}
	slices.Sort(keys)
	for _, k := range slices.Backward(slices.Compact(keys)) {
		d.Intern(Vector{k: 1})
	}
	n := len(edges)
	if n > 0 {
		n = r.Intn(n + 1)
	}
	pos := Positivity{Dict: &d, More: edges[n:], Floor: floor}
	for _, e := range edges[:n] {
		pos.Edges = append(pos.Edges, d.Intern(e))
	}
	return pos
}

// randomFeedback draws one update's inputs in the shape core gives them:
// sparse tree features over shared "default", "rel:", "matcher:" and
// per-edge "edge:" keys, a weight vector holding most of those keys and
// some others, and one positivity vector per learnable edge.
func randomFeedback(r *rand.Rand) (Vector, TreeExample, []TreeExample, []Vector) {
	key := func() string {
		switch r.Intn(4) {
		case 0:
			return "default"
		case 1:
			return fmt.Sprintf("rel:r%d", r.Intn(6))
		case 2:
			return fmt.Sprintf("matcher:mad:bin%d", r.Intn(5))
		}
		return fmt.Sprintf("edge:e%d", r.Intn(40))
	}
	vec := func(n int) Vector {
		v := Vector{}
		for range n {
			v[key()] += 0.1 + r.Float64()
		}
		return v
	}
	tree := func() TreeExample {
		n := 1 + r.Intn(6)
		keys := make([]string, n)
		feats := make([]Vector, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("e%d", r.Intn(40))
			if r.Intn(4) > 0 {
				feats[i] = vec(1 + r.Intn(3))
			}
		}
		return NewTreeExample(keys, feats)
	}
	prev := vec(30)
	prev["unrelated"] = 0.25
	target := tree()
	comps := make([]TreeExample, 1+r.Intn(12))
	for i := range comps {
		comps[i] = tree()
	}
	if r.Intn(3) == 0 {
		comps = append(comps, target) // the target among its competitors
	}
	edges := make([]Vector, r.Intn(60))
	for i := range edges {
		edges[i] = vec(1 + r.Intn(3))
	}
	return prev, target, comps, edges
}

// TestUpdateMatchesOracle: the interned update returns the map-based
// update's weights, each within 1e-9, with and without positivity
// constraints. A key present on one side only must hold a weight within
// 1e-9 of zero on it: whether a weight ends at exactly zero (and so is
// absent) depends on the order a sum adds its terms. And the update is
// bit-identical from call to call, which the map-based update is not.
func TestUpdateMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	m := NewMIRA()
	for trial := 0; trial < 300; trial++ {
		prev, target, comps, edges := randomFeedback(r)
		floor := []float64{0, 0.01, 0.5}[trial%3]
		pos := positivity(r, edges, floor)
		got := m.UpdateWithPositivity(prev, target, comps, pos)
		want := oracleUpdateWithPositivity(m, prev, target, comps, edges, floor)
		for _, w := range []Vector{got, want} {
			for k := range w {
				if math.Abs(got[k]-want[k]) > 1e-9 {
					t.Fatalf("trial %d: weight %q is %v, oracle %v\n got  %v\n want %v", trial, k, got[k], want[k], got, want)
				}
			}
		}
		again := m.UpdateWithPositivity(prev, target, comps, pos)
		if len(again) != len(got) {
			t.Fatalf("trial %d: %d weights, then %d", trial, len(got), len(again))
		}
		for k, x := range got {
			if y, ok := again[k]; !ok || math.Float64bits(y) != math.Float64bits(x) {
				t.Fatalf("trial %d: weight %q is %v, then %v", trial, k, x, y)
			}
		}
	}
}

// sameWeights fails unless got and want hold the same keys with
// Float64bits-identical weights.
func sameWeights(t *testing.T, got, want Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d weights, oracle %d\n got  %v\n want %v", len(got), len(want), got, want)
	}
	for k, x := range want {
		if y, ok := got[k]; !ok || math.Float64bits(y) != math.Float64bits(x) {
			t.Fatalf("weight %q is %v (present %v), oracle %v", k, y, ok, x)
		}
	}
}

// TestUpdateMatchesInternedOracle: with the positivity constraints interned
// once over a dictionary whose ids run against name order, the update
// returns the per-call-interning update's weights bit for bit — the same
// keys, the same Float64bits — with and without positivity constraints.
func TestUpdateMatchesInternedOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	m := NewMIRA()
	for trial := 0; trial < 300; trial++ {
		prev, target, comps, edges := randomFeedback(r)
		floor := []float64{0, 0.01, 0.5}[trial%3]
		got := m.UpdateWithPositivity(prev, target, comps, positivity(r, edges, floor))
		sameWeights(t, got, oracleInternedUpdate(m, prev, target, comps, edges, floor))
	}
	w, target, comps, edges := feedbackAtScale()
	got := m.UpdateWithPositivity(w, target, comps, positivity(r, edges, 0.01))
	sameWeights(t, got, oracleInternedUpdate(m, w, target, comps, edges, 0.01))
}

// FuzzUpdateEquivalence holds the update to the per-call-interning oracle
// bit for bit on random feedback drawn from the fuzzed seed.
func FuzzUpdateEquivalence(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42} {
		f.Add(seed, uint8(1))
	}
	f.Fuzz(func(t *testing.T, seed int64, fl uint8) {
		r := rand.New(rand.NewSource(seed))
		prev, target, comps, edges := randomFeedback(r)
		floor := float64(fl) / 100
		m := NewMIRA()
		got := m.UpdateWithPositivity(prev, target, comps, positivity(r, edges, floor))
		sameWeights(t, got, oracleInternedUpdate(m, prev, target, comps, edges, floor))
	})
}

// TestUpdateDropsZeroWeights: a weight the update moves to exactly zero is
// absent from the result, as AddScaled leaves it; a zero weight the update
// does not touch stays.
func TestUpdateDropsZeroWeights(t *testing.T) {
	keys := []string{"e1"}
	target := NewTreeExample(keys, nil)
	comp := NewTreeExample(keys, []Vector{{"a": 1}}) // loss 0, d = {a: 1}
	prev := Vector{"a": -1, "idle": 0}
	m := &MIRA{MaxIters: 100, Tolerance: 1e-9}
	for _, w := range []Vector{
		m.Update(prev, target, []TreeExample{comp}),
		oracleUpdateWithPositivity(m, prev, target, []TreeExample{comp}, nil, 0),
	} {
		if _, ok := w["a"]; ok || len(w) != 1 || w["idle"] != 0 {
			t.Errorf("weights %v, want only idle=0", w)
		}
	}
}

// feedbackAtScale is one update's inputs on a grown search graph: 2 000
// learnable edges with their own indicator, two relation indicators out of
// 200 relations and two matcher bins each, and 12 competitor trees of 4 to
// 6 such edges.
func feedbackAtScale() (Vector, TreeExample, []TreeExample, []Vector) {
	r := rand.New(rand.NewSource(8))
	edges := make([]Vector, 2000)
	w := Vector{"default": 1}
	for i := range edges {
		f := Vector{
			"default":                                    1,
			fmt.Sprintf("rel:r%d", r.Intn(200)):          1,
			fmt.Sprintf("rel:r%d", r.Intn(200)):          1,
			fmt.Sprintf("edge:e%d", i):                   1,
			fmt.Sprintf("matcher:meta:bin%d", r.Intn(5)): 1,
			fmt.Sprintf("matcher:mad:bin%d", r.Intn(5)):  1,
		}
		for k := range f {
			w[k] = 0.1 + r.Float64()
		}
		edges[i] = f
	}
	tree := func() TreeExample {
		n := 4 + r.Intn(3)
		keys := make([]string, n)
		feats := make([]Vector, n)
		for j := range keys {
			e := r.Intn(len(edges))
			keys[j], feats[j] = fmt.Sprintf("e%d", e), edges[e]
		}
		return NewTreeExample(keys, feats)
	}
	comps := make([]TreeExample, 12)
	for i := range comps {
		comps[i] = tree()
	}
	return w, tree(), comps, edges
}

var sinkWeights Vector

func BenchmarkUpdateWithPositivity(b *testing.B) {
	w, target, comps, edges := feedbackAtScale()
	pos := positivity(rand.New(rand.NewSource(1)), edges, 0.01)
	pos.Edges, pos.More = nil, nil
	for _, e := range edges {
		pos.Edges = append(pos.Edges, pos.Dict.Intern(e))
	}
	m := NewMIRA()
	for b.Loop() {
		sinkWeights = m.UpdateWithPositivity(w, target, comps, pos)
	}
}

func BenchmarkUpdateWithPositivityInternedOracle(b *testing.B) {
	w, target, comps, edges := feedbackAtScale()
	m := NewMIRA()
	for b.Loop() {
		sinkWeights = oracleInternedUpdate(m, w, target, comps, edges, 0.01)
	}
}

func BenchmarkUpdateWithPositivityOracle(b *testing.B) {
	w, target, comps, edges := feedbackAtScale()
	m := NewMIRA()
	for b.Loop() {
		sinkWeights = oracleUpdateWithPositivity(m, w, target, comps, edges, 0.01)
	}
}
