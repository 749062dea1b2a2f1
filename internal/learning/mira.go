package learning

import (
	"cmp"
	"slices"
	"sort"
)

// TreeExample represents one query tree for learning: the sum of its edges'
// feature vectors (so that tree cost = w · Features) and the canonical keys
// of its edges (for the symmetric loss of Equation 2).
type TreeExample struct {
	Features Vector
	EdgeKeys []string
}

// NewTreeExample aggregates per-edge feature vectors and keys into an
// example. Fixed zero-cost edges should be passed with nil features; their
// keys still participate in the loss.
func NewTreeExample(edgeKeys []string, edgeFeatures []Vector) TreeExample {
	f := Vector{}
	for _, ef := range edgeFeatures {
		if ef != nil {
			f.AddScaled(ef, 1)
		}
	}
	keys := make([]string, len(edgeKeys))
	copy(keys, edgeKeys)
	sort.Strings(keys)
	return TreeExample{Features: f, EdgeKeys: keys}
}

// Cost returns the tree's cost under weights w.
func (t TreeExample) Cost(w Vector) float64 { return w.Dot(t.Features) }

// SymmetricLoss is Equation 2: |E(T)\E(T')| + |E(T')\E(T)|, computed over
// the canonical edge keys (which are sorted by construction).
func SymmetricLoss(a, b TreeExample) float64 {
	i, j, loss := 0, 0, 0
	for i < len(a.EdgeKeys) && j < len(b.EdgeKeys) {
		switch {
		case a.EdgeKeys[i] == b.EdgeKeys[j]:
			i++
			j++
		case a.EdgeKeys[i] < b.EdgeKeys[j]:
			loss++
			i++
		default:
			loss++
			j++
		}
	}
	loss += len(a.EdgeKeys) - i
	loss += len(b.EdgeKeys) - j
	return float64(loss)
}

// MIRA is the margin-infused relaxed update of Algorithm 4: after each
// feedback item it finds the minimal weight change under which the target
// tree beats every competing tree by a margin equal to the loss between
// them. The multi-constraint quadratic program is solved with Hildreth's
// iterative projection algorithm.
type MIRA struct {
	// MaxIters bounds Hildreth iterations per update.
	MaxIters int
	// Tolerance stops the projections once the largest dual adjustment in a
	// sweep falls below it.
	Tolerance float64
	// MaxAlpha caps each constraint's dual variable, i.e. the aggressiveness
	// of the update (the "C" of passive–aggressive algorithms; 0 = no cap).
	MaxAlpha float64
}

// NewMIRA returns a learner with standard settings. MaxAlpha is kept small:
// Q's feedback arrives as a replayed stream (the paper applies its 10-step
// log up to 4 times), so gentle per-step updates that converge over the
// stream beat aggressive single-step jumps, which drive individual edge
// weights far negative and force large global positivity offsets.
func NewMIRA() *MIRA {
	return &MIRA{MaxIters: 100, Tolerance: 1e-9, MaxAlpha: 0.25}
}

// Update returns new weights given the previous weights, the user-favoured
// target tree Tr and the current k-best competitor set B (which may include
// Tr itself; its constraint is trivially satisfied since the loss is zero).
// The previous weights are not mutated.
func (m *MIRA) Update(prev Vector, target TreeExample, competitors []TreeExample) Vector {
	return m.UpdateWithPositivity(prev, target, competitors, nil, 0)
}

// UpdateWithPositivity is Update plus Algorithm 4's edge-cost positivity
// constraints (line 11: w · f_ij > 0 for every learnable edge): each vector
// in edgeFeatures contributes the constraint w · f ≥ floor, solved jointly
// with the margin constraints. Solving positivity inside the QP — rather
// than offsetting weights afterwards — lets the solver redistribute mass
// instead of driving one edge's weight far negative and then inflating
// every other edge to compensate.
//
// The solver runs over the update's features interned in sorted key order:
// each constraint is a list of (index, value) entries, ascending, and the
// weights it reads and writes are one dense slice. Every sum — w · d and
// ‖d‖² — adds its terms in key order, so the new weights are a function of
// the inputs to the last bit (sums in map order were not), and no sweep
// touches a map.
func (m *MIRA) UpdateWithPositivity(prev Vector, target TreeExample, competitors []TreeExample, edgeFeatures []Vector, floor float64) Vector {
	// Constraints: w · d_i ≥ b_i with d_i = F(T_i) - F(Tr), b_i = L(Tr,T_i).
	ds := make([]Vector, 0, len(competitors)+len(edgeFeatures))
	for _, comp := range competitors {
		ds = append(ds, comp.Features.Sub(target.Features))
	}
	ds = append(ds, edgeFeatures...)
	keys, index := internKeys(ds)

	type constraint struct {
		entries []entry
		b       float64
		norm2   float64
		capped  bool // margin constraints honour MaxAlpha; positivity must not
	}
	total := 0
	for _, d := range ds {
		total += len(d)
	}
	var cons []constraint
	all := make([]entry, 0, total)
	for i, d := range ds {
		lo := len(all)
		for k, x := range d {
			all = append(all, entry{index[k], x})
		}
		es := all[lo:]
		slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(a.j, b.j) })
		n2 := 0.0
		for _, e := range es {
			n2 += e.x * e.x
		}
		if n2 == 0 {
			all = all[:lo] // identical feature vectors: nothing to separate
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
				dot += wv[e.j] * e.x
			}
			delta := (c.b - dot) / c.norm2
			if delta < -alphas[i] {
				delta = -alphas[i] // duals stay non-negative
			}
			if c.capped && m.MaxAlpha > 0 && alphas[i]+delta > m.MaxAlpha {
				delta = m.MaxAlpha - alphas[i]
			}
			if delta != 0 {
				alphas[i] += delta
				for _, e := range c.entries {
					wv[e.j] += delta * e.x
					touched[e.j] = true
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
	// As AddScaled would have left them: a touched weight that ends at
	// exactly zero is absent.
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

// entry is one feature of a constraint: its interned index and value.
type entry struct {
	j int32
	x float64
}

// internKeys returns the distinct keys of vs in ascending order, and each
// key's index in that order.
func internKeys(vs []Vector) ([]string, map[string]int32) {
	index := make(map[string]int32)
	var keys []string
	for _, v := range vs {
		for k := range v {
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
	return keys, index
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// EnsurePositive enforces Algorithm 4's positivity constraint
// (w · f_ij > 0 for learnable edges) the way the paper describes: the
// "default" feature appears on every learnable edge with value 1, so raising
// its weight shifts every edge cost uniformly. minCost must return the
// minimum learnable edge cost under the supplied weights; floor is the
// desired minimum (> 0). The returned vector shares no state with w.
func EnsurePositive(w Vector, minCost func(Vector) float64, floor float64) Vector {
	out := w.Clone()
	mc := minCost(out)
	if mc >= floor {
		return out
	}
	out["default"] += floor - mc
	return out
}
