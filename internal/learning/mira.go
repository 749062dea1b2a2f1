package learning

import "sort"

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
	return m.UpdateWithPositivity(prev, target, competitors, Positivity{})
}

// Positivity is Algorithm 4's edge-cost positivity constraint set (line 11:
// w · f_ij > 0 for every learnable edge): each edge's features f contribute
// the constraint w · f ≥ Floor. Edges are interned once, over Dict, by
// their owner (the search-graph builder); More are interned per update,
// after Edges, and their names may be missing from Dict.
type Positivity struct {
	Dict  *Dict
	Edges []*Interned
	More  []Vector
	Floor float64
}

// UpdateWithPositivity is Update plus the positivity constraints, solved
// jointly with the margin constraints. Solving positivity inside the QP —
// rather than offsetting weights afterwards — lets the solver redistribute
// mass instead of driving one edge's weight far negative and then inflating
// every other edge to compensate.
//
// Every constraint is a list of (id, value) entries in feature-name order,
// and the weights it reads and writes are one dense slice over pos.Dict
// extended by the names only this update uses. Every sum — w · d and
// ‖d‖² — adds its terms in name order, so the new weights are a function of
// the inputs to the last bit however the dictionary numbered the names,
// and no sweep touches a map. Only the margin differences and pos.More are
// interned here; pos.Edges arrive interned.
func (m *MIRA) UpdateWithPositivity(prev Vector, target TreeExample, competitors []TreeExample, pos Positivity) Vector {
	x := extension{base: pos.Dict}
	if x.base == nil {
		x.base = &Dict{}
	}
	type constraint struct {
		f      *Interned
		b      float64
		capped bool // margin constraints honour MaxAlpha; positivity must not
	}
	cons := make([]constraint, 0, len(competitors)+len(pos.Edges)+len(pos.More))
	add := func(f *Interned, b float64, capped bool) {
		if f.Norm2 != 0 { // zero: identical feature vectors, nothing to separate
			cons = append(cons, constraint{f, b, capped})
		}
	}
	// Constraints: w · d_i ≥ b_i with d_i = F(T_i) - F(Tr), b_i = L(Tr,T_i).
	for _, comp := range competitors {
		add(x.intern(comp.Features.Sub(target.Features)), SymmetricLoss(target, comp), true)
	}
	for _, f := range pos.Edges {
		add(f, pos.Floor, false)
	}
	for _, v := range pos.More {
		add(x.intern(v), pos.Floor, false)
	}
	w := prev.Clone()
	if len(cons) == 0 {
		return w
	}

	wv := make([]float64, x.len())
	for k, v := range prev {
		if j, ok := x.lookup(k); ok {
			wv[j] = v
		}
	}
	touched := make([]bool, len(wv))
	maxIters := m.MaxIters
	if maxIters <= 0 {
		maxIters = 100
	}
	alphas := make([]float64, len(cons))
	for iter := 0; iter < maxIters; iter++ {
		maxAdj := 0.0
		for i, c := range cons {
			delta := (c.b - c.f.Dot(wv)) / c.f.Norm2
			if delta < -alphas[i] {
				delta = -alphas[i] // duals stay non-negative
			}
			if c.capped && m.MaxAlpha > 0 && alphas[i]+delta > m.MaxAlpha {
				delta = m.MaxAlpha - alphas[i]
			}
			if delta != 0 {
				alphas[i] += delta
				for _, e := range c.f.Entries {
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
	// As AddScaled would have left them: a touched weight that ends at
	// exactly zero is absent.
	for j, t := range touched {
		switch {
		case !t:
		case wv[j] == 0:
			delete(w, x.name(int32(j)))
		default:
			w[x.name(int32(j))] = wv[j]
		}
	}
	return w
}

// extension numbers the names one update uses: base's ids where base has
// the name, and the ids from base.Len() on, in first-sight order, for the
// names it lacks. base is only read; the extension dies with the update.
type extension struct {
	base  *Dict
	local Dict
}

func (x *extension) lookup(k string) (int32, bool) {
	if j, ok := x.base.ids[k]; ok {
		return j, true
	}
	j, ok := x.local.ids[k]
	return int32(x.base.Len()) + j, ok
}

func (x *extension) intern(v Vector) *Interned {
	return intern(v, func(k string) int32 {
		if j, ok := x.base.ids[k]; ok {
			return j
		}
		return int32(x.base.Len()) + x.local.ID(k)
	})
}

func (x *extension) len() int { return x.base.Len() + x.local.Len() }

func (x *extension) name(j int32) string {
	if n := int32(x.base.Len()); j >= n {
		return x.local.names[j-n]
	}
	return x.base.Name(j)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
