package mad

import "runtime"

// RunLPZGL executes the classical harmonic-function label propagation of
// Zhu, Ghahramani & Lafferty (the paper's reference [36]) over the same
// graph: seeded nodes are clamped to their labels; every other node's
// distribution is repeatedly set to the weighted average of its
// neighbours'. It is the family member MAD extends — no abandonment
// probability, no dummy label — and exists here as an ablation baseline:
// on column–value graphs with high-degree value nodes, LP-ZGL lets labels
// drift far from their source, which is precisely the failure mode MAD's
// abandonment probability mitigates (paper §3.2.2).
func (g *Graph) RunLPZGL(iterations int, tolerance float64) *Result {
	if iterations <= 0 {
		iterations = 10
	}
	cur := make([]map[int]float64, g.n)
	for v := 0; v < g.n; v++ {
		if g.seed[v] >= 0 {
			cur[v] = map[int]float64{g.seed[v]: 1}
		} else {
			cur[v] = make(map[int]float64)
		}
	}
	next := make([]map[int]float64, g.n)
	for iter := 0; iter < iterations; iter++ {
		// One harmonic update into next; the max L1 change is over the
		// unclamped nodes.
		maxDelta := sweep(g.n, runtime.GOMAXPROCS(0), func(v int) float64 {
			if g.seed[v] >= 0 { // clamped
				next[v] = map[int]float64{g.seed[v]: 1}
				return 0
			}
			nv := make(map[int]float64)
			sumW := 0.0
			for _, a := range g.adj[v] {
				sumW += a.w
				for l, s := range cur[a.to] {
					nv[l] += a.w * s
				}
			}
			if sumW > 0 {
				for l := range nv {
					nv[l] /= sumW
				}
			}
			next[v] = nv
			return l1Delta(cur[v], nv)
		})
		cur, next = next, cur
		if tolerance > 0 && maxDelta < tolerance {
			break
		}
	}
	// Read-out sweep: clamping means a seeded (attribute) node never holds
	// foreign labels, which would blind the matcher adapter entirely. The
	// final distributions reported for seeded nodes are therefore their
	// harmonic estimate — own seed plus the weighted average of their
	// neighbours — while unclamped nodes keep their converged values.
	out := make([]map[int]float64, g.n)
	for v := 0; v < g.n; v++ {
		if g.seed[v] < 0 {
			out[v] = cur[v]
			continue
		}
		nv := map[int]float64{g.seed[v]: 1}
		sumW := 0.0
		for _, a := range g.adj[v] {
			sumW += a.w
		}
		if sumW > 0 {
			for _, a := range g.adj[v] {
				for l, s := range cur[a.to] {
					nv[l] += a.w * s / sumW
				}
			}
		}
		out[v] = nv
	}
	return &Result{Scores: out, labels: g.labels}
}

// UseLPZGL switches a Matcher to the LP-ZGL propagation for ablation runs.
// The graph construction (numeric pruning, degree-1 pruning, seeding) is
// shared with MAD; only the propagation differs.
func (m *Matcher) UseLPZGL(iterations int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runOverride = func(g *Graph) *Result { return g.RunLPZGL(iterations, 1e-6) }
	m.cache = nil
}
