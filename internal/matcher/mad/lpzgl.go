package mad

import (
	"runtime"
	"sync"
)

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

	workers := runtime.GOMAXPROCS(0)
	if workers > g.n {
		workers = g.n
	}
	if workers < 1 {
		workers = 1
	}

	for iter := 0; iter < iterations; iter++ {
		maxDelta := lpSweep(g, cur, next, workers)
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

// lpSweep computes one harmonic update into next and returns the max L1
// change across unclamped nodes.
func lpSweep(g *Graph, cur, next []map[int]float64, workers int) float64 {
	var wg sync.WaitGroup
	deltas := make([]float64, workers)
	chunk := (g.n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > g.n {
			hi = g.n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			local := 0.0
			for v := lo; v < hi; v++ {
				if g.seed[v] >= 0 { // clamped
					next[v] = map[int]float64{g.seed[v]: 1}
					continue
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
				if d := l1Delta(cur[v], nv); d > local {
					local = d
				}
				next[v] = nv
			}
			deltas[w] = local
		}(w, lo, hi)
	}
	wg.Wait()
	maxDelta := 0.0
	for _, d := range deltas {
		if d > maxDelta {
			maxDelta = d
		}
	}
	return maxDelta
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
