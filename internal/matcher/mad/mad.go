// Package mad implements the Modified Adsorption (MAD) label-propagation
// algorithm (Talukdar & Crammer 2009; Algorithm 1 of the paper) and the
// instance-based schema matcher built on it (paper §3.2.2): attribute and
// value nodes form a column–value graph, every attribute node is seeded
// with its own label, labels propagate through shared values, and each
// attribute's final label distribution yields its top-Y alignment
// candidates with confidences. Transitive value overlap (A~B, B~C ⇒ A~C)
// falls out of the propagation without any pairwise source comparison.
package mad

import (
	"math"
	"runtime"
	"sort"

	"qint/internal/pool"
)

// Params are the MAD hyper-parameters. The defaults mirror the paper's
// experimental setup (§5.2.1): µ1 = µ2 = 1, µ3 = 1e-2, 3 iterations, β = 2
// for the entropy-based random-walk probability heuristic.
type Params struct {
	Mu1, Mu2, Mu3 float64
	Iterations    int
	Beta          float64
	// Tolerance stops iteration early once the max per-node label change
	// falls below it (0 disables early stopping).
	Tolerance float64
}

// DefaultParams returns the paper's hyper-parameters.
func DefaultParams() Params {
	return Params{Mu1: 1, Mu2: 1, Mu3: 1e-2, Iterations: 3, Beta: 2}
}

// Graph is the propagation graph: an undirected weighted graph where some
// nodes carry seed labels. Nodes are dense ints; labels are dense ints with
// the dummy "none of the above" label ⊤ handled internally.
type Graph struct {
	n      int
	adj    [][]arc
	seed   []int // per node: seed label id, or -1
	labels int   // number of real labels
}

type arc struct {
	to int
	w  float64
}

// NewGraph creates a propagation graph with n nodes and the given number of
// distinct labels. All nodes start unseeded.
func NewGraph(n, labels int) *Graph {
	return &Graph{
		n:      n,
		adj:    make([][]arc, n),
		seed:   newFilled(n, -1),
		labels: labels,
	}
}

func newFilled(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// AddEdge adds an undirected edge with weight w between u and v.
func (g *Graph) AddEdge(u, v int, w float64) {
	g.adj[u] = append(g.adj[u], arc{to: v, w: w})
	g.adj[v] = append(g.adj[v], arc{to: u, w: w})
}

// Seed injects label l at node v.
func (g *Graph) Seed(v, l int) { g.seed[v] = l }

// Result holds the converged label distributions. Scores[v] maps label id
// to score; the dummy label is stored at index == labels. Distributions are
// not normalised — use TopLabels for ranked, normalised access.
type Result struct {
	Scores []map[int]float64
	labels int
}

// LabelScore is one (label, normalised score) pair.
type LabelScore struct {
	Label int
	Score float64
}

// TopLabels returns the y highest-scoring real labels at node v (the dummy
// label is excluded), with scores normalised by the node's total mass so
// they are comparable across nodes and usable as confidences in [0,1].
func (r *Result) TopLabels(v, y int) []LabelScore {
	if v < 0 || v >= len(r.Scores) || y <= 0 {
		return nil
	}
	total := 0.0
	for _, s := range r.Scores[v] {
		total += s
	}
	if total <= 0 {
		return nil
	}
	var out []LabelScore
	for l, s := range r.Scores[v] {
		if l == r.labels { // dummy ⊤
			continue
		}
		// Quantise: the normalising total sums a map in iteration order, so
		// the low float bits vary run to run; unrounded scores would flip
		// confidence tie-breaks nondeterministically.
		score := math.Round(s/total*1e9) / 1e9
		out = append(out, LabelScore{Label: l, Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Label < out[j].Label
	})
	if len(out) > y {
		out = out[:y]
	}
	return out
}

// Run executes MAD (Algorithm 1) over the graph. The per-node updates of
// each iteration fan out over the worker pool in contiguous node ranges
// (sweep) — the in-process analogue of the paper's Hadoop-parallel
// implementation.
func (g *Graph) Run(p Params) *Result {
	if p.Iterations <= 0 {
		p.Iterations = DefaultParams().Iterations
	}
	if p.Beta <= 0 {
		p.Beta = 2
	}

	pinj, pcont, pabnd := g.walkProbabilities(p.Beta)

	dummy := g.labels
	// I_v: seed distributions. R_v: dummy-peaked prior.
	inj := make([]map[int]float64, g.n)
	for v := 0; v < g.n; v++ {
		if g.seed[v] >= 0 {
			inj[v] = map[int]float64{g.seed[v]: 1}
		}
	}

	// L_v <- I_v (line 1)
	cur := make([]map[int]float64, g.n)
	for v := range cur {
		cur[v] = cloneDist(inj[v])
	}

	// M_vv (line 2): µ1 p_inj + µ2 p_cont ΣW + µ3
	m := make([]float64, g.n)
	for v := 0; v < g.n; v++ {
		sumW := 0.0
		for _, a := range g.adj[v] {
			sumW += a.w
		}
		m[v] = p.Mu1*pinj[v] + p.Mu2*pcont[v]*sumW + p.Mu3
	}

	next := make([]map[int]float64, g.n)
	for iter := 0; iter < p.Iterations; iter++ {
		// One fixpoint iteration (lines 4–8) into next.
		maxDelta := sweep(g.n, runtime.GOMAXPROCS(0), func(v int) float64 {
			nv := make(map[int]float64)
			// D_v = Σ_u (p_cont_v W_vu + p_cont_u W_uv) L_u  (line 4)
			for _, a := range g.adj[v] {
				coef := p.Mu2 * (pcont[v]*a.w + pcont[a.to]*a.w)
				if coef == 0 {
					continue
				}
				for l, s := range cur[a.to] {
					nv[l] += coef * s
				}
			}
			// µ1 p_inj I_v  (line 6)
			if inj[v] != nil {
				for l, s := range inj[v] {
					nv[l] += p.Mu1 * pinj[v] * s
				}
			}
			// µ3 p_abnd R_v  (line 7): R_v peaks on the dummy label
			nv[dummy] += p.Mu3 * pabnd[v]
			// 1/M_vv
			for l := range nv {
				nv[l] /= m[v]
			}
			next[v] = nv
			return l1Delta(cur[v], nv)
		})
		cur, next = next, cur
		if p.Tolerance > 0 && maxDelta < p.Tolerance {
			break
		}
	}
	return &Result{Scores: cur, labels: g.labels}
}

// sweep runs node(0), …, node(n-1) — one iteration's per-node updates —
// on the worker pool in at most workers contiguous ranges of nodes, and
// returns the largest value node returned: the iteration's maximum
// per-node L1 change. node writes only its own node's next distribution,
// so every update, and the maximum, is the same at any worker count.
func sweep(n, workers int, node func(v int) float64) float64 {
	workers = max(min(workers, n), 1)
	chunk := (n + workers - 1) / workers
	deltas := make([]float64, workers)
	pool.Run(workers, workers, func(w int) error {
		for v := w * chunk; v < min((w+1)*chunk, n); v++ {
			if d := node(v); d > deltas[w] {
				deltas[w] = d
			}
		}
		return nil
	})
	maxDelta := 0.0
	for _, d := range deltas {
		if d > maxDelta {
			maxDelta = d
		}
	}
	return maxDelta
}

// walkProbabilities computes per-node (p_inj, p_cont, p_abnd) with the
// entropy-based heuristic of Talukdar & Crammer 2009 (§5.2.1 "heuristics
// from [31]"): high-degree, high-entropy nodes get larger abandonment
// probability so random walks stay near their source.
func (g *Graph) walkProbabilities(beta float64) (pinj, pcont, pabnd []float64) {
	pinj = make([]float64, g.n)
	pcont = make([]float64, g.n)
	pabnd = make([]float64, g.n)
	for v := 0; v < g.n; v++ {
		sumW := 0.0
		for _, a := range g.adj[v] {
			sumW += a.w
		}
		var h float64 // transition entropy
		if sumW > 0 {
			for _, a := range g.adj[v] {
				p := a.w / sumW
				if p > 0 {
					h -= p * math.Log(p)
				}
			}
		}
		cv := math.Log(beta) / math.Log(beta+math.Exp(h))
		dv := 0.0
		if g.seed[v] >= 0 {
			dv = (1 - cv) * math.Sqrt(h)
		}
		zv := cv + dv
		if zv < 1 {
			zv = 1
		}
		pcont[v] = cv / zv
		pinj[v] = dv / zv
		pabnd[v] = 1 - pcont[v] - pinj[v]
		if pabnd[v] < 0 {
			pabnd[v] = 0
		}
	}
	return pinj, pcont, pabnd
}

func cloneDist(d map[int]float64) map[int]float64 {
	if d == nil {
		return make(map[int]float64)
	}
	out := make(map[int]float64, len(d))
	for k, v := range d {
		out[k] = v
	}
	return out
}

func l1Delta(a, b map[int]float64) float64 {
	d := 0.0
	for k, va := range a {
		d += math.Abs(va - b[k])
	}
	for k, vb := range b {
		if _, ok := a[k]; !ok {
			d += math.Abs(vb)
		}
	}
	return d
}
