package main

// The traced pass: per-layer metrics, measured from the benchmark's side of
// each layer's exported functions. Spans inside the program are a later
// change; until then a layer's time is the time of the same calls the engine
// makes, replayed on inputs harvested from the workload (the keywords of its
// queries, the conjunctive queries and trees of its views, the relations of
// the sources it registered), and a layer's counters are what the engine
// already publishes on GET /metrics.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"qint/internal/learning"
	"qint/internal/matcher/meta"
	"qint/internal/obs"
	"qint/internal/qcache"
	"qint/internal/relstore"
	"qint/internal/searchgraph"
	"qint/internal/server"
	"qint/internal/steiner"
	"qint/internal/storage"
	"qint/internal/text"
)

// The traced pass runs this much of the op list, in op order.
const (
	traceQueries   = 512
	traceWrites    = 32 // of each kind
	traceReopens   = 8
	traceProbes    = 64 // distinct queries replayed layer by layer
	traceWALWrites = 32
)

// span is one timed interval. Parent is the index of the enclosing span in
// the file, -1 for a root; spans of one request share op_id.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op_id"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_us"` // since the traced pass began
	End    float64 `json:"end_us"`
	block  int
}

type tracer struct {
	clk   *clock
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span inside the clock block that is currently open.
func (t *tracer) begin(name string, opID int) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: opID, Parent: parent, block: len(t.clk.blocks) - 1, Start: t.us(time.Now())})
}

func (t *tracer) end() {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = t.us(time.Now())
}

// in runs fn as one span.
func (t *tracer) in(name string, opID int, fn func()) {
	t.begin(name, opID)
	fn()
	t.end()
}

// add records a span measured elsewhere (an op the driver timed).
func (t *tracer) add(name string, opID int, start time.Time, tm timing) {
	s := t.us(start)
	t.spans = append(t.spans, span{Name: name, Op: opID, Parent: -1, block: tm.block, Start: s, End: s + tm.ms*1e3})
}

// times returns, per span name, every span's self time — its duration minus
// the part its children cover — and its whole duration, in µs at reference
// speed.
func (t *tracer) times() (self, whole map[string][]float64) {
	own, all := make([]timing, len(t.spans)), make([]timing, len(t.spans))
	for i, s := range t.spans {
		d := (s.End - s.Start) / 1e3
		own[i].ms, own[i].block = own[i].ms+d, s.block
		all[i] = timing{d, s.block}
		if s.Parent >= 0 {
			own[s.Parent].ms -= d
		}
	}
	self, whole = make(map[string][]float64), make(map[string][]float64)
	ownUS, allUS := t.clk.norms(own), t.clk.norms(all)
	for i, s := range t.spans {
		self[s.Name] = append(self[s.Name], ownUS[i]*1e3)
		whole[s.Name] = append(whole[s.Name], allUS[i]*1e3)
	}
	return self, whole
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// scrape reads GET /metrics through the same handler the clients use.
func (r *run) scrape() (*obs.Exposition, error) {
	r.e.do("GET", "/metrics", nil)
	if !r.e.ok() {
		return nil, fmt.Errorf("GET /metrics: status %d", r.e.w.status)
	}
	return obs.ParseExposition(bytes.NewReader(r.e.w.body.Bytes()))
}

// counters is the difference of two scrapes. A series that is absent reads
// as 0 and is listed in missing: never fatal.
type counters struct {
	a, b    *obs.Exposition
	missing map[string]bool
}

func (c *counters) delta(series string) float64 {
	vb, ok := c.b.Value(series)
	if !ok {
		c.missing[series] = true
		return 0
	}
	va, _ := c.a.Value(series)
	return vb - va
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// subsample is the part of the op list the traced pass runs: the first
// traceQueries queries and traceWrites writes of each kind, in op order, with
// every view read, view creation and checkpoint that falls between them.
func subsample(p *plan) []op {
	quota := [numOpKinds]int{opQuery: traceQueries, opViewGet: traceQueries, opRegister: traceWrites, opFeedback: traceWrites, opCreateViews: 1, opCheckpoint: 1}
	var out []op
	for _, o := range append(append([]op(nil), p.main...), p.floor...) {
		if quota[o.kind] > 0 {
			quota[o.kind]--
			out = append(out, o)
		}
	}
	return out
}

// traced runs the traced pass on the engine set-up left in r.e and returns
// the per-layer metrics.
func (r *run) traced() ([]metric, error) {
	t := &tracer{clk: r.clk, t0: time.Now()}
	q := r.e.q
	ops := subsample(r.p)
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)

	before, err := r.scrape()
	if err != nil {
		return nil, err
	}
	var (
		cold, warm       []timing
		hooks            []timing // the bookkeeping after each op
		createViewsMS    float64
		expHits, expMiss uint64
		respBytes        int
		walBytes         int64
		walPayload       int
		checkpoints      int
		targets, cmps    int
		registers        int
		writes           []timing
		distinct         []int // query indices in order of first use
		seenQuery        = make(map[int]bool)
		opID             int
		stats            = q.CacheStats()
		files, _         = listing(r.e.dir)
	)
	all := r.phase(ops, func(o op, tm timing) {
		h0 := time.Now()
		defer func() { hooks = append(hooks, timing{ms(time.Since(h0)), tm.block}) }()
		t.add("server.serve_http", opID, r.e.started, tm)
		opID++
		prev := stats
		stats = q.CacheStats()
		switch o.kind {
		case opQuery:
			if stats.Materialization.Misses > prev.Materialization.Misses {
				cold = append(cold, tm)
			} else {
				warm = append(warm, tm)
			}
			expHits += stats.Expansion.Hits - prev.Expansion.Hits
			expMiss += stats.Expansion.Misses - prev.Expansion.Misses
			respBytes += r.e.w.body.Len()
			if !seenQuery[o.a] {
				seenQuery[o.a] = true
				distinct = append(distinct, o.a)
			}
		case opCreateViews:
			createViewsMS += tm.ms
		case opRegister, opFeedback:
			writes = append(writes, tm)
			was := files
			files, _ = listing(r.e.dir)
			// The WAL grew by this write's record, unless a background
			// checkpoint replaced it meanwhile (a new snapshot name).
			w0, s0 := walAndSnap(was)
			w1, s1 := walAndSnap(files)
			if s1.name != s0.name {
				checkpoints++
			}
			if o.kind != opRegister {
				return
			}
			var rr server.RegisterResponse
			if json.Unmarshal(r.e.w.body.Bytes(), &rr) == nil {
				targets += len(rr.TargetsCompared)
				cmps += rr.AttrComparisons
				registers++
			}
			if w1.name == w0.name {
				walBytes += w1.size - w0.size
				walPayload += r.p.sources[o.a].cellBytes
			}
		}
	})
	after, err := r.scrape()
	if err != nil {
		return nil, err
	}
	c := &counters{a: before, b: after, missing: make(map[string]bool)}
	r.checkViews()

	// Layer probes, on the engine as the ops left it.
	pr := &probes{r: r, t: t}
	pr.queryPath(distinct)
	pr.views()
	pr.catalog()
	pr.graph()
	pr.matcher()
	pr.learner()
	pr.cache()
	if err := pr.wal(); err != nil {
		return nil, err
	}
	if err := r.recoverCycles(min(traceReopens, r.p.recoveries)); err != nil {
		return nil, err
	}
	if err := pr.store(); err != nil {
		return nil, err
	}
	ckpt := r.clk.time(func() { err = q.Checkpoint() })
	if err != nil {
		return nil, err
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	shed := c.delta("qint_serving_shed_queries_total") + c.delta("qint_serving_shed_writes_total")
	if err := t.write(filepath.Join("out", "trace_"+r.p.name+".json")); err != nil {
		return nil, err
	}

	self, whole := t.times()
	us := func(name string) float64 {
		if len(self[name]) == 0 {
			c.missing[name] = true
			return 0
		}
		return median(self[name])
	}
	msOf := func(ts []timing) float64 {
		if len(ts) == 0 {
			return 0
		}
		return median(r.clk.norms(ts))
	}
	rawOf := func(ts []timing) float64 {
		if len(ts) == 0 {
			return 0
		}
		return median(raws(ts))
	}
	nq := float64(len(cold) + len(warm))
	matMisses := c.delta(`qint_cache_misses_total{cache="materialization"}`)
	// The engine's clock also ran for the queries that created the views.
	engineMS := c.delta("qint_query_duration_seconds_sum")*1e3 - createViewsMS
	calibs := r.clk.samples()
	var speeds []float64
	for i := range r.clk.blocks {
		speeds = append(speeds, r.clk.speed(i))
	}
	served := append(append([]timing(nil), cold...), warm...)
	rawServe := sum(raws(served))
	// The engine's own clock is raw; scale the difference to reference speed
	// by the mean speed of the blocks the queries ran in.
	overheadUS := ratio((rawServe-engineMS)*1e3, nq) * ratio(sum(r.clk.norms(served)), rawServe)
	views := float64(len(r.viewIDs))

	m := []metric{
		{"server.overhead_us", "us", overheadUS, len(served)},
		{"server.response_kb_per_query", "KB", ratio(float64(respBytes)/1024, nq), 0},
		{"server.shed_total", "count", shed, 0},
		{"qcache.mat_hit_ratio", "ratio", ratio(float64(len(warm)), nq), 0},
		{"qcache.expansion_hit_ratio", "ratio", ratio(float64(expHits), float64(expHits+expMiss)), 0},
		{"qcache.get_hit_ns", "ns", us("qcache.get_hit") * 1e3 / cacheGets, len(self["qcache.get_hit"])},
		{"qcache.evictions_per_kop", "1/kop", ratio(1000*c.delta(`qint_cache_evictions_total{cache="materialization"}`), nq), 0},
		{"qcache.coalesced_total", "count", c.delta(`qint_cache_coalesced_total{cache="materialization"}`), 0},
		{"text.normalize_ns", "ns", us("text.normalize") * 1e3 / normalizeReps, len(self["text.normalize"])},
		{"relstore.findvalues_us", "us", us("relstore.findvalues"), len(self["relstore.findvalues"])},
		{"relstore.plan_us", "us", us("relstore.plan"), len(self["relstore.plan"])},
		{"relstore.execute_us", "us", us("relstore.execute"), len(self["relstore.execute"])},
		{"relstore.rows_out_per_query", "count", ratio(c.delta("qint_exec_rows_total"), matMisses), 0},
		{"relstore.branches_per_query", "count", ratio(c.delta("qint_exec_branches_total"), matMisses), 0},
		{"relstore.cse_hits_per_query", "count", ratio(c.delta("qint_plan_cse_hits_total"), matMisses), 0},
		{"relstore.alloc_kb_per_execute", "KB", pr.execAllocKB, 0},
		{"relstore.index_build_ms", "ms", us("relstore.index_build") / 1e3, 0},
		{"relstore.clone_cow_us", "us", us("relstore.clone_cow"), len(self["relstore.clone_cow"])},
		{"relstore.snapshot_encode_ms", "ms", us("relstore.snapshot_encode") / 1e3, 0},
		{"relstore.snapshot_decode_ms", "ms", us("relstore.snapshot_decode") / 1e3, 0},
		{"relstore.snapshot_bytes", "B", float64(pr.snapshotBytes), 0},
		{"searchgraph.overlay_build_us", "us", us("searchgraph.overlay_build"), len(self["searchgraph.overlay_build"])},
		{"searchgraph.cow_clone_us", "us", us("searchgraph.cow_clone"), len(self["searchgraph.cow_clone"])},
		{"searchgraph.nodes", "count", float64(pr.nodes), 0},
		{"searchgraph.edges", "count", float64(pr.edges), 0},
		{"searchgraph.wal_record_bytes", "B", ratio(float64(walBytes), float64(registers)), 0},
		{"steiner.topk_us", "us", us("steiner.topk"), len(self["steiner.topk"])},
		{"steiner.trees_per_query", "count", pr.treesPerView, 0},
		{"matcher.meta_match_us", "us", us("matcher.meta_match"), len(self["matcher.meta_match"])},
		{"matcher.targets_per_register", "count", ratio(float64(targets), float64(registers)), 0},
		{"matcher.attr_comparisons_per_register", "count", ratio(float64(cmps), float64(registers)), 0},
		{"learning.mira_update_us", "us", us("learning.mira_update"), len(self["learning.mira_update"])},
		{"learning.constraints_per_feedback", "count", pr.constraints, 0},
		{"core.query_cold_us", "us", msOf(cold) * 1e3, len(cold)},
		{"core.query_warm_ns", "ns", msOf(warm) * 1e6, len(warm)},
		{"core.refresh_ms_per_view", "ms", (median(append(whole["core.pipeline"], 0)) + us("relstore.plan") + us("relstore.execute")) / 1e3, len(whole["core.pipeline"])},
		{"core.views_refreshed_per_write", "count", views, 0},
		{"core.stale_409_retries", "count", float64(r.retries409), 0},
	}
	for _, st := range obs.Stages() {
		l := fmt.Sprintf(`{stage=%q}`, string(st))
		m = append(m, metric{"core.stage." + string(st) + "_us", "us",
			ratio(c.delta("qint_query_stage_seconds_total"+l)*1e6, c.delta("qint_query_stage_ops_total"+l)), 0})
	}
	m = append(m,
		metric{"storage.wal_append_us", "us", us("storage.wal_append"), len(self["storage.wal_append"])},
		metric{"storage.wal_bytes_per_user_byte", "ratio", ratio(float64(walBytes), float64(walPayload)), 0},
		metric{"storage.checkpoint_ms", "ms", r.clk.norms([]timing{ckpt})[0], 0},
		metric{"storage.checkpoints_total", "count", float64(checkpoints), 0},
		metric{"storage.write_max_ms", "ms", quantile(append(r.clk.norms(writes), 0), 1), len(writes)},
		metric{"storage.open_ms", "ms", us("storage.open") / 1e3, len(self["storage.open"])},
		metric{"storage.replay_records", "count", float64(pr.replayRecords), 0},
		metric{"obs.trace_overhead_pct", "%", 100 * ratio(sum(r.clk.norms(hooks)), sum(r.clk.norms(all))), len(all)},
		metric{"machine.calib_us_p50", "us", median(calibs), len(calibs)},
		metric{"machine.speed_cv", "ratio", cv(speeds), len(speeds)},
		metric{"machine.gc_cycles", "count", float64(gc1.NumGC - gc0.NumGC), 0},
		metric{"machine.gc_pause_ms", "ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6, 0},
		metric{"tail.query_p99_ms", "ms", quantile(append(r.clk.norms(r.ops[opQuery]), 0), 0.99), len(r.ops[opQuery])},
		metric{"raw.query_p50_ms", "ms", rawOf(r.ops[opQuery]), len(r.ops[opQuery])},
		metric{"raw.register_p50_ms", "ms", rawOf(r.ops[opRegister]), len(r.ops[opRegister])},
		metric{"raw.recovery_p50_ms", "ms", rawOf(r.recovery), len(r.recovery)},
	)
	if len(c.missing) > 0 {
		var names []string
		for name := range c.missing {
			names = append(names, name)
		}
		fmt.Fprintf(r.out, "  missing (reported as 0): %s\n", strings.Join(names, ", "))
	}
	return m, nil
}

// walAndSnap picks the WAL and the snapshot out of a DataDir listing.
func walAndSnap(files []fileSize) (wal, snap fileSize) {
	for _, f := range files {
		switch {
		case strings.HasSuffix(f.name, ".log"):
			wal = f
		case strings.HasSuffix(f.name, ".snap"):
			snap = f
		}
	}
	return wal, snap
}

// probes replays each layer's work on harvested inputs. Every probe group
// is one clock block; its spans nest under a root span per input.
type probes struct {
	r *run
	t *tracer

	execAllocKB   float64
	snapshotBytes int
	nodes, edges  int
	treesPerView  float64
	constraints   float64
	replayRecords int
}

// Repetitions of the probes too short to time singly.
const (
	normalizeReps = 64
	cacheGets     = 1024
)

// keywordsOf splits the benchmark's own query bodies back into their two
// keywords.
func keywordsOf(body []byte) (key, word string) {
	var q server.QueryRequest
	if json.Unmarshal(body, &q) != nil {
		return "", ""
	}
	i := strings.LastIndex(q.Q, "' ")
	if i < 1 {
		return "", ""
	}
	return q.Q[1:i], q.Q[i+2:]
}

// queryPath replays the cold pipeline of each query, one stage per span:
// normalisation, keyword→value lookup, overlay construction, Steiner search.
func (p *probes) queryPath(queries []int) {
	cat := p.r.e.q.CurrentCatalog()
	snap := p.r.e.q.CurrentGraph()
	for n, qi := range queries[:min(len(queries), traceProbes)] {
		key, word := keywordsOf(p.r.p.queries[qi])
		if key == "" {
			continue
		}
		p.r.clk.open()
		p.t.begin("core.pipeline", n)
		p.t.in("text.normalize", n, func() {
			for i := 0; i < normalizeReps/2; i++ {
				probeSink += len(text.Normalize(key)) + len(text.Normalize(word))
			}
		})
		var hits [2][]relstore.ValueHit
		p.t.in("relstore.findvalues", n, func() {
			hits[0], hits[1] = cat.FindValues(key), cat.FindValues(word)
		})
		var ov *searchgraph.Overlay
		var terminals []steiner.NodeID
		p.t.in("searchgraph.overlay_build", n, func() {
			ov = snap.NewOverlay()
			for i, kw := range []string{key, word} {
				kn := ov.KeywordNode(kw)
				terminals = append(terminals, kn)
				for _, h := range hits[i][:min(len(hits[i]), 8)] {
					if vn := ov.ValueNode(h.Ref, h.Value); vn >= 0 {
						ov.AddKeywordEdge(kn, vn, 1)
					}
				}
			}
			// The schema matches of the second keyword, by exact name.
			kn := terminals[1]
			for _, rel := range cat.Relations() {
				if rel.Name == word {
					if id := snap.LookupRelation(rel.QualifiedName()); id >= 0 {
						ov.AddKeywordEdge(kn, id, 1)
					}
				}
				if rel.HasAttr(word) {
					if id := snap.LookupAttribute(relstore.AttrRef{Relation: rel.QualifiedName(), Attr: word}); id >= 0 {
						ov.AddKeywordEdge(kn, id, 1)
					}
				}
			}
		})
		p.t.in("steiner.topk", n, func() {
			probeSink += len(steiner.TopKSteinerOn(ov.View(), terminals, 5))
		})
		p.t.end()
		p.r.clk.close()
	}
}

var probeSink int

// views plans and executes the conjunctive queries of every persistent
// view, as a refresh does.
func (p *probes) views() {
	cat := p.r.e.q.CurrentCatalog()
	var trees, allocs, execs float64
	for n, v := range p.r.e.q.Views() {
		m := v.Current()
		trees += float64(len(m.Trees))
		if len(m.Queries) == 0 {
			continue
		}
		p.r.clk.open()
		var bp *relstore.BatchPlan
		var err error
		p.t.in("relstore.plan", n, func() { bp, err = relstore.PlanBatch(cat, m.Queries) })
		if err == nil {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			p.t.in("relstore.execute", n, func() {
				for i := 0; i < bp.Len(); i++ {
					if rs, err := bp.Execute(i); err == nil {
						probeSink += len(rs.Rows)
					}
				}
			})
			runtime.ReadMemStats(&m1)
			allocs += float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
			execs++
		}
		p.r.clk.close()
	}
	p.treesPerView = ratio(trees, float64(len(p.r.viewIDs)))
	p.execAllocKB = ratio(allocs, execs)
}

// catalog times the catalog's copy-on-write clone, its binary codec and a
// from-scratch value-index build over the same tables.
func (p *probes) catalog() {
	cat := p.r.e.q.CurrentCatalog()
	for i := 0; i < 8; i++ {
		p.r.clk.open()
		p.t.in("relstore.clone_cow", i, func() { probeSink += cat.Clone().NumRelations() })
		p.r.clk.close()
	}
	var tables, segments bytes.Buffer
	p.r.clk.open()
	p.t.in("relstore.snapshot_encode", 0, func() {
		cat.SaveBinary(&tables) // a bytes.Buffer does not fail
		cat.SaveSegments(&segments)
	})
	p.r.clk.close()
	p.snapshotBytes = tables.Len() + segments.Len()
	p.r.clk.open()
	p.t.in("relstore.snapshot_decode", 0, func() {
		if c, err := relstore.LoadCatalogBinary(tables.Bytes(), cat.ShardCount()); err == nil && c.LoadSegments(segments.Bytes()) == nil {
			probeSink += c.NumRelations()
		}
	})
	p.r.clk.close()
	fresh := relstore.NewCatalogSharded(cat.ShardCount())
	for _, name := range cat.RelationNames() {
		fresh.AddTable(cat.Table(name)) // names are unique in cat
	}
	p.r.clk.open()
	p.t.in("relstore.index_build", 0, func() { fresh.BuildValueIndex(runtime.GOMAXPROCS(0)) })
	p.r.clk.close()
}

// graph sizes the search graph and times the copy a writer makes of its
// adjacency before the first mutation of a generation.
func (p *probes) graph() {
	snap := p.r.e.q.CurrentGraph()
	p.nodes, p.edges = snap.NumNodes(), snap.NumEdges()
	for i := 0; i < 8; i++ {
		p.r.clk.open()
		p.t.in("searchgraph.cow_clone", i, func() { probeSink += snap.Base().Clone().NumEdges() })
		p.r.clk.close()
	}
}

// matcher times the metadata matcher the way a registration uses it: the
// newest relation against every other relation of the catalog.
func (p *probes) matcher() {
	cat := p.r.e.q.CurrentCatalog()
	rels := cat.Relations()
	if len(rels) < 2 {
		return
	}
	m := meta.New()
	newest := rels[len(rels)-1]
	for i := 0; i < 8; i++ {
		p.r.clk.open()
		p.t.in("matcher.meta_match", i, func() {
			for _, target := range rels[:len(rels)-1] {
				probeSink += len(m.Match(cat, newest, target))
			}
		})
		p.r.clk.close()
	}
}

// learner times one MIRA update per view: the view's best tree is the
// target, its other trees the competitors.
func (p *probes) learner() {
	weights := p.r.e.q.CurrentGraph().Weights()
	var constraints, updates float64
	for n, v := range p.r.e.q.Views() {
		m := v.Current()
		if len(m.Trees) < 2 {
			continue
		}
		examples := make([]learning.TreeExample, len(m.Trees))
		for i, tree := range m.Trees {
			var keys []string
			var feats []learning.Vector
			for _, id := range tree.Edges {
				keys = append(keys, fmt.Sprint(id))
				feats = append(feats, m.Edge(id).Features)
			}
			examples[i] = learning.NewTreeExample(keys, feats)
		}
		p.r.clk.open()
		p.t.in("learning.mira_update", n, func() {
			probeSink += len(learning.NewMIRA().Update(weights, examples[0], examples[1:]))
		})
		p.r.clk.close()
		constraints += float64(len(examples) - 1)
		updates++
	}
	p.constraints = ratio(constraints, updates)
}

// cache times hits on a cache of the materialisation cache's default size.
func (p *probes) cache() {
	c := qcache.New[int](256)
	keys := make([]qcache.Key, 64)
	for i := range keys {
		keys[i] = qcache.Key{Epoch: 1, K: fmt.Sprintf("'KEY%05d' word\x00%d", i, 5)}
		c.Put(keys[i], i)
	}
	for i := 0; i < 8; i++ {
		p.r.clk.open()
		p.t.in("qcache.get_hit", i, func() {
			for j := 0; j < cacheGets; j++ {
				v, _ := c.Get(keys[j%len(keys)])
				probeSink += v
			}
		})
		p.r.clk.close()
	}
}

// wal times appends (write + fsync) of records the size of a registration's.
func (p *probes) wal() error {
	path := filepath.Join(p.r.e.dir+".probe", "probe.log")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(filepath.Dir(path))
	w, err := storage.CreateWAL(path)
	if err != nil {
		return err
	}
	defer w.Close()
	payload := bytes.Repeat([]byte("x"), 8<<10)
	if len(p.r.p.sources) > 0 {
		payload = p.r.p.sources[0].body
	}
	for i := 0; i < traceWALWrites; i++ {
		p.r.clk.open()
		p.t.in("storage.wal_append", i, func() {
			err = w.Append(storage.Record{Epoch: uint64(i + 1), Kind: 1, Payload: payload})
		})
		p.r.clk.close()
		if err != nil {
			return err
		}
	}
	return nil
}

// store times opening a copy of the crashed DataDir at the storage layer
// alone: manifest, snapshot read and verification, WAL scan.
func (p *probes) store() error {
	dir := p.r.e.dir + ".probe"
	defer os.RemoveAll(dir)
	for i := 0; i < traceReopens; i++ {
		if err := copyDir(p.r.e.dir, dir); err != nil {
			return err
		}
		var err error
		p.r.clk.open()
		p.t.in("storage.open", i, func() {
			var st *storage.Store
			if st, err = storage.Open(dir); err != nil {
				return
			}
			if _, _, err = st.Snapshot(); err == nil {
				p.replayRecords = len(st.Records())
			}
			st.Close()
		})
		p.r.clk.close()
		if err != nil {
			return err
		}
	}
	return nil
}
