package main

// The end-to-end driver: one client goroutine, closed loop, straight into
// server.Server.ServeHTTP with an in-memory ResponseWriter. Of the engine it
// uses only core.DefaultOptions/New/Open/AddMatcher/AddTables/AlignAllPairs/
// Checkpoint/Close, server.New, datasets.* and meta.New — no Options knob
// other than DataDir and no Query* variant.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
	"qint/internal/server"
)

// memWriter is the in-memory http.ResponseWriter the driver reuses for
// every request.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) WriteHeader(status int)      { w.status = status }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

func (w *memWriter) reset() {
	clear(w.header)
	w.status = http.StatusOK
	w.body.Reset()
}

// engine is one live instance under test.
type engine struct {
	q       *core.Q
	srv     *server.Server
	dir     string
	w       memWriter
	started time.Time // when the latest request entered ServeHTTP
}

// do sends one request and returns the wall time of ServeHTTP alone. The
// response stays in e.w until the next call.
func (e *engine) do(method, path string, body []byte) time.Duration {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r, err := http.NewRequest(method, path, rd)
	if err != nil {
		panic(err) // paths are the benchmark's own
	}
	e.w.reset()
	e.started = time.Now()
	e.srv.ServeHTTP(&e.w, r)
	return time.Since(e.started)
}

func (e *engine) ok() bool { return e.w.status >= 200 && e.w.status < 300 }

func (e *engine) epoch() uint64 {
	n, _ := strconv.ParseUint(e.w.header.Get("X-Q-Epoch"), 10, 64)
	return n
}

func (e *engine) close() error { return e.q.Close() }

// baseTables builds the corpus loaded at set-up: GBCO plus synth synthetic
// value tables.
func baseTables(synth int) []*relstore.Table {
	tables := datasets.GBCO().Tables
	if synth > 0 {
		syn, _ := datasets.SyntheticValueCorpus(synth, synthRows, shapeSeed)
		tables = append(tables, syn...)
	}
	return tables
}

// openEngine constructs an engine over dir ("" = in memory) with the
// default options and the metadata matcher, as qserver does.
func openEngine(dir string) (*engine, error) {
	opts := core.DefaultOptions()
	var q *core.Q
	if dir == "" {
		q = core.New(opts)
	} else {
		opts.DataDir = dir
		var err error
		if q, err = core.Open(opts); err != nil {
			return nil, err
		}
	}
	q.AddMatcher(meta.New())
	return &engine{q: q, dir: dir, w: memWriter{header: make(http.Header)}}, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// run is the state of one workload run.
type run struct {
	p   *plan
	clk *clock
	e   *engine
	out io.Writer

	viewIDs []string

	ops       [numOpKinds][]timing // per-op timings by kind
	recovery  []timing
	attempted int
	failed    int
	failures  []string // first few, for the report

	allocBytes   uint64 // TotalAlloc over read-only blocks
	allocQueries int

	first map[int]firstAnswer // query index → first response this epoch

	payloadBytes int // Σ cell bytes registered so far
	retries409   int
}

type firstAnswer struct {
	epoch uint64
	body  []byte
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// setUp builds the engine of p in dir and returns it with the timings of
// its steps. Every step is a clock block, so no stretch of set-up longer
// than one step goes without a speed probe. The warm-up pass over the
// distinct reads is set-up too, but it is run (and timed) only when warm is
// set: it is a sum over many blocks already, so repeating it buys nothing.
func (r *run) setUp(dir string, warm bool) (*engine, []timing, error) {
	p := r.p
	var steps []timing
	var e *engine
	var err error
	step := func(fn func() error) {
		if err == nil {
			steps = append(steps, r.clk.time(func() { err = fn() }))
		}
	}
	step(func() (err error) { e, err = openEngine(dir); return })
	for i := 0; i < len(p.base); i += 8 {
		step(func() error { return e.q.AddTables(p.base[i:min(i+8, len(p.base))]...) })
	}
	step(func() error { e.q.AlignAllPairs(); return nil })
	step(func() error { e.srv = server.New(e.q); return nil })
	var ids []string
	if !p.lateViews {
		step(func() (err error) { ids, err = createViews(e, p.viewQueries); return })
	}
	step(func() error { return e.q.Checkpoint() })
	// Warm-up: one pass over the distinct reads, which also builds the lazy
	// value-index segments they touch.
	for i := 0; warm && i < len(p.warm); i += p.readsPerBlock {
		step(func() error {
			for _, qi := range p.warm[i:min(i+p.readsPerBlock, len(p.warm))] {
				e.do("POST", "/query?ephemeral=1", p.queries[qi])
				if !e.ok() {
					return fmt.Errorf("warm-up query %s: status %d: %s", p.queries[qi], e.w.status, e.w.body.Bytes())
				}
			}
			return nil
		})
	}
	if err != nil {
		if e != nil {
			e.close()
		}
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	r.viewIDs = ids
	return e, steps, nil
}

// createViews registers one persistent view per query and returns the ids.
func createViews(e *engine, queries [][]byte) ([]string, error) {
	ids := make([]string, len(queries))
	for i, q := range queries {
		e.do("POST", "/query", q)
		var v server.ViewAnswers
		if !e.ok() || json.Unmarshal(e.w.body.Bytes(), &v) != nil || v.ID == "" {
			return nil, fmt.Errorf("create view %s: status %d: %s", q, e.w.status, e.w.body.Bytes())
		}
		ids[i] = v.ID
	}
	return ids, nil
}

// phase executes ops in blocks: consecutive reads share a block of at most
// readsPerBlock, every write is a block of its own. It returns the timing
// of every op. each, if not nil, is called after every op, inside the
// op's block but outside its timing.
func (r *run) phase(ops []op, each func(o op, tm timing)) []timing {
	var all []timing
	for i := 0; i < len(ops); {
		j := i + 1
		if isRead(ops[i].kind) {
			for j < len(ops) && j-i < r.p.readsPerBlock && isRead(ops[j].kind) {
				j++
			}
		}
		all = append(all, r.block(ops[i:j], each)...)
		i = j
	}
	return all
}

func isRead(k opKind) bool { return k == opQuery || k == opViewGet }

// block runs one block between two calibration bursts.
func (r *run) block(ops []op, each func(o op, tm timing)) []timing {
	out := make([]timing, 0, len(ops))
	readOnly := isRead(ops[0].kind)
	var m0, m1 runtime.MemStats
	id := r.clk.open()
	if readOnly {
		runtime.ReadMemStats(&m0)
	}
	for _, o := range ops {
		r.attempted++
		var d time.Duration
		switch o.kind {
		case opQuery:
			d = r.query(o.a)
		case opViewGet:
			d = r.e.do("GET", "/views/"+r.viewIDs[o.a], nil)
			if !r.e.ok() {
				r.fail("GET view %s: status %d", r.viewIDs[o.a], r.e.w.status)
			}
		case opRegister:
			d = r.register(o.a)
		case opFeedback:
			d = r.feedback(o.a, o.b)
		case opCreateViews:
			t0 := time.Now()
			ids, err := createViews(r.e, r.p.viewQueries)
			d = time.Since(t0)
			if err != nil {
				r.fail("%v", err)
			}
			r.viewIDs = ids
		case opCheckpoint:
			t0 := time.Now()
			if err := r.e.q.Checkpoint(); err != nil {
				r.fail("checkpoint: %v", err)
			}
			d = time.Since(t0)
		}
		t := timing{ms(d), id}
		out = append(out, t)
		r.ops[o.kind] = append(r.ops[o.kind], t)
		if each != nil {
			each(o, t)
		}
	}
	if readOnly {
		runtime.ReadMemStats(&m1)
		r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		r.allocQueries += len(ops)
	}
	r.clk.close()
	return out
}

// query issues one ephemeral query and checks the answer: 2xx, and
// byte-identical to the first answer to the same query in this epoch.
func (r *run) query(qi int) time.Duration {
	d := r.e.do("POST", "/query?ephemeral=1", r.p.queries[qi])
	if !r.e.ok() {
		r.fail("query %s: status %d: %s", r.p.queries[qi], r.e.w.status, r.e.w.body.Bytes())
		return d
	}
	ep, body := r.e.epoch(), r.e.w.body.Bytes()
	if f, seen := r.first[qi]; seen && f.epoch == ep {
		if !bytes.Equal(f.body, body) {
			r.fail("query %s: answer changed within epoch %d", r.p.queries[qi], ep)
		}
	} else {
		r.first[qi] = firstAnswer{ep, append(f.body[:0], body...)}
	}
	return d
}

func (r *run) register(si int) time.Duration {
	s := r.p.sources[si]
	d := r.e.do("POST", "/sources", s.body)
	if !r.e.ok() {
		r.fail("register %s: status %d: %s", s.name, r.e.w.status, r.e.w.body.Bytes())
		return d
	}
	r.payloadBytes += s.cellBytes
	return d
}

// feedback marks one current answer of a view valid or invalid. The row is
// chosen (untimed) from the view's current answers; a view that currently
// has none is passed over for the next one, as a user would. A 409 for a
// row gone stale is answered by re-reading and retrying, and the retry is
// charged to the op.
func (r *run) feedback(vi, sel int) time.Duration {
	kind := "valid"
	if sel&1 == 1 {
		kind = "invalid"
	}
	var id string
	pick := func() []byte {
		for i := range r.viewIDs {
			id = r.viewIDs[(vi+i)%len(r.viewIDs)]
			r.e.do("GET", "/views/"+id, nil)
			var v server.ViewSummary
			if r.e.ok() && json.Unmarshal(r.e.w.body.Bytes(), &v) == nil && v.Answers > 0 {
				return []byte(fmt.Sprintf(`{"row":%d,"kind":%q}`, min(sel>>1, v.Answers-1), kind))
			}
		}
		r.fail("feedback: no view has an answer to mark")
		return nil
	}
	body := pick()
	if body == nil {
		return 0
	}
	d := r.e.do("POST", "/views/"+id+"/feedback", body)
	for try := 0; r.e.w.status == http.StatusConflict && try < 3; try++ {
		r.retries409++
		t0 := time.Now()
		if body = pick(); body != nil {
			r.e.do("POST", "/views/"+id+"/feedback", body)
		}
		d += time.Since(t0)
	}
	if !r.e.ok() {
		r.fail("feedback on view %s: status %d: %s", id, r.e.w.status, r.e.w.body.Bytes())
	}
	return d
}

// checkViews compares every persistent view with the ephemeral answer to
// the same keywords: at one epoch the two must agree on every field but the
// id. Failures count as failed ops; the checks themselves are not timed.
func (r *run) checkViews() {
	for i, id := range r.viewIDs {
		r.attempted++
		r.e.do("GET", "/views/"+id, nil)
		var a, b server.ViewAnswers
		if !r.e.ok() || json.Unmarshal(r.e.w.body.Bytes(), &a) != nil {
			r.fail("check view %s: status %d", id, r.e.w.status)
			continue
		}
		ea := r.e.epoch()
		r.e.do("POST", "/query?ephemeral=1", r.p.viewQueries[i])
		if !r.e.ok() || json.Unmarshal(r.e.w.body.Bytes(), &b) != nil {
			r.fail("check view %s: ephemeral status %d", id, r.e.w.status)
			continue
		}
		a.ID = ""
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if ea != r.e.epoch() || !bytes.Equal(ja, jb) {
			r.fail("view %s and its ephemeral query disagree (epochs %d/%d)", id, ea, r.e.epoch())
		}
	}
}

// state is what must survive a crash: every view's answers, the source
// list and every association cost (which carry the learned weights).
func (e *engine) state(viewIDs []string) ([][]byte, error) {
	var out [][]byte
	get := func(path string) error {
		e.do("GET", path, nil)
		if !e.ok() {
			return fmt.Errorf("GET %s: status %d", path, e.w.status)
		}
		out = append(out, append([]byte(nil), e.w.body.Bytes()...))
		return nil
	}
	for _, id := range viewIDs {
		if err := get("/views/" + id); err != nil {
			return nil, err
		}
	}
	if err := get("/associations"); err != nil {
		return nil, err
	}
	e.do("GET", "/stats", nil)
	var st server.StatsResponse
	if !e.ok() || json.Unmarshal(e.w.body.Bytes(), &st) != nil {
		return nil, fmt.Errorf("GET /stats: status %d", e.w.status)
	}
	src, _ := json.Marshal(st.Sources)
	return append(out, src), nil
}

// recoverCycles crashes and restarts the engine n times: the DataDir is
// copied with the engine still open (no Close — what is on disk is what a
// crash leaves), and each cycle times core.Open + server.New + the first
// 2xx answer on a restored view, on a fresh copy. The restored state must
// be byte-identical to the live one.
func (r *run) recoverCycles(n int) error {
	want, err := r.e.state(r.viewIDs)
	if err != nil {
		return err
	}
	crashed := r.e.dir + ".crashed"
	if err := copyDir(r.e.dir, crashed); err != nil {
		return err
	}
	defer os.RemoveAll(crashed)
	for i := 0; i < n; i++ {
		r.attempted++
		dir := fmt.Sprintf("%s.reopen%d", r.e.dir, i)
		if err := copyDir(crashed, dir); err != nil {
			return err
		}
		runtime.GC()
		var e *engine
		var err error
		t := r.clk.time(func() {
			if e, err = openEngine(dir); err == nil {
				e.srv = server.New(e.q)
				e.do("GET", "/views/"+r.viewIDs[0], nil)
			}
		})
		if err != nil {
			r.fail("reopen: %v", err)
			os.RemoveAll(dir)
			continue
		}
		if !e.ok() {
			r.fail("reopen: first view read: status %d", e.w.status)
		}
		r.recovery = append(r.recovery, t)
		got, err := e.state(r.viewIDs)
		switch {
		case err != nil:
			r.fail("reopen: %v", err)
		case len(got) != len(want):
			r.fail("reopen: state has %d parts, want %d", len(got), len(want))
		default:
			for j := range want {
				if !bytes.Equal(got[j], want[j]) {
					r.fail("reopen %d: restored state part %d differs from the pre-crash one", i, j)
					break
				}
			}
		}
		if err := e.close(); err != nil {
			r.fail("reopen: close: %v", err)
		}
		os.RemoveAll(dir)
	}
	return nil
}

// copyDir copies the regular files of src into a fresh dst. src may belong
// to a live engine whose background checkpointer is still folding the WAL,
// so the copy is retried until the directory listing is the same before and
// after it: a copy taken across a manifest switch is never kept.
func copyDir(src, dst string) error {
	for try := 0; ; try++ {
		before, err := listing(src)
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dst); err != nil {
			return err
		}
		if err := os.MkdirAll(dst, 0o755); err != nil {
			return err
		}
		for _, f := range before {
			data, err := os.ReadFile(filepath.Join(src, f.name))
			if err != nil && !os.IsNotExist(err) {
				return err
			}
			if err := os.WriteFile(filepath.Join(dst, f.name), data, 0o644); err != nil {
				return err
			}
		}
		after, err := listing(src)
		if err != nil {
			return err
		}
		if slices.Equal(before, after) {
			return nil
		}
		if try == 100 {
			return fmt.Errorf("copy %s: directory never came to rest", src)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

type fileSize struct {
	name string
	size int64
}

// listing is the regular files of dir with their sizes, in name order.
func listing(dir string) ([]fileSize, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []fileSize
	for _, ent := range ents {
		fi, err := ent.Info()
		if os.IsNotExist(err) {
			continue // removed by a checkpoint between ReadDir and Info
		}
		if err != nil {
			return nil, err
		}
		if fi.Mode().IsRegular() {
			out = append(out, fileSize{ent.Name(), fi.Size()})
		}
	}
	return out, nil
}

// dirBytes is the total size of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	files, err := listing(dir)
	var n int64
	for _, f := range files {
		n += f.size
	}
	return n, err
}
