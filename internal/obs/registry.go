// Package obs is the unified observability layer: a lock-free metrics
// registry (atomic counters, callback gauges, log-linear latency
// summaries) with a Prometheus text-exposition writer and parser, plus a
// per-query stage tracer (trace.go). It is a leaf package — standard
// library only — so every layer of the engine (core, qcache, server, the
// commands) can hook into one registry without import cycles.
//
// Hot-path cost is the design constraint throughout: recording is one
// atomic add, every instrument is valid as a nil pointer (a nil *Counter,
// *Histogram or *Trace no-ops on its write methods), and the registry's
// mutex is touched only at registration and exposition time — never on a
// metric update.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing (by convention) int64 metric. The
// zero value is ready to use; a nil *Counter is a valid disabled counter
// whose methods all no-op or return zero, so optional instrumentation
// costs exactly one nil check on the hot path.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Label is one metric label pair.
type Label struct {
	Name, Value string
}

// sample is one labelled series within a family.
type sample struct {
	labels string // rendered {a="b",...} suffix, "" when unlabelled

	c     *Counter
	scale float64        // multiplies c.Load() at exposition; 0 means 1
	fn    func() float64 // callback gauges/counters
	h     *Histogram     // summary families
}

// family is one metric name with its help text, type and series.
type family struct {
	name, help, typ string
	samples         []*sample
	byLabels        map[string]*sample
}

// Registry holds metric families and renders them in Prometheus text
// exposition format 0.0.4. All methods are safe for concurrent use; the
// internal mutex guards registration and exposition only — updating a
// registered instrument never touches it.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// familyLocked finds or creates a family, first registration fixing help
// and type.
func (r *Registry) familyLocked(name, help, typ string) *family {
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byLabels: make(map[string]*sample)}
		r.fams[name] = f
	}
	return f
}

// renderLabels renders a sorted, escaped {a="b",c="d"} suffix.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Counter registers (or returns the already-registered) counter series
// under name+labels. Re-registration with the same name and labels returns
// the same *Counter, so stat structs migrated onto the registry can be
// re-wired idempotently.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.scaledCounter(name, help, 0, labels...)
}

// ScaledCounter is Counter with a value scale applied at exposition time:
// the counter accumulates raw int64 units (e.g. nanoseconds) and the
// exposed sample is Load()*scale (e.g. seconds with scale 1e-9). The
// internal representation stays an atomic integer — no float math on the
// record path.
func (r *Registry) ScaledCounter(name, help string, scale float64, labels ...Label) *Counter {
	return r.scaledCounter(name, help, scale, labels...)
}

func (r *Registry) scaledCounter(name, help string, scale float64, labels ...Label) *Counter {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "counter")
	if s, ok := f.byLabels[ls]; ok && s.c != nil {
		return s.c
	}
	s := &sample{labels: ls, c: &Counter{}, scale: scale}
	f.byLabels[ls] = s
	f.samples = append(f.samples, s)
	return s.c
}

// GaugeFunc registers a callback gauge: fn is called at exposition time.
// Re-registration under the same name+labels replaces the callback (the
// latest closure wins), so a layer torn down and rebuilt over one engine —
// e.g. a new Server over an existing Q — never double-registers.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "gauge")
	if s, ok := f.byLabels[ls]; ok {
		s.fn = fn
		return
	}
	s := &sample{labels: ls, fn: fn}
	f.byLabels[ls] = s
	f.samples = append(f.samples, s)
}

// Histogram registers a latency summary under name+labels and returns its
// recorder. Durations are recorded in nanoseconds and exposed as a
// Prometheus summary in SECONDS: quantile series at 0.5/0.9/0.99/0.999
// plus _sum and _count. Idempotent like Counter.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "summary")
	if s, ok := f.byLabels[ls]; ok && s.h != nil {
		return s.h
	}
	s := &sample{labels: ls, h: &Histogram{}}
	f.byLabels[ls] = s
	f.samples = append(f.samples, s)
	return s.h
}

// summaryQuantiles are the quantile series every Histogram family exposes.
var summaryQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// WritePrometheus renders every family in text exposition format 0.0.4:
// families sorted by name, series sorted by label string, one # HELP and
// # TYPE line per family. Counter and gauge values are exact integers
// unless scaled; summaries are seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	// Snapshot the sample lists so exposition can run without the lock
	// (callbacks may themselves take other locks).
	type famSnap struct {
		name, help, typ string
		samples         []*sample
	}
	snaps := make([]famSnap, len(fams))
	for i, f := range fams {
		ss := append([]*sample(nil), f.samples...)
		sort.Slice(ss, func(a, b int) bool { return ss[a].labels < ss[b].labels })
		snaps[i] = famSnap{name: f.name, help: f.help, typ: f.typ, samples: ss}
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range snaps {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.samples {
			switch {
			case s.h != nil:
				writeSummary(&b, f.name, s)
			case s.fn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.fn()))
			case s.scale != 0:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(float64(s.c.Load())*s.scale))
			default:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.c.Load())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSummary renders one histogram series as a summary in seconds.
func writeSummary(b *strings.Builder, name string, s *sample) {
	for _, q := range summaryQuantiles {
		labels := s.labels
		qt := `quantile="` + strconv.FormatFloat(q, 'g', -1, 64) + `"`
		if labels == "" {
			labels = "{" + qt + "}"
		} else {
			labels = labels[:len(labels)-1] + "," + qt + "}"
		}
		fmt.Fprintf(b, "%s%s %s\n", name, labels, formatFloat(s.h.Quantile(q).Seconds()))
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.labels, formatFloat(s.h.Sum().Seconds()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels, s.h.Count())
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(h string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(h)
}
