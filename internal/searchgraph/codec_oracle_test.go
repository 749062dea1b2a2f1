package searchgraph_test

import (
	"bytes"
	"maps"
	"math"
	"os"
	"path/filepath"
	"testing"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/searchgraph"
	"qint/internal/steiner"
	"qint/internal/storage"
)

// TestGraphCodecMatchesJSONOracle runs the JSON-oracle comparison
// (searchgraph.CheckCodecMatchesJSONOracle) over graphs the engine built:
// GBCO's sources, then after AlignAllPairs, then after feedback, and the
// same graph restored from a crash copy whose WAL tail replays the
// alignment's associations and the feedback's weight deltas. Each graph
// section must also load to the engine's live graph: the same nodes, edges,
// features, weights and Float64bits-equal costs.
func TestGraphCodecMatchesJSONOracle(t *testing.T) {
	opts := core.DefaultOptions()
	opts.DataDir = t.TempDir()
	q, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	corpus := datasets.GBCO()
	if err := q.AddTables(corpus.Tables...); err != nil {
		t.Fatal(err)
	}
	check(t, "gbco", q)
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	if _, err := q.AlignAllPairs(); err != nil {
		t.Fatal(err)
	}
	check(t, "aligned", q)

	feedback := 0
	for _, trial := range corpus.Trials {
		v, err := q.Query(core.Request{Keywords: core.ParseKeywords(trial.Keywords)})
		if err != nil {
			t.Fatal(err)
		}
		if m := v.Current(); len(m.Trees) >= 2 {
			if err := q.FeedbackFavorTree(m, m.Trees[1]); err != nil {
				t.Fatal(err)
			}
			feedback++
		}
	}
	if feedback == 0 {
		t.Fatal("no trial view has two trees to give feedback on")
	}
	live := check(t, "feedback", q)

	// A crash copy: the checkpoint holds GBCO's graph, the WAL tail the
	// alignment and the feedback.
	crashed := filepath.Join(t.TempDir(), "crashed")
	copyFiles(t, opts.DataDir, crashed)
	st, err := storage.Open(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Records()) < 1+feedback {
		t.Fatalf("crash copy replays %d WAL records, want the alignment and %d feedbacks", len(st.Records()), feedback)
	}
	st.Close()
	ropts := opts
	ropts.DataDir = crashed
	r, err := core.Open(ropts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if replayed := check(t, "replayed", r); !bytes.Equal(replayed, live) {
		t.Error("the replayed graph's section differs from the live one's")
	}
}

// check loads q's graph section, compares it with q's live graph and with
// the JSON oracle, and returns the section.
func check(t *testing.T, name string, q *core.Q) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := storage.OpenContainer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	section, ok := c.Section("graph")
	if !ok {
		t.Fatalf("%s: no graph section", name)
	}
	g, err := searchgraph.Load(section)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sameAsLive(t, name, g, q.CurrentGraph())
	searchgraph.CheckCodecMatchesJSONOracle(t, name, g)
	return section
}

func sameAsLive(t *testing.T, name string, g *searchgraph.Graph, live *searchgraph.Snapshot) {
	t.Helper()
	if g.NumNodes() != live.NumNodes() || g.NumEdges() != live.NumEdges() {
		t.Fatalf("%s: %d nodes, %d edges; live %d, %d", name, g.NumNodes(), g.NumEdges(), live.NumNodes(), live.NumEdges())
	}
	for i := range g.NumNodes() {
		if id := steiner.NodeID(i); g.Node(id) != live.Node(id) {
			t.Errorf("%s: node %d is %+v, live %+v", name, i, g.Node(id), live.Node(id))
		}
	}
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !maps.EqualFunc(g.Weights(), live.Weights(), bits) {
		t.Errorf("%s: weights differ from the live graph's", name)
	}
	base := live.Base()
	for i := range g.NumEdges() {
		id := steiner.EdgeID(i)
		e, le := g.Edge(id), live.Edge(id)
		if e.ID != le.ID || e.Kind != le.Kind || e.Fixed != le.Fixed || e.A != le.A || e.B != le.B || !maps.Equal(e.Features, le.Features) {
			t.Errorf("%s: edge %d is %+v, live %+v", name, i, e, le)
		}
		if !bits(g.Cost(id), live.Cost(id)) {
			t.Errorf("%s: edge %d costs %v, live %v", name, i, g.Cost(id), live.Cost(id))
		}
		if u, v := g.Snapshot().Base().Edge(id), base.Edge(id); u.U != v.U || u.V != v.V {
			t.Errorf("%s: edge %d joins %d-%d, live %d-%d", name, i, u.U, u.V, v.U, v.V)
		}
	}
}

// copyFiles copies the regular files of src into a new dst. The engine
// fsyncs every write before returning, so the copy is what a crash right
// now would leave.
func copyFiles(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
