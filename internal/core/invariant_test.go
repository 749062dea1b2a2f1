package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"qint/internal/learning"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
	"qint/internal/searchgraph"
	"qint/internal/steiner"
)

// randomCatalog builds nRel relations with overlapping key domains: each
// relation gets an id column drawing from a shared entity pool (so value
// overlap exists for matchers and joins), one or two FK columns into
// earlier relations, and a label column with recognisable words.
func randomCatalog(r *rand.Rand, nRel int) []*relstore.Table {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta",
		"kappa", "lambda", "sigma", "omega"}
	var tables []*relstore.Table
	pools := make([][]string, nRel)
	for i := 0; i < nRel; i++ {
		pool := make([]string, 12)
		for j := range pool {
			pool[j] = fmt.Sprintf("K%02d_%03d", i, j)
		}
		pools[i] = pool

		rel := &relstore.Relation{
			Source: fmt.Sprintf("s%d", i),
			Name:   fmt.Sprintf("r%d", i),
			Attributes: []relstore.Attribute{
				{Name: fmt.Sprintf("id%d", i)},
				{Name: "label"},
			},
		}
		fkTargets := []int{}
		if i > 0 {
			t1 := r.Intn(i)
			rel.Attributes = append(rel.Attributes,
				relstore.Attribute{Name: fmt.Sprintf("ref%d", t1)})
			rel.ForeignKeys = append(rel.ForeignKeys, relstore.ForeignKey{
				FromAttr:   fmt.Sprintf("ref%d", t1),
				ToRelation: fmt.Sprintf("s%d.r%d", t1, t1),
				ToAttr:     fmt.Sprintf("id%d", t1),
			})
			fkTargets = append(fkTargets, t1)
		}
		nRows := 12 + r.Intn(12)
		rows := make([][]string, nRows)
		for j := 0; j < nRows; j++ {
			row := make([]string, len(rel.Attributes))
			row[0] = pool[j%len(pool)]
			row[1] = words[r.Intn(len(words))] + fmt.Sprintf(" item %d", j)
			for k, tgt := range fkTargets {
				row[2+k] = pools[tgt][r.Intn(len(pools[tgt]))]
			}
			rows[j] = row
		}
		t, err := relstore.NewTable(rel, rows)
		if err != nil {
			panic(err)
		}
		tables = append(tables, t)
	}
	return tables
}

// canonicalRows renders a view's determined top-k answers independent of
// unified column order (the outer-union layout depends on branch order,
// which can legitimately differ between runs with different edge ids) and
// of tie-breaking at the k-th slot: rows costing exactly the k-th cost are
// summarised by their cost alone (which member of a tie enters the top-k is
// unspecified), while strictly-cheaper rows are compared in full, each as
// its sorted non-empty values.
func canonicalRows(v *View) string {
	m := v.Current()
	k := min(v.K, len(m.Result.Rows))
	if k == 0 {
		return ""
	}
	// The ambiguity boundary is the cost of the last RETAINED TREE, not the
	// k-th row: when several trees tie at the k-th tree slot, which of them
	// is retained (and hence which equal-cost rows exist at all) is
	// unspecified — and the two strategies legitimately have different
	// equal-cost trees available.
	kth := m.Result.Rows[k-1].Cost
	if len(m.Trees) > 0 {
		if c := m.Trees[len(m.Trees)-1].Cost; c < kth {
			kth = c
		}
	}
	rows := make([]string, 0, k)
	for _, r := range m.Result.Rows[:k] {
		if r.Cost >= kth-1e-9 {
			rows = append(rows, fmt.Sprintf("%.4f|<tied>", r.Cost))
			continue
		}
		var vals []string
		for _, x := range r.Values {
			if x != "" {
				vals = append(vals, x)
			}
		}
		sort.Strings(vals)
		rows = append(rows, fmt.Sprintf("%.4f|%s", r.Cost, strings.Join(vals, "|")))
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// viewBasedCase is one generated registration: a catalog, keyword views
// over it with their k, the new source's tables, and whether a second
// matcher (MAD, beside meta) aligns it, as on qserver and qshell.
type viewBasedCase struct {
	tables  []*relstore.Table
	queries []string
	k       int
	source  []*relstore.Table
	withMAD bool
	overlap bool // Options.ValueOverlapFilter
}

// newViewBasedCase draws one case from seed, of one of five shapes, with
// one matcher or two. The first is a small random catalog whose new
// source holds values of its first two relations, with two views at the
// default k. The others put one view's best tree through the new source:
// two detourCases, a fixpointCase and a bridgeCase.
func newViewBasedCase(seed int64) viewBasedCase {
	r := rand.New(rand.NewSource(seed))
	var c viewBasedCase
	switch r.Intn(5) {
	case 0:
		tables := randomCatalog(r, 5+r.Intn(3))
		idCol := fmt.Sprintf("id%d", r.Intn(3)) // name-similar to some id
		rows := [][]string{
			{tables[0].Rows[0][0], "alpha mention"},
			{tables[1].Rows[0][0], "beta mention"},
		}
		c = viewBasedCase{
			tables: tables,
			queries: []string{
				fmt.Sprintf("'%s' label", tables[0].Rows[0][0]),
				fmt.Sprintf("'%s' %s", tables[1].Rows[1][0], "alpha"),
			},
			k: defaultK,
			source: []*relstore.Table{mustTable(&relstore.Relation{Source: "fresh", Name: "data",
				Attributes: []relstore.Attribute{{Name: idCol}, {Name: "label"}}}, rows)},
		}
	case 1:
		c = detourCase(r, true)
	case 2:
		c = detourCase(r, false)
	case 3:
		c = fixpointCase(r)
	default:
		c = bridgeCase(r)
	}
	c.withMAD = r.Intn(2) == 0
	return c
}

// chainWorld builds the catalogs of detourCase, fixpointCase and
// bridgeCase: each relation name has chainRows rows, a key column
// name+"id" holding chainKey(name, x) in row x, and a column "at" that may
// name rows of another relation.
type chainWorld struct {
	r      *rand.Rand
	tables []*relstore.Table
}

const chainRows = 6

func chainKey(name string, x int) string { return fmt.Sprintf("%s_%03d", strings.ToUpper(name), x) }

// add appends relation name, whose row x names, unless to is "", row
// ref(x) of relation to.
func (w *chainWorld) add(name, to string, ref func(x int) int) {
	rel := &relstore.Relation{Source: "s" + name, Name: name,
		Attributes: []relstore.Attribute{{Name: name + "id"}, {Name: "at"}}}
	if to != "" {
		rel.ForeignKeys = []relstore.ForeignKey{{FromAttr: "at", ToRelation: "s" + to + "." + to, ToAttr: to + "id"}}
	}
	rows := make([][]string, chainRows)
	for x := range rows {
		rows[x] = []string{chainKey(name, x), ""}
		if to != "" {
			rows[x][1] = chainKey(to, ref(x))
		}
	}
	w.tables = append(w.tables, mustTable(rel, rows))
}

// chain adds c0 ← c1 ← … ← cl, row x of each naming row x of the one
// before, and returns the view joining row 1 of c0 to row 1 of cl along
// it, whose α is the chain's cost.
func (w *chainWorld) chain(l int) string {
	w.add("c0", "", nil)
	for m := 1; m <= l; m++ {
		w.add(fmt.Sprintf("c%d", m), fmt.Sprintf("c%d", m-1), func(x int) int { return x })
	}
	return fmt.Sprintf("'%s' '%s'", chainKey("c0", 1), chainKey(fmt.Sprintf("c%d", l), 1))
}

// distractors adds 2–6 relations naming random rows of a chain relation
// (c0 … cl), of an earlier distractor or of nothing, then shuffles the
// catalog.
func (w *chainWorld) distractors(l int) {
	random := func(int) int { return w.r.Intn(chainRows) }
	for d := range 2 + w.r.Intn(5) {
		switch m := w.r.Intn(l + 2 + d); {
		case m <= l:
			w.add(fmt.Sprintf("d%d", d), fmt.Sprintf("c%d", m), random)
		case m == l+1:
			w.add(fmt.Sprintf("d%d", d), "", nil)
		default:
			w.add(fmt.Sprintf("d%d", d), fmt.Sprintf("d%d", m-l-2), random)
		}
	}
	w.r.Shuffle(len(w.tables), func(i, j int) { w.tables[i], w.tables[j] = w.tables[j], w.tables[i] })
}

// newTable builds one table of the new source "fresh": column j is
// cols[j]+"id" and holds, in row x, vals[j](x).
func newTable(name string, cols []string, vals []func(x int) string) *relstore.Table {
	rel := &relstore.Relation{Source: "fresh", Name: name}
	for _, c := range cols {
		rel.Attributes = append(rel.Attributes, relstore.Attribute{Name: c + "id"})
	}
	rows := make([][]string, chainRows)
	for x := range rows {
		for _, v := range vals {
			rows[x] = append(rows[x], v(x))
		}
	}
	return mustTable(rel, rows)
}

// detourCase builds a chain c0 ← … ← cl (l is 4 or 5), a relation z
// naming rows of cl, and distractors. The one view, at k = 1, is the
// chain's: z, one hop past cl, and distractors far from the chain are
// outside its α-cost neighbourhood. The new source holds the view's c0
// value and names rows of z and, with viaChain, of cl-1. Aligning z gives
// the view a tree cheaper than the chain: with viaChain, z enters the
// neighbourhood once a round aligns the new source with cl-1; without it,
// only the bound on trees through the new source (addNeighborhood's
// case 1) finds z, since no aligned edge brings it within α of c0's
// keyword.
func detourCase(r *rand.Rand, viaChain bool) viewBasedCase {
	w := &chainWorld{r: r}
	l := 4 + r.Intn(2)
	view := w.chain(l)
	last := fmt.Sprintf("c%d", l)
	w.add("z", last, func(x int) int { return x })
	w.distractors(l)
	cols := []string{"c0", "z"}
	vals := []func(int) string{func(int) string { return chainKey("c0", 1) }, func(x int) string { return chainKey("z", x) }}
	if viaChain {
		prev := fmt.Sprintf("c%d", l-1)
		cols = append(cols, prev)
		vals = append(vals, func(x int) string { return chainKey(prev, x) })
	}
	return viewBasedCase{tables: w.tables, queries: []string{view}, k: 1,
		source: []*relstore.Table{newTable("links", cols, vals)}}
}

// fixpointCase builds a chain c0 ← … ← c5, pier naming rows of c2, span
// naming rows of pier and quay naming rows of span, and distractors. The
// one view, at k = 1, is the chain's. The new source has two tables:
// "from" holds the view's c0 value and names rows of pier, "to" names
// rows of c5 other than the view's and rows of quay. The tree c0 → from →
// pier → span → quay → to → c5 is cheaper than the chain. No bound puts
// quay, five joins from either keyword, among the first round's targets;
// the second round's does, over the edges the first aligned (from with
// pier, to with c5). With the value-overlap filter on, as in half of these
// cases, the matchers propose no edge between columns with no value in
// common.
func fixpointCase(r *rand.Rand) viewBasedCase {
	w := &chainWorld{r: r}
	view := w.chain(5)
	same := func(x int) int { return x }
	w.add("pier", "c2", same)
	w.add("span", "pier", same)
	w.add("quay", "span", same)
	w.distractors(5)
	return viewBasedCase{tables: w.tables, queries: []string{view}, k: 1, overlap: r.Intn(2) == 0,
		source: []*relstore.Table{
			newTable("from", []string{"head", "pier"}, []func(int) string{
				func(int) string { return chainKey("c0", 1) }, func(x int) string { return chainKey("pier", x) }}),
			newTable("to", []string{"tail", "quay"}, []func(int) string{
				func(x int) string { return chainKey("c5", 2+x%4) }, func(x int) string { return chainKey("quay", x) }}),
		}}
}

// bridgeCase builds a chain c0 ← … ← c5, a relation hub no other names,
// and distractors. The one view, at k = 1, is the chain's. The new source
// has two tables, "from" holding the view's c0 value and "to" its c5
// value, and each names rows of hub, which no keyword reaches but through
// the new source. The tree c0 → from → hub → to → c5 bridges: only the
// bound on such trees (addNeighborhood's case 2) makes hub a target.
func bridgeCase(r *rand.Rand) viewBasedCase {
	w := &chainWorld{r: r}
	view := w.chain(5)
	w.add("hub", "", nil)
	w.distractors(5)
	hub := func(x int) string { return chainKey("hub", x) }
	return viewBasedCase{tables: w.tables, queries: []string{view}, k: 1,
		source: []*relstore.Table{
			newTable("from", []string{"head", "hub"}, []func(int) string{func(int) string { return chainKey("c0", 1) }, hub}),
			newTable("to", []string{"tail", "hub"}, []func(int) string{func(int) string { return chainKey("c5", 1) }, hub}),
		}}
}

func mustTable(rel *relstore.Relation, rows [][]string) *relstore.Table {
	t, err := relstore.NewTable(rel, rows)
	if err != nil {
		panic(err)
	}
	return t
}

// registered is one registration of a viewBasedCase: the engine, its
// report, and each view's α before the registration (+Inf for a view
// short of its k answers, which any new tree may enter).
type registered struct {
	q      *Q
	rep    *RegisterReport
	alphas []float64
}

// register builds an engine with the case's matchers over its catalog,
// opens its views and registers the new source with strategy.
func (c viewBasedCase) register(t testing.TB, strategy AlignStrategy) registered {
	opts := DefaultOptions()
	opts.ValueOverlapFilter = c.overlap
	q := New(opts)
	q.AddMatcher(meta.New())
	if c.withMAD {
		q.AddMatcher(mad.New())
	}
	if err := q.AddTables(c.tables...); err != nil {
		t.Fatal(err)
	}
	var alphas []float64
	for _, qs := range c.queries {
		v, err := q.Query(Request{Keywords: ParseKeywords(qs), K: c.k})
		if err != nil {
			t.Fatalf("query %q: %v", qs, err)
		}
		m := v.Current()
		if len(m.Result.Rows) < m.K {
			alphas = append(alphas, math.Inf(1))
		} else {
			alphas = append(alphas, m.Alpha)
		}
	}
	rep, err := q.RegisterSource(c.source, strategy)
	if err != nil {
		t.Fatalf("register %s: %v", strategy, err)
	}
	return registered{q, rep, alphas}
}

// checkViewBased checks what VIEWBASEDALIGNER promises against EXHAUSTIVE
// for one registration (ex, vb) into the same world, returning how many
// association edges VIEWBASED has that EXHAUSTIVE lacks and whether (ii)
// exempted a tree:
//
//   - (i) every association edge EXHAUSTIVE has towards a relation
//     VIEWBASED compared, or between two old relations, VIEWBASED has
//     with every feature but another matcher's absent marker equal (with
//     one matcher, identical features);
//   - (ii) every tree of a view that costs less than the view's α before
//     the registration, under EXHAUSTIVE, uses only association edges
//     VIEWBASED has, unless the new source is one table and the tree
//     bridges (bridge);
//   - (iii) with one matcher, each view's i-th tree costs no more under
//     VIEWBASED than EXHAUSTIVE's i-th where that costs less than α, a
//     missing tree counting as +∞; where a tree (ii) exempts exists, for
//     the best tree only.
func checkViewBased(t testing.TB, ex, vb registered, oneMatcher bool) (extra int, exempt bool) {
	t.Helper()
	isNew := make(map[string]bool)
	for _, r := range vb.rep.NewRelations {
		isNew[r] = true
	}
	compared := make(map[string]bool)
	for _, r := range vb.rep.TargetsCompared {
		compared[r] = true
	}
	edges := func(q *Q) map[string]searchgraph.Edge {
		g := q.CurrentGraph()
		out := make(map[string]searchgraph.Edge)
		for _, a := range g.AssociationList() {
			out[relstore.CanonicalPair(a.A, a.B)] = g.Edge(a.ID)
		}
		return out
	}
	// uncompared reports whether e joins the new source to a relation
	// VIEWBASED did not compare, and returns that relation.
	uncompared := func(e searchgraph.Edge) (string, bool) {
		old := e.B.Relation
		if isNew[old] {
			old = e.A.Relation
		}
		return old, (isNew[e.A.Relation] || isNew[e.B.Relation]) && !compared[old]
	}
	exEdges, vbEdges := edges(ex.q), edges(vb.q)
	for key, e := range exEdges {
		old, skip := uncompared(e)
		if skip {
			continue
		}
		got, ok := vbEdges[key]
		if !ok {
			t.Errorf("EXHAUSTIVE edge %s, towards compared %s, missing under VIEWBASED", key, old)
			continue
		}
		if oneMatcher {
			if !maps.Equal(got.Features, e.Features) {
				t.Errorf("edge %s: VIEWBASED features %v, EXHAUSTIVE %v", key, got.Features, e.Features)
			}
			continue
		}
		// A matcher's endorsement that EXHAUSTIVE ranked out may stand
		// where EXHAUSTIVE has that matcher's absent marker.
		for f, x := range e.Features {
			name, absent := strings.CutSuffix(strings.TrimPrefix(f, "matcher:"), ":absent")
			if absent && got.Features[f] == 0 && hasBin(got.Features, name) {
				continue
			}
			if got.Features[f] != x {
				t.Errorf("edge %s: VIEWBASED features %v, EXHAUSTIVE %v", key, got.Features, e.Features)
				break
			}
		}
	}
	for key := range vbEdges {
		if _, ok := exEdges[key]; !ok {
			extra++
		}
	}
	exViews, vbViews := ex.q.Views(), vb.q.Views()
	for i, ev := range exViews {
		alpha := ex.alphas[i]
		m := ev.Current()
		bridged := false
		for j, tr := range m.Trees {
			if tr.Cost >= alpha-5e-10 {
				continue
			}
			if len(isNew) == 1 && bridge(m, tr, uncompared) {
				bridged, exempt = true, true
				continue
			}
			for _, id := range tr.Edges {
				e := m.m.ov.Edge(id)
				if _, skip := uncompared(e); skip && e.Kind == searchgraph.EdgeAssociation {
					t.Errorf("view %d: EXHAUSTIVE tree %d (cost %v < α %v) uses %s~%s, towards a relation VIEWBASED did not compare",
						i, j, tr.Cost, alpha, e.A, e.B)
				}
			}
		}
		if !oneMatcher {
			continue
		}
		et, vt := m.Trees, vbViews[i].Current().Trees
		for j, tr := range et {
			if tr.Cost >= alpha-5e-10 || bridged && j > 0 {
				break
			}
			if j >= len(vt) || vt[j].Cost > tr.Cost+1e-9 { // a missing tree costs +∞
				t.Errorf("view %d: tree %d costs more under VIEWBASED: EXHAUSTIVE's trees cost %v, VIEWBASED's %v (α %v)",
					i, j, treeCosts(et), treeCosts(vt), alpha)
				break
			}
		}
	}
	return extra, exempt
}

// hasBin reports whether features hold a confidence bin of the matcher.
func hasBin(features learning.Vector, matcher string) bool {
	for f := range features {
		if strings.HasPrefix(f, "matcher:"+matcher+":bin") {
			return true
		}
	}
	return false
}

// bridge reports whether tree tr of materialisation m bridges: some part
// of it left after removing its association edges towards relations
// VIEWBASED did not compare (uncompared) holds such a relation and no
// terminal, so the tree leaves the new source into relations no keyword
// touches and comes back. addNeighborhood bounds those trees for a source
// of several tables only (its case 2): with one table, each costs more
// than a tree that joins the bridge's ends inside it instead.
func bridge(m Materialization, tr steiner.Tree, uncompared func(searchgraph.Edge) (string, bool)) bool {
	parent := make(map[steiner.NodeID]steiner.NodeID)
	var find func(steiner.NodeID) steiner.NodeID
	find = func(v steiner.NodeID) steiner.NodeID {
		if p, ok := parent[v]; ok && p != v {
			root := find(p)
			parent[v] = root
			return root
		}
		return v
	}
	var ends []steiner.NodeID // each cut edge's end in a relation not compared
	for _, id := range tr.Edges {
		u, v := m.m.ov.Endpoints(id)
		e := m.m.ov.Edge(id)
		if old, skip := uncompared(e); skip && e.Kind == searchgraph.EdgeAssociation {
			if n := m.m.ov.Node(u); n.Kind == searchgraph.KindAttribute && n.Ref.Relation == old {
				ends = append(ends, u)
			} else {
				ends = append(ends, v)
			}
			continue
		}
		parent[find(u)] = find(v)
	}
	withTerminal := make(map[steiner.NodeID]bool)
	for _, term := range m.m.terminals {
		withTerminal[find(term)] = true
	}
	for _, end := range ends {
		if !withTerminal[find(end)] {
			return true
		}
	}
	return false
}

func treeCosts(trees []steiner.Tree) []float64 {
	out := make([]float64, len(trees))
	for i, tr := range trees {
		out[i] = tr.Cost
	}
	return out
}

// TestViewBasedEqualsExhaustiveRandomized is the Algorithm 2 guarantee as a
// randomized property over generated catalogs, keyword views and new
// sources, half of them aligned by meta and MAD. The top-Y budget is per
// new attribute per alignment round, so VIEWBASEDALIGNER, ranking fewer
// candidates, installs each matcher's EXHAUSTIVE endorsements towards the
// relations it compares and possibly more, and its targets hold every
// relation a view's tree below α can reach through the new source
// (checkViewBased); with one matcher, where VIEWBASED installed no edge
// that EXHAUSTIVE lacks and (ii) exempted no tree, every view has exactly
// the same top-k contents.
// It never does more work.
func TestViewBasedEqualsExhaustiveRandomized(t *testing.T) {
	for trial := range 256 {
		t.Run(fmt.Sprint(trial), func(t *testing.T) {
			c := newViewBasedCase(int64(1000 + trial))
			ex := c.register(t, Exhaustive)
			vb := c.register(t, ViewBased)
			if extra, exempt := checkViewBased(t, ex, vb, !c.withMAD); extra == 0 && !exempt && !c.withMAD {
				for i, ev := range ex.q.Views() {
					if er, vr := canonicalRows(ev), canonicalRows(vb.q.Views()[i]); er != vr {
						t.Errorf("view %d: contents diverge with no extra edge\nEXHAUSTIVE:\n%s\nVIEWBASED:\n%s",
							i, er, vr)
					}
				}
			}
			if vw, ew := vb.q.Stats.AttrComparisons(), ex.q.Stats.AttrComparisons(); vw > ew {
				t.Errorf("view-based did more work (%d > %d)", vw, ew)
			}
		})
	}
}

// FuzzViewBasedNeverCostlier fuzzes checkViewBased's edge and tree
// containment and cost dominance over newViewBasedCase's seed. The seeds
// draw each shape: a random catalog, a fixpointCase, a detourCase with
// and one without cl-1, and a bridgeCase.
func FuzzViewBasedNeverCostlier(f *testing.F) {
	for _, seed := range []int64{1000, 1001, 1005, 1007, 1009} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := newViewBasedCase(seed)
		checkViewBased(t, c.register(t, Exhaustive), c.register(t, ViewBased), !c.withMAD)
	})
}

// TestRegistrationEdgeBudget pins the top-Y budget of paper §3.2.3 at
// registration: one 3-attribute source registered EXHAUSTIVE with two
// matchers into catalogs of 8, 32 and 96 relations gains at most topY
// association edges per new attribute per matcher, so the edges it adds
// stay within 3 × 2 × topY whatever the catalog's size.
func TestRegistrationEdgeBudget(t *testing.T) {
	const attrs, matchers = 3, 2
	for _, n := range []int{8, 32, 96} {
		tables := randomCatalog(rand.New(rand.NewSource(7)), n)
		q := New(DefaultOptions())
		q.AddMatcher(meta.New())
		q.AddMatcher(mad.New())
		if err := q.AddTables(tables...); err != nil {
			t.Fatal(err)
		}
		before := q.CurrentGraph().Summary().ByEdgeKind[searchgraph.EdgeAssociation]
		var rows [][]string
		for i := range 6 {
			rows = append(rows, []string{tables[i%2].Rows[i][0], fmt.Sprintf("alpha item %d", i), tables[0].Rows[i][0]})
		}
		src := mustTable(&relstore.Relation{Source: "fresh", Name: "data",
			Attributes: []relstore.Attribute{{Name: "id1"}, {Name: "label"}, {Name: "ref0"}}}, rows)
		rep, err := q.RegisterSource([]*relstore.Table{src}, Exhaustive)
		if err != nil {
			t.Fatal(err)
		}
		g := q.CurrentGraph()
		degree := make(map[relstore.AttrRef]int)
		for _, a := range g.AssociationList() {
			for _, end := range []relstore.AttrRef{a.A, a.B} {
				if end.Relation == rep.NewRelations[0] {
					degree[end]++
				}
			}
		}
		if len(degree) != attrs {
			t.Errorf("%d relations: %d of %d new attributes aligned (%v)", n, len(degree), attrs, degree)
		}
		for attr, d := range degree {
			if d > matchers*topY {
				t.Errorf("%d relations: %s has %d association edges, budget %d per matcher", n, attr, d, topY)
			}
		}
		if added := g.Summary().ByEdgeKind[searchgraph.EdgeAssociation] - before; added > attrs*matchers*topY {
			t.Errorf("%d relations: registration added %d association edges, budget %d", n, added, attrs*matchers*topY)
		}
	}
}
