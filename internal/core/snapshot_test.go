package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
)

// The properties under test: Q's copy-on-write snapshots give every query
// SNAPSHOT ISOLATION. A query runs entirely against the state generation
// published when it started, so (1) a query concurrent with a registration
// or feedback update returns results byte-identical to EITHER a quiesced
// pre-mutation run or a quiesced post-mutation run — never a torn mix;
// (2) a query issued after a registration returns sees the new source; and
// (3) queries are stateless — a query's answer is a pure function of the
// published state, unaffected by whatever other queries ran before it.

// jrnlTables is the new source the isolation tests register mid-query: its
// pub identifiers overlap ip.pub, so alignment work (and new answers for
// pub-related keywords) actually happens.
func jrnlTables(t *testing.T) []*relstore.Table {
	t.Helper()
	return []*relstore.Table{mkTable(t,
		&relstore.Relation{Source: "jrnl", Name: "journal",
			Attributes: []relstore.Attribute{{Name: "pub_id"}, {Name: "journal_name"}}},
		[][]string{{"PUB0001", "Nature"}, {"PUB0002", "Science"}, {"PUB0003", "Cell"}})}
}

// TestSnapshotIsolationUnderRegistration hammers one instance with
// concurrent queries while a writer registers a new source, and demands
// every concurrent answer be byte-identical to a quiesced pre-registration
// or post-registration run. Run under -race this also proves the read path
// shares no mutable state with the writer.
func TestSnapshotIsolationUnderRegistration(t *testing.T) {
	const probe = "entry 'PUB0001'"

	q := newFixtureQ(t, true)
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())

	// Quiesced pre-mutation fingerprint.
	v, err := queryStr(q, probe)
	if err != nil {
		t.Fatal(err)
	}
	preFP := fingerprintView(v)
	q.DropView(v.ID)

	const readers = 8
	const perReader = 6
	fps := make([][]string, readers)
	errc := make(chan error, readers+1)
	var wg sync.WaitGroup
	start := make(chan struct{})

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for i := 0; i < perReader; i++ {
				qv, err := queryStr(q, probe)
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				fps[r] = append(fps[r], fingerprintView(qv))
				q.DropView(qv.ID)
			}
			errc <- nil
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if _, err := q.RegisterSource(jrnlTables(t), Exhaustive); err != nil {
			errc <- fmt.Errorf("writer: %v", err)
			return
		}
		errc <- nil
	}()
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Quiesced post-mutation fingerprint.
	v2, err := queryStr(q, probe)
	if err != nil {
		t.Fatal(err)
	}
	postFP := fingerprintView(v2)
	q.DropView(v2.ID)

	pre, post := 0, 0
	for r := range fps {
		for i, fp := range fps[r] {
			switch fp {
			case preFP:
				pre++
			case postFP:
				post++
			default:
				t.Fatalf("reader %d query %d: answer matches neither the quiesced pre-registration run nor the post-registration run\ngot:\n%s\npre:\n%s\npost:\n%s",
					r, i, fp, preFP, postFP)
			}
		}
	}
	t.Logf("concurrent queries: %d saw the pre-registration snapshot, %d the post-registration snapshot", pre, post)
	if pre+post != readers*perReader {
		t.Fatalf("accounted for %d of %d queries", pre+post, readers*perReader)
	}
}

// freshFindValues answers FindValues from a freshly built catalog over the
// same generation's tables: a reference independent of the published
// catalog's incrementally maintained segments.
func freshFindValues(t *testing.T, cat *relstore.Catalog, kw string) []relstore.ValueHit {
	t.Helper()
	ref := relstore.NewCatalog()
	for _, qn := range cat.RelationNames() {
		if err := ref.AddTable(cat.Table(qn)); err != nil {
			t.Fatal(err)
		}
	}
	return ref.FindValues(kw)
}

// TestIndexSnapshotIsolationUnderRegistration extends the snapshot suite to
// the inverted value index: keyword→value lookups issued through the
// published catalog while a registration is committing must answer from
// either the complete pre-registration index or the complete
// post-registration index — never a torn posting list (e.g. the new
// source's tables visible but unindexed, or half a segment). The probe
// keyword hits BOTH the fixture (ip.pub, ip.entry2pub) and the registering
// source (jrnl.journal), so a torn index would change the hit set.
func TestIndexSnapshotIsolationUnderRegistration(t *testing.T) {
	const probe = "PUB0001"

	q := newFixtureQ(t, true)
	q.AddMatcher(meta.New())

	fingerprint := func(hits []relstore.ValueHit) string { return fmt.Sprintf("%v", hits) }

	// Quiesced pre-registration answer, cross-checked against a freshly built
	// index so the fingerprints pin index content, not just stability.
	pre := q.CurrentCatalog().FindValues(probe)
	preFP := fingerprint(pre)
	if freshFP := fingerprint(freshFindValues(t, q.CurrentCatalog(), probe)); preFP != freshFP {
		t.Fatalf("pre-registration index diverges from a freshly built index\nindex: %s\nfresh: %s", preFP, freshFP)
	}
	if len(pre) == 0 {
		t.Fatal("probe keyword must hit the fixture catalog")
	}

	const readers = 8
	fps := make([][]string, readers)
	errc := make(chan error, readers+1)
	var wg sync.WaitGroup
	var warmed sync.WaitGroup // one pre-registration lookup per reader
	warmed.Add(readers)
	start := make(chan struct{})
	committed := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			fps[r] = append(fps[r], fingerprint(q.CurrentCatalog().FindValues(probe)))
			warmed.Done()
			for {
				// Load the catalog fresh each round: rounds straddle the
				// registration commit.
				fps[r] = append(fps[r], fingerprint(q.CurrentCatalog().FindValues(probe)))
				select {
				case <-committed:
					// One lookup strictly after the commit, so every reader
					// exercises the post-registration index too.
					fps[r] = append(fps[r], fingerprint(q.CurrentCatalog().FindValues(probe)))
					errc <- nil
					return
				default:
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(committed)
		<-start
		warmed.Wait() // every reader sees the pre-registration index first
		if _, err := q.RegisterSource(jrnlTables(t), Exhaustive); err != nil {
			errc <- fmt.Errorf("writer: %v", err)
			return
		}
		errc <- nil
	}()
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Quiesced post-registration answer, again pinned to a fresh index.
	post := q.CurrentCatalog().FindValues(probe)
	postFP := fingerprint(post)
	if freshFP := fingerprint(freshFindValues(t, q.CurrentCatalog(), probe)); postFP != freshFP {
		t.Fatalf("post-registration index diverges from a freshly built index\nindex: %s\nfresh: %s", postFP, freshFP)
	}
	if len(post) <= len(pre) {
		t.Fatalf("post-registration index must include the new source's hit: pre=%d post=%d", len(pre), len(post))
	}

	preN, postN := 0, 0
	for r := range fps {
		for i, fp := range fps[r] {
			switch fp {
			case preFP:
				preN++
			case postFP:
				postN++
			default:
				t.Fatalf("reader %d lookup %d: torn index state\ngot:  %s\npre:  %s\npost: %s",
					r, i, fp, preFP, postFP)
			}
		}
	}
	t.Logf("concurrent lookups: %d saw the pre-registration index, %d the post-registration index", preN, postN)
	if preN < readers || postN < readers {
		t.Fatalf("every reader must observe both sides of the commit: pre=%d post=%d", preN, postN)
	}
}

// TestMultiTableRegistrationSnapshotIsolation extends the snapshot suite to
// a registration of several tables: a lookup concurrent with the commit
// must see either the complete pre-registration world or the complete
// post-registration world — never a subset of the new source's tables
// (which is exactly what a torn publish would look like). The registering
// source carries the probe value in three tables so a torn state is
// observable.
func TestMultiTableRegistrationSnapshotIsolation(t *testing.T) {
	const probe = "PUB0001"

	q := fixtureQAtWidth(t, 7)

	// Three tables, one source, all matching the probe.
	newTables := []*relstore.Table{
		mkTable(t, &relstore.Relation{Source: "jx", Name: "journal",
			Attributes: []relstore.Attribute{{Name: "pub_id"}, {Name: "journal_name"}}},
			[][]string{{"PUB0001", "Nature"}, {"PUB0002", "Science"}}),
		mkTable(t, &relstore.Relation{Source: "jx", Name: "article",
			Attributes: []relstore.Attribute{{Name: "pub_id"}, {Name: "headline"}}},
			[][]string{{"PUB0001", "On Kringle domains"}}),
		mkTable(t, &relstore.Relation{Source: "jx", Name: "review",
			Attributes: []relstore.Attribute{{Name: "pub_id"}, {Name: "verdict"}}},
			[][]string{{"PUB0001", "accept"}, {"PUB0003", "revise"}}),
	}
	fingerprint := func(hits []relstore.ValueHit) string { return fmt.Sprintf("%v", hits) }
	pre := q.CurrentCatalog().FindValues(probe)
	preFP := fingerprint(pre)
	if len(pre) == 0 {
		t.Fatal("probe keyword must hit the fixture catalog")
	}

	const readers = 8
	fps := make([][]string, readers)
	errc := make(chan error, readers+1)
	var wg sync.WaitGroup
	var warmed sync.WaitGroup
	warmed.Add(readers)
	start := make(chan struct{})
	committed := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			fps[r] = append(fps[r], fingerprint(q.CurrentCatalog().FindValues(probe)))
			warmed.Done()
			for {
				fps[r] = append(fps[r], fingerprint(q.CurrentCatalog().FindValues(probe)))
				select {
				case <-committed:
					fps[r] = append(fps[r], fingerprint(q.CurrentCatalog().FindValues(probe)))
					errc <- nil
					return
				default:
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(committed)
		<-start
		warmed.Wait()
		if _, err := q.RegisterSource(newTables, Exhaustive); err != nil {
			errc <- fmt.Errorf("writer: %v", err)
			return
		}
		errc <- nil
	}()
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}

	post := q.CurrentCatalog().FindValues(probe)
	postFP := fingerprint(post)
	if freshFP := fingerprint(freshFindValues(t, q.CurrentCatalog(), probe)); postFP != freshFP {
		t.Fatalf("post-registration index diverges from a freshly built index\nindex: %s\nfresh: %s", postFP, freshFP)
	}
	newHits := 0
	for _, h := range post {
		if strings.HasPrefix(h.Ref.Relation, "jx.") {
			newHits++
		}
	}
	if newHits != len(newTables) {
		t.Fatalf("post-registration world must include all %d new tables' hits, got %d: %v",
			len(newTables), newHits, post)
	}

	preN, postN := 0, 0
	for r := range fps {
		for i, fp := range fps[r] {
			switch fp {
			case preFP:
				preN++
			case postFP:
				postN++
			default:
				t.Fatalf("reader %d lookup %d: torn state — neither the complete pre- nor post-registration world\ngot:  %s\npre:  %s\npost: %s",
					r, i, fp, preFP, postFP)
			}
		}
	}
	t.Logf("concurrent lookups: %d pre, %d post", preN, postN)
	if preN < readers || postN < readers {
		t.Fatalf("every reader must observe both sides of the commit: pre=%d post=%d", preN, postN)
	}
}

// TestQueriesSeeNewSourceAfterRegistration pins the visibility half of the
// snapshot contract: a query issued after RegisterSource returns must
// answer from the new source.
func TestQueriesSeeNewSourceAfterRegistration(t *testing.T) {
	q := newFixtureQ(t, true)
	q.AddMatcher(meta.New())

	// "Nature" exists only in the jrnl source; "PUB0001" ties it to ip.pub.
	const probe = "'Nature' 'PUB0001'"
	mentionsNature := func(v *View) bool {
		for _, row := range v.Current().Result.Rows {
			for _, val := range row.Values {
				if val == "Nature" {
					return true
				}
			}
		}
		return false
	}
	before, err := queryStr(q, probe)
	if err != nil {
		t.Fatal(err)
	}
	if mentionsNature(before) {
		t.Fatal("probe answer mentions the new source before registration")
	}
	if _, err := q.RegisterSource(jrnlTables(t), Exhaustive); err != nil {
		t.Fatal(err)
	}
	after, err := queryStr(q, probe)
	if err != nil {
		t.Fatal(err)
	}
	if !mentionsNature(after) {
		t.Fatal("query after registration does not see the new source")
	}
	// The pre-registration view was refreshed by the registration commit,
	// so it now sees the new source too.
	if !mentionsNature(before) {
		t.Error("persistent view was not refreshed onto the new snapshot")
	}
}

// TestWriterHammer runs queries against a storm of writers — repeated
// registrations and feedback — under -race. Every answer must still match
// one of the quiesced per-generation fingerprints implied by snapshot
// isolation; here we only demand queries never error and never observe an
// empty torn state, plus the race detector's word that no memory is shared
// unsynchronised.
func TestWriterHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test skipped in -short mode")
	}
	q := newFixtureQ(t, true)
	q.AddMatcher(meta.New())

	fv, err := queryStr(q, "'plasma membrane' 'Kringle domain'")
	if err != nil {
		t.Fatal(err)
	}

	const readers = 6
	errc := make(chan error, readers+1)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			probes := []string{"entry 'PUB0001'", "'plasma membrane' acc", "term name", "'Kringle domain' publication"}
			i := 0
			for {
				select {
				case <-stop:
					errc <- nil
					return
				default:
				}
				qv, err := queryStr(q, probes[(r+i)%len(probes)])
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				if qv.Current().Result == nil {
					errc <- fmt.Errorf("reader %d: torn view with nil result", r)
					return
				}
				q.DropView(qv.ID)
				i++
			}
		}(r)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		// Writers: a run of registrations interleaved with feedback.
		for i := 0; i < 4; i++ {
			src := fmt.Sprintf("hammer%d", i)
			tb := mkTable(t, &relstore.Relation{Source: src, Name: "data",
				Attributes: []relstore.Attribute{{Name: "pub_id"}, {Name: "note"}}},
				[][]string{{"PUB0001", fmt.Sprintf("note %d", i)}})
			if _, err := q.RegisterSource([]*relstore.Table{tb}, ViewBased); err != nil {
				errc <- fmt.Errorf("writer register %d: %v", i, err)
				return
			}
			if m := fv.Current(); len(m.Trees) > 1 {
				if err := q.FeedbackFavorTree(m, m.Trees[1]); err != nil {
					errc <- fmt.Errorf("writer feedback %d: %v", i, err)
					return
				}
			}
		}
		errc <- nil
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryStateless pins the ordering semantics the overlay design fixes:
// a query's answer is a pure function of the published state. Before
// per-query overlays, core.Query grew the shared graph (keyword nodes,
// value nodes, per-edge weights), so the SAME keyword query materialised
// differently — different tree ids, different tie-breaks — depending on
// which queries ran before it, and feedback interleaved between two
// identical queries compounded the drift. Now: byte-identical, in both
// directions.
func TestQueryStateless(t *testing.T) {
	const probe = "'plasma membrane' 'Kringle domain'"

	// Same instance: repeating a query with unrelated queries in between
	// must be byte-identical (no residue from other queries).
	q := newFixtureQ(t, true)
	v1, err := queryStr(q, probe)
	if err != nil {
		t.Fatal(err)
	}
	fp1 := fingerprintView(v1)
	for _, other := range []string{"entry 'PUB0001'", "term name", "publication title"} {
		if _, err := queryStr(q, other); err != nil {
			t.Fatal(err)
		}
	}
	v2, err := queryStr(q, probe)
	if err != nil {
		t.Fatal(err)
	}
	if fp2 := fingerprintView(v2); fp2 != fp1 {
		t.Errorf("same query diverged after unrelated queries ran\nfirst:\n%s\nsecond:\n%s", fp1, fp2)
	}

	// Two instances, different query order: the probe's answer must not
	// depend on what was asked before it.
	qa := newFixtureQ(t, true)
	qb := newFixtureQ(t, true)
	if _, err := queryStr(qa, "entry 'PUB0001'"); err != nil { // qa asks something else first
		t.Fatal(err)
	}
	va, err := queryStr(qa, probe)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := queryStr(qb, probe) // qb asks the probe first
	if err != nil {
		t.Fatal(err)
	}
	if fingerprintView(va) != fingerprintView(vb) {
		t.Error("query answer depends on which queries ran before it")
	}

	// Feedback interleaved between identical queries on two identical
	// instances must leave them in identical states: the post-feedback
	// probe answers are byte-identical across instances (reproducible
	// ordering semantics), even though feedback legitimately changes the
	// answer within each instance.
	q1 := newFixtureQ(t, true)
	q2 := newFixtureQ(t, true)
	run := func(q *Q) string {
		v, err := queryStr(q, probe)
		if err != nil {
			t.Fatal(err)
		}
		if m := v.Current(); len(m.Trees) > 1 {
			if err := q.FeedbackFavorTree(m, m.Trees[1]); err != nil {
				t.Fatal(err)
			}
		}
		v2, err := queryStr(q, probe)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprintView(v2)
	}
	if a, b := run(q1), run(q2); a != b {
		t.Errorf("identical feedback histories produced different states\nq1:\n%s\nq2:\n%s", a, b)
	}
}

// TestBaseGraphBytesStableAcrossQueries is the core-level metamorphic
// overlay check (the searchgraph-level one lives in that package): the
// persisted base-graph encoding must be byte-identical before and after a
// batch of queries — overlays never leak keyword or value state into the
// shared graph.
func TestBaseGraphBytesStableAcrossQueries(t *testing.T) {
	q := newFixtureQ(t, true)
	var before, after bytesBuffer
	if err := q.graph.Save(&before); err != nil {
		t.Fatal(err)
	}
	for _, probe := range []string{
		"'plasma membrane' 'Kringle domain'", "entry 'PUB0001'",
		"term name", "publication title", "'nucleus' acc",
	} {
		if _, err := queryStr(q, probe); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.graph.Save(&after); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Errorf("base graph bytes changed across queries\nbefore:\n%s\nafter:\n%s", before.String(), after.String())
	}
}

// bytesBuffer is a minimal strings.Builder-compatible io.Writer, avoiding
// an extra import cycle of bytes in this test file's imports.
type bytesBuffer struct{ b []byte }

func (w *bytesBuffer) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
func (w *bytesBuffer) String() string              { return string(w.b) }

// TestHeldMaterializationResolvesAcrossWrites pins that the calls taking a
// Materialization act on the one they are given, not on whatever the view
// was refreshed to since: a weight update and a registration commit (each
// refreshing the view) while readers explain m's rows and page m's k-best
// trees, and every answer stays the one computed before the writes. The
// feedback that follows names m's trees, whose ids resolve against m's
// overlay.
func TestHeldMaterializationResolvesAcrossWrites(t *testing.T) {
	q := newFixtureQ(t, true)
	v, err := q.Query(Request{Keywords: []string{"plasma membrane", "Kringle domain"}, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := v.Current()
	if len(m.Trees) < 2 || len(m.Result.Rows) == 0 {
		t.Fatalf("view has %d trees and %d rows, want at least 2 and 1", len(m.Trees), len(m.Result.Rows))
	}
	explained := make([]*Explanation, len(m.Result.Rows))
	for i, row := range m.Result.Rows {
		ex, err := q.Explain(m, i)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := m.m.treeOf(row.Branch); !reflect.DeepEqual(ex.Tree, want) {
			t.Fatalf("row %d explains tree %s, want m's tree %s", i, ex.Tree.Key(), want.Key())
		}
		explained[i] = ex
	}
	page := q.KBestTrees(m, m.K+2)

	check := func() error {
		for i := range m.Result.Rows {
			ex, err := q.Explain(m, i)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(ex, explained[i]) {
				return fmt.Errorf("row %d explains as\n%s\nwant\n%s", i, ex, explained[i])
			}
		}
		if got := q.KBestTrees(m, m.K+2); !reflect.DeepEqual(got, page) {
			return fmt.Errorf("KBestTrees(m) = %v, want the page read before the writes %v", got, page)
		}
		return nil
	}
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	done := make(chan struct{})
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := check(); err != nil {
					errc <- err
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	w := q.CurrentGraph().Weights().Clone()
	w["default"] += 0.5
	if err := q.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	if _, err := q.RegisterSource([]*relstore.Table{journalTable(t, "jrnl")}, ViewBased); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if err := check(); err != nil {
		t.Error(err)
	}
	if cur := v.Current(); cur.Epoch == m.Epoch {
		t.Fatalf("the writes left the view at epoch %d", m.Epoch)
	}
	epoch := q.Epoch()
	if err := q.FeedbackPreferTrees(m, m.Trees[len(m.Trees)-1], m.Trees[:len(m.Trees)-1]); err != nil {
		t.Fatalf("feedback on m's trees: %v", err)
	}
	if q.Epoch() == epoch {
		t.Error("feedback on m's trees committed nothing")
	}
}
