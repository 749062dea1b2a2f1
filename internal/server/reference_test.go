package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
)

// The HTTP face of core's reference oracle (TestEngineMatchesReference):
// random op lists go through ServeHTTP to a durable engine, and in step
// through core's API to a one-wide, in-memory reference engine. Every JSON
// answer, and the X-Q-Epoch it is stamped with, must be what the server
// would render from the reference.

// httpOp is one op the HTTP API exposes; A and B pick its arguments.
type httpOp struct {
	Kind httpOpKind
	A, B uint8
}

type httpOpKind uint8

const (
	httpRegister  httpOpKind = iota // POST /sources: strategy A%3, pool source B%6
	httpQuery                       // POST /query: query A, reversed when B is odd
	httpEphemeral                   // POST /query?ephemeral=1: as httpQuery
	httpFeedback                    // POST /views/{id}/feedback on view A: row B/2, valid when B is even
	httpDrop                        // DELETE /views/{id} of view A
	numHTTPOps
)

// randomHTTPOps draws n ops from seed, queries twice as often as the rest.
func randomHTTPOps(seed int64, n int) []httpOp {
	kinds := []httpOpKind{httpRegister, httpQuery, httpQuery, httpEphemeral, httpFeedback, httpFeedback, httpDrop}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]httpOp, n)
	for i := range ops {
		ops[i] = httpOp{Kind: kinds[rng.Intn(len(kinds))], A: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
	}
	return ops
}

// refSource is the i'th new source of the registration pool, as the wire
// carries it.
func refSource(i int, strategy string) RegisterRequest {
	return RegisterRequest{
		Source:   fmt.Sprintf("ext%d", i),
		Strategy: strategy,
		Tables: []TableSpec{{
			Name:       "citations",
			Attributes: []string{"pub_id", "cited_by", "note"},
			Rows: [][]string{
				{fmt.Sprintf("PUB%05d", 1+i%5), "PUB00002", "curated"},
				{"PUB00003", fmt.Sprintf("PUB%05d", 10+i), fmt.Sprintf("note %d", i)},
			},
		}},
	}
}

// loadInterPro gives q the matchers and the aligned InterPro-GO corpus.
func loadInterPro(t *testing.T, q *core.Q) {
	t.Helper()
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	if err := q.AddTables(datasets.InterProGO().Tables...); err != nil {
		t.Fatal(err)
	}
	if _, err := q.AlignAllPairs(); err != nil {
		t.Fatal(err)
	}
}

// rendered is the body writeJSON sends for v.
func rendered(v any) string {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		panic(err)
	}
	return b.String()
}

// answersOfMat is the oracle of answer bodies: the ViewAnswers whose
// encoding/json rendering writeAnswers must send, byte for byte, for one
// already-loaded materialisation m of v.
func answersOfMat(v *core.View, m core.Materialization) ViewAnswers {
	out := ViewAnswers{ViewSummary: summaryOfMat(v, m)}
	if m.Result == nil {
		return out
	}
	out.Columns = m.Result.Columns
	for _, row := range m.Result.Rows {
		out.Rows = append(out.Rows, AnswerRow{
			Values:     row.Values,
			Cost:       row.Cost,
			Provenance: row.Provenance,
		})
	}
	return out
}

// TestServerMatchesReference drives three seeded op lists through the HTTP
// API and the reference.
func TestServerMatchesReference(t *testing.T) {
	queries := datasets.InterProGO().Queries
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			opts := core.DefaultOptions()
			opts.DataDir = t.TempDir()
			live, err := core.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer live.Close()
			loadInterPro(t, live)
			srv := New(live)
			ref := func() *core.Q {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				return core.New(core.DefaultOptions())
			}()
			loadInterPro(t, ref)

			ran := make([]int, numHTTPOps)
			for i, o := range randomHTTPOps(seed, 30) {
				acted, err := stepHTTP(t, srv, ref, queries, o)
				if err != nil {
					t.Fatalf("op %d %+v: %v", i, o, err)
				}
				if acted {
					ran[o.Kind]++
				}
				// The registry as GET /views lists it.
				want := make([]ViewSummary, 0)
				for _, v := range ref.Views() {
					want = append(want, summaryOfMat(v, v.Current()))
				}
				if got := serve(t, srv, http.MethodGet, "/views", nil).Body.String(); got != rendered(want) {
					t.Fatalf("op %d %+v: GET /views\nlive:      %s\nreference: %s", i, o, got, rendered(want))
				}
			}
			for k, n := range ran {
				if n == 0 {
					t.Errorf("op kind %d never ran", k)
				}
			}
		})
	}
}

// stepHTTP applies one op through srv and to ref, and compares the answers.
// It reports whether the op acted: feedback and drops need a view.
func stepHTTP(t *testing.T, srv *Server, ref *core.Q, queries []string, o httpOp) (bool, error) {
	t.Helper()
	views := ref.Views()
	var view *core.View
	if len(views) > 0 {
		view = views[int(o.A)%len(views)]
	}
	switch o.Kind {
	case httpRegister:
		strategy := []string{"exhaustive", "viewbased", "preferential"}[o.A%3]
		req := refSource(int(o.B%6), strategy)
		w := serve(t, srv, http.MethodPost, "/sources", req)
		s, _ := parseStrategy(strategy)
		var tables []*relstore.Table
		for _, ts := range req.Tables {
			rel := &relstore.Relation{Source: req.Source, Name: ts.Name}
			for _, a := range ts.Attributes {
				rel.Attributes = append(rel.Attributes, relstore.Attribute{Name: a})
			}
			tb, err := relstore.NewTable(rel, ts.Rows)
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, tb)
		}
		rep, err := ref.RegisterSource(tables, s)
		if err != nil {
			return true, sameError(w.Code, w.Body.String(), http.StatusConflict, err)
		}
		return true, sameBody(w.Code, w.Body.String(), http.StatusCreated, RegisterResponse{
			Source:          rep.Source,
			NewRelations:    rep.NewRelations,
			TargetsCompared: rep.TargetsCompared,
			AttrComparisons: rep.AttrComparisons,
			Alignments:      rep.AlignmentsByPair,
		})
	case httpQuery, httpEphemeral:
		kws := core.ParseKeywords(queries[int(o.A)%len(queries)])
		if o.B%2 == 1 {
			slices.Reverse(kws)
		}
		q := "'" + strings.Join(kws, "' '") + "'"
		path, status := "/query", http.StatusCreated
		ephemeral := o.Kind == httpEphemeral
		if ephemeral {
			path, status = "/query?ephemeral=1", http.StatusOK
		}
		w := serve(t, srv, http.MethodPost, path, QueryRequest{Q: q})
		v, err := ref.Query(core.Request{Keywords: core.ParseKeywords(q), Ephemeral: ephemeral})
		if err != nil {
			return true, sameError(w.Code, w.Body.String(), http.StatusBadRequest, err)
		}
		return true, sameAnswers(w.Code, w.Header().Get("X-Q-Epoch"), w.Body.String(), status, v)
	case httpFeedback:
		if view == nil {
			return false, nil
		}
		row := int(o.B/2) % (len(view.Current().Result.Rows) + 1) // one past the end is refused
		kind, wire := core.FeedbackValid, "valid"
		if o.B%2 == 1 {
			kind, wire = core.FeedbackInvalid, "invalid"
		}
		w := serve(t, srv, http.MethodPost, "/views/"+viewID(view.ID)+"/feedback", FeedbackRequest{Row: row, Kind: wire})
		if err := ref.FeedbackRow(view, row, kind); err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, core.ErrRowOutOfRange) {
				status = http.StatusConflict
			}
			return true, sameError(w.Code, w.Body.String(), status, err)
		}
		return true, sameAnswers(w.Code, w.Header().Get("X-Q-Epoch"), w.Body.String(), http.StatusOK, view)
	case httpDrop:
		if view == nil {
			return false, nil
		}
		w := serve(t, srv, http.MethodDelete, "/views/"+viewID(view.ID), nil)
		want := http.StatusNotFound
		if ref.DropView(view.ID) {
			want = http.StatusNoContent
		}
		if w.Code != want {
			return true, fmt.Errorf("DELETE answered %d, the reference %d", w.Code, want)
		}
	}
	return true, nil
}

// sameAnswers compares a view answer with the reference view's rendering
// and epoch.
func sameAnswers(code int, epoch, body string, status int, v *core.View) error {
	m := v.Current()
	if want := strconv.FormatUint(m.Epoch, 10); epoch != want {
		return fmt.Errorf("X-Q-Epoch %s, the reference's epoch %s", epoch, want)
	}
	return sameBody(code, body, status, answersOfMat(v, m))
}

func sameBody(code int, body string, status int, want any) error {
	if code != status || body != rendered(want) {
		return fmt.Errorf("answered %d %s\nthe reference renders %d %s", code, body, status, rendered(want))
	}
	return nil
}

// sameError checks that a refusal carries the reference's error.
func sameError(code int, body string, status int, err error) error {
	var e struct{ Error string }
	if json.Unmarshal([]byte(body), &e) != nil || code != status || !strings.Contains(e.Error, err.Error()) {
		return fmt.Errorf("answered %d %s, the reference refused with %d %v", code, body, status, err)
	}
	return nil
}
