package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"qint/internal/core"
	"qint/internal/relstore"
)

// raceEnabled is set by race_test.go under the race detector, which drops
// sync.Pool entries at random and so changes allocation counts.
var raceEnabled bool

// answerBodyCase builds a view and a materialisation from fuzz input: two
// strings that fill every string field, two floats (alpha and the costs),
// the view ID and k, and shape bits that choose nil or empty for Keywords,
// Columns, Rows and Values, and a missing result.
func answerBodyCase(s1, s2 string, alpha, cost float64, id int64, k int, shape uint8) (*core.View, core.Materialization) {
	pick := func(bit uint8, ss ...string) []string {
		switch {
		case shape&bit == 0:
			return ss
		case shape&(bit<<1) == 0:
			return []string{}
		}
		return nil
	}
	v := &core.View{ID: id, Keywords: pick(1, s1, s2, s1+s2), K: k}
	m := core.Materialization{Alpha: alpha}
	if shape&0x80 != 0 {
		return v, m
	}
	r := &relstore.UnionResult{Columns: pick(4, s2, s1)}
	if shape&0x10 == 0 {
		r.Rows = []relstore.UnionRow{
			{Values: pick(16, s1, s2), Cost: cost, Provenance: s1},
			{Values: pick(32, s2), Cost: -cost, Provenance: s2},
			{Values: []string{s1 + "<&>" + s2}, Cost: cost * 1e-9, Provenance: ""},
		}
	} else if shape&0x20 == 0 {
		r.Rows = []relstore.UnionRow{}
	}
	m.Result = r
	return v, m
}

// FuzzAnswerBody: the hand-written answer body is byte for byte what
// encoding/json writes for the answersOfMat oracle, and it refuses exactly
// the inputs encoding/json refuses (a non-finite alpha or cost).
func FuzzAnswerBody(f *testing.F) {
	strs := []string{
		"", "plain", "<script>&amp;</script>", "\x00\x01\x1f\x7f", "\b\f\n\r\t\"\\/",
		"\xff\xfe", "a\xc3", "\u2028\u2029", "\u00e9\u65e5\u672c\U0001F600", "\xed\xa0\x80", "ends\\",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1e-7, 1e-6, 9.999999e-7, 1e21, 9.99e20, 1e20,
		5e-324, 2.2250738585072014e-308, -1.5, 123456789.125, 1e-300, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for i, s := range strs {
		f.Add(s, strs[(i+3)%len(strs)], floats[i%len(floats)], floats[(i+5)%len(floats)], int64(i-1), i, uint8(i*37))
	}
	for i, x := range floats {
		f.Add("GO:0001000", "fam_0", x, floats[(i+1)%len(floats)], int64(i), 10, uint8(i*53))
	}
	f.Fuzz(func(t *testing.T, s1, s2 string, alpha, cost float64, id int64, k int, shape uint8) {
		v, m := answerBodyCase(s1, s2, alpha, cost, id, k, shape)
		var want strings.Builder
		werr := json.NewEncoder(&want).Encode(answersOfMat(v, m))
		got := appendAnswers([]byte("prefix"), v, m)
		switch {
		case werr != nil && got != nil:
			t.Fatalf("encoding/json refuses (%v), the appender wrote %q", werr, got)
		case werr == nil && got == nil:
			t.Fatalf("the appender refused, encoding/json writes %q", want.String())
		case werr == nil && string(got) != "prefix"+want.String():
			t.Fatalf("appender:      %q\nencoding/json: %q", got, "prefix"+want.String())
		}
	})
}

// TestRepeatedReadsMatchReference: the first, second (where the bytes are
// kept) and third GET of one view, and eight concurrent GETs of a view no
// one has read, all send the reference body.
func TestRepeatedReadsMatchReference(t *testing.T) {
	q := core.New(core.DefaultOptions())
	loadInterPro(t, q)
	srv := New(q)
	get := func(v *core.View) {
		t.Helper()
		w := serve(t, srv, http.MethodGet, "/views/"+viewID(v.ID), nil)
		if want := rendered(answersOfMat(v, v.Current())); w.Code != http.StatusOK || w.Body.String() != want {
			t.Errorf("GET: %d %s\nreference: %s", w.Code, w.Body.String(), want)
		}
	}

	v, err := q.Query(core.Request{Keywords: core.ParseKeywords("'GO:0001000' 'fam_0'")})
	if err != nil {
		t.Fatal(err)
	}
	m := v.Current()
	if len(m.Result.Rows) == 0 {
		t.Fatal("the view has no rows")
	}
	for read := 1; read <= 3; read++ {
		get(v)
		if read == 2 {
			// Kept: a render that fails the test is never called.
			kept := m.AppendRendered(nil, func([]byte, *relstore.UnionResult) []byte {
				t.Fatal("rendered again after the second read")
				return nil
			})
			if want := appendRows(nil, m.Result); string(kept) != string(want) {
				t.Fatalf("kept %q, want %q", kept, want)
			}
		}
	}

	fresh, err := q.Query(core.Request{Keywords: core.ParseKeywords("'GO:0001000' term")})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get(fresh)
		}()
	}
	wg.Wait()
}

// discardWriter is a ResponseWriter that keeps its header map and counts
// body bytes, so that allocation counts see only the handler's own.
type discardWriter struct {
	h http.Header
	n int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }

// TestKeptAnswersAllocs: once a materialisation's bytes are kept, sending
// its answers allocates at most one object (the Content-Type header value).
func TestKeptAnswersAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	q := core.New(core.DefaultOptions())
	loadInterPro(t, q)
	v, err := q.Query(core.Request{Keywords: core.ParseKeywords("'GO:0001000' 'fam_0'")})
	if err != nil {
		t.Fatal(err)
	}
	m := v.Current()
	w := &discardWriter{h: make(http.Header)}
	writeAnswers(w, http.StatusOK, v, m)
	writeAnswers(w, http.StatusOK, v, m) // the second read keeps the bytes
	if got := testing.AllocsPerRun(100, func() { writeAnswers(w, http.StatusOK, v, m) }); got > 1 {
		t.Fatalf("writing kept answers: %v allocations, want at most 1", got)
	}
	if want := len(rendered(answersOfMat(v, m))); w.n != 103*want {
		t.Fatalf("wrote %d bytes over 103 writes, want %d each", w.n, want)
	}
}

// TestNonFiniteIsServerError: a value JSON cannot carry is answered 500
// with a JSON error, from writeJSON and from the answer writer alike, and
// never as a success with a truncated or empty body.
func TestNonFiniteIsServerError(t *testing.T) {
	orig := logf
	logf = func(string, ...interface{}) {}
	defer func() { logf = orig }()

	v := &core.View{ID: 3, Keywords: []string{"a"}, K: 2}
	nanCost := core.Materialization{Alpha: 1, Result: &relstore.UnionResult{
		Columns: []string{"c"},
		Rows:    []relstore.UnionRow{{Values: []string{"x"}, Cost: 1}, {Values: []string{"y"}, Cost: math.NaN()}},
	}}
	cases := map[string]func(http.ResponseWriter){
		"writeJSON NaN": func(w http.ResponseWriter) {
			writeJSON(w, http.StatusOK, map[string]float64{"cost": math.NaN()})
		},
		"answers NaN alpha": func(w http.ResponseWriter) {
			writeAnswers(w, http.StatusOK, v, core.Materialization{Alpha: math.NaN()})
		},
		"answers Inf alpha": func(w http.ResponseWriter) {
			writeAnswers(w, http.StatusCreated, v, core.Materialization{Alpha: math.Inf(-1)})
		},
		"answers NaN cost": func(w http.ResponseWriter) { writeAnswers(w, http.StatusOK, v, nanCost) },
	}
	for name, write := range cases {
		w := httptest.NewRecorder()
		write(w)
		var e struct{ Error string }
		if w.Code != http.StatusInternalServerError || w.Header().Get("Content-Type") != "application/json" ||
			json.Unmarshal(w.Body.Bytes(), &e) != nil || e.Error == "" {
			t.Errorf("%s: answered %d %q %s, want 500 with a JSON error", name, w.Code, w.Header().Get("Content-Type"), w.Body.String())
		}
	}
}
