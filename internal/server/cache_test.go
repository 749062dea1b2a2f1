package server

import (
	"net/http"
	"strconv"
	"testing"
)

// TestEpochHeaderOnAnswers pins the X-Q-Epoch contract: every
// answer-carrying response names the published generation its answers were
// computed at, the header matches between POST /query and GET /views/{id}
// on a quiesced instance, and a write (feedback) moves it forward.
func TestEpochHeaderOnAnswers(t *testing.T) {
	ts := newTestServer(t)

	resp := postJSON(t, ts.URL+"/query", QueryRequest{Q: "'GO:0001000' 'fam_0'"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	queryEpoch := epochHeader(t, resp)
	if queryEpoch == 0 {
		t.Fatal("POST /query: X-Q-Epoch missing or zero")
	}
	var va ViewAnswers
	decode(t, resp, &va)

	getResp, err := http.Get(ts.URL + "/views/" + va.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := epochHeader(t, getResp); got != queryEpoch {
		t.Fatalf("GET /views/%s epoch = %d, want %d (no write in between)", va.ID, got, queryEpoch)
	}
	getResp.Body.Close()

	// Feedback is a write: its echo (and subsequent reads) must carry a
	// LATER epoch than the pre-write answers.
	fbResp := postJSON(t, ts.URL+"/views/"+va.ID+"/feedback", FeedbackRequest{Row: 0, Kind: "valid"})
	if fbResp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status = %d", fbResp.StatusCode)
	}
	fbEpoch := epochHeader(t, fbResp)
	fbResp.Body.Close()
	if fbEpoch <= queryEpoch {
		t.Fatalf("feedback epoch = %d, want > %d", fbEpoch, queryEpoch)
	}
}

func epochHeader(t *testing.T, resp *http.Response) uint64 {
	t.Helper()
	h := resp.Header.Get("X-Q-Epoch")
	if h == "" {
		return 0
	}
	e, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		t.Fatalf("bad X-Q-Epoch %q: %v", h, err)
	}
	return e
}

// TestStatsReportsCacheCounters pins the /stats cache block: after the
// same query twice, the materialisation cache must report at least one hit
// and one compute, and the epoch must be the published generation.
func TestStatsReportsCacheCounters(t *testing.T) {
	ts := newTestServer(t)

	// Twice the same query (a materialisation hit), then a different query
	// sharing a keyword (an expansion hit — a materialisation hit would
	// short-circuit before the expansion cache is consulted).
	for _, query := range []string{"'GO:0001000' 'fam_0'", "'GO:0001000' 'fam_0'", "'GO:0001000' 'fam_1'"} {
		resp := postJSON(t, ts.URL+"/query", QueryRequest{Q: query})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	decode(t, resp, &stats)
	if !stats.Cache.Enabled {
		t.Fatal("cache reported disabled under default options")
	}
	m := stats.Cache.Materialization
	if m.Hits < 1 {
		t.Errorf("materialization hits = %d, want >= 1 (second identical query)", m.Hits)
	}
	if m.Computes < 1 || m.Entries < 1 {
		t.Errorf("materialization computes=%d entries=%d, want >= 1 each", m.Computes, m.Entries)
	}
	if e := stats.Cache.Expansion; e.Hits < 1 {
		t.Errorf("expansion hits = %d, want >= 1", e.Hits)
	}
	if stats.Epoch == 0 {
		t.Error("stats epoch = 0, want the published generation")
	}
	if stats.Plan.BranchesPlanned < 1 {
		t.Errorf("plan branches_planned = %d, want >= 1", stats.Plan.BranchesPlanned)
	}
}
