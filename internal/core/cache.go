package core

import (
	"sort"
	"strconv"

	"qint/internal/obs"
	"qint/internal/qcache"
	"qint/internal/relstore"
	"qint/internal/text"
)

// The serving-layer query cache. Repeated keyword traffic is the shape of
// production load — few hot queries, many users — and against an unchanged
// source catalog the work is identical every time. Every published state
// generation is immutable and owns its caches (qstate.qc): publishLocked
// attaches a fresh, empty set to each new generation, so an entry is a pure
// function of that generation and its key and can never go stale. A
// registration or feedback write publishes a new generation, whose lookups
// all miss; the superseded generation's caches become garbage together with
// it, as soon as no in-flight query holds that qstate. Nothing purges,
// refuses or invalidates.
//
// Two computations are memoised, both strictly above the engine and both
// byte-identical to the uncached path (pinned by the reference oracle,
// TestEngineMatchesReference, against an uncached engine):
//
//   - keyword expansion: the keyword→value matches of one keyword
//     (FindValues + similarity scoring + deterministic truncation), keyed
//     by (epoch, normalised keyword). Valid because FindValues and
//     ContainmentSimilarity both normalise their keyword first, so the
//     expansion is a pure function of the normalised form.
//   - view materialisation: the complete materialisation of one keyword
//     query (trees, conjunctive queries, ranked result, α, overlay), keyed
//     by (epoch, keyword sequence, k). A cached *viewMat is immutable after
//     construction — overlays are only ever mutated during expansion — so
//     any number of views and readers share one safely. The one thing it
//     gains later is its answer bytes (Materialization.AppendRendered):
//     the server renders a result on every read until its second, and the
//     bytes kept then, installed atomically, serve every later read of any
//     view that shares the entry.
//
// Each cache's miss path (qcache.Cache.Do) collapses N concurrent identical
// misses into one computation (request coalescing): a thundering herd on a
// cold key costs one pipeline run, not N.
//
// Registration runs keyword expansion against interim, unpublished states
// (unpublishedStateLocked), which have no caches and read straight through.

// valueMatch is one cached keyword→value expansion hit: everything
// expandKeyword needs to wire the overlay edge, with the similarity
// already scored and the threshold and truncation already applied.
type valueMatch struct {
	Ref   relstore.AttrRef
	Value string
	Sim   float64
}

// queryCaches bundles one published generation's serving caches. Every
// option that shapes an answer is fixed when New builds the Q, so no
// options fingerprint is needed in the keys.
type queryCaches struct {
	exp *qcache.Cache[[]valueMatch]
	mat *qcache.Cache[*viewMat]
}

// The cache capacities, in entries. An expansion entry is one (epoch,
// normalised keyword): the scored, truncated value matches of that keyword.
// A materialisation entry is one (epoch, keyword sequence, k): the complete
// immutable materialisation — trees, queries, ranked result, α, overlay —
// far larger than an expansion, hence the smaller capacity. Both bound one
// generation's caches.
const (
	expansionCacheEntries       = 4096
	materializationCacheEntries = 256
)

// newQueryCaches builds a new generation's empty caches, counting into the
// engine's registry so the totals survive every publish.
func newQueryCaches(m *engineMetrics) *queryCaches {
	qc := &queryCaches{
		exp: qcache.New[[]valueMatch](expansionCacheEntries),
		mat: qcache.New[*viewMat](materializationCacheEntries),
	}
	qc.exp.Instrument(m.expHits, m.expMisses, m.expComputes, m.expCoalesced, m.expEvictions)
	qc.mat.Instrument(m.matHits, m.matMisses, m.matComputes, m.matCoalesced, m.matEvictions)
	return qc
}

// matCacheKey canonicalises a keyword query for the materialisation cache:
// the keyword sequence exactly as parsed (length-prefixed, so no keyword
// content can collide with the separators) plus k. Two query strings
// differing only in whitespace or quoting collapse to one entry; keyword
// ORDER is preserved — it feeds terminal order into the Steiner search, and
// the cached path must stay byte-identical to the uncached one, not merely
// equivalent.
func matCacheKey(keywords []string, k int) string {
	var buf [128]byte // holds most keys, so the string is the one allocation
	b := append(strconv.AppendInt(buf[:0], int64(k), 10), '|')
	for _, kw := range keywords {
		b = append(strconv.AppendInt(b, int64(len(kw)), 10), ':')
		b = append(b, kw...)
	}
	return string(b)
}

// materializeCached is materializeAt behind the materialisation cache: a
// hit returns the shared immutable viewMat, a miss computes once per key
// (concurrent misses wait on the one computation) and keeps the result in
// st's own caches. A state without caches (an unpublished interim state,
// or a generation of the tests' uncached engines) reads straight through.
// prev is materializeAt's: it never changes the answer, so the key ignores
// it.
//
// A trace marks cache_lookup after the lookup, so the stage also holds
// everything the trace saw before it; a caller that waits on another
// caller's compute marks its blocked time as coalesced_wait (the pipeline
// stages land in the LEADER's trace — this caller did not run the
// pipeline), while the leader's own trace carries the stages the compute
// marked into it.
func (q *Q) materializeCached(st *qstate, keywords []string, k int, prev *viewMat, tr *obs.Trace) (*viewMat, error) {
	qc := st.qc
	if qc == nil {
		return q.materializeAt(st, keywords, k, prev, tr)
	}
	key := qcache.Key{Epoch: st.epoch, K: matCacheKey(keywords, k)}
	m, ok := qc.mat.Get(key)
	tr.Mark(obs.StageCacheLookup)
	if ok {
		return m, nil
	}
	m, waited, err := qc.mat.Do(key, func() (*viewMat, error) {
		if h := q.matComputeHook; h != nil {
			h()
		}
		return q.materializeAt(st, keywords, k, prev, tr)
	})
	if waited {
		tr.Mark(obs.StageCoalescedWait)
	}
	return m, err
}

// valueExpansions returns one keyword's value-match expansion — scored,
// thresholded and deterministically truncated — from the expansion cache
// when possible. The result is shared and must be treated as immutable.
func (q *Q) valueExpansions(st *qstate, kw string) []valueMatch {
	qc := st.qc
	if qc == nil {
		return q.computeValueExpansions(st, kw)
	}
	key := qcache.Key{Epoch: st.epoch, K: text.Normalize(kw)}
	if v, ok := qc.exp.Get(key); ok {
		return v
	}
	v, _, err := qc.exp.Do(key, func() ([]valueMatch, error) {
		return q.computeValueExpansions(st, kw), nil
	})
	if err != nil {
		// Only possible when a coalesced leader panicked; don't silently
		// drop this keyword's value matches — compute them here (any panic
		// then surfaces in, and is attributed to, this goroutine).
		return q.computeValueExpansions(st, kw)
	}
	return v
}

// computeValueExpansions is the uncached expansion: the data-value half of
// expandKeyword (paper §2.1/§2.2). FindValues answers from the catalog's
// inverted value index (trigram postings, per-table segments
// shared across copy-on-write generations).
func (q *Q) computeValueExpansions(st *qstate, kw string) []valueMatch {
	hits := st.cat.FindValues(kw)
	if len(hits) > maxMatchesPerKeyword {
		// Prefer exact-normalised matches, then fewer-row (more selective)
		// values, for determinism under truncation.
		nkw := text.Normalize(kw)
		sort.SliceStable(hits, func(i, j int) bool {
			ei := text.Normalize(hits[i].Value) == nkw
			ej := text.Normalize(hits[j].Value) == nkw
			if ei != ej {
				return ei
			}
			return hits[i].Rows < hits[j].Rows
		})
		hits = hits[:maxMatchesPerKeyword]
	}
	out := make([]valueMatch, 0, len(hits))
	for _, h := range hits {
		sim := text.ContainmentSimilarity(kw, h.Value)
		if sim < matchThreshold {
			continue
		}
		out = append(out, valueMatch{Ref: h.Ref, Value: h.Value, Sim: sim})
	}
	return out
}

// CacheStats is a point-in-time snapshot of the serving-layer cache
// counters. Hits, Misses, Computes, Coalesced and Evictions are engine
// totals across every generation; Entries and LiveEpochs describe the
// live generation's caches. Safe to call from any goroutine, concurrently
// with queries and writers.
type CacheStats struct {
	Enabled         bool            `json:"enabled"`
	Expansion       qcache.Counters `json:"expansion"`
	Materialization qcache.Counters `json:"materialization"`
}

// CacheStats snapshots the query-cache counters (all zero on the tests'
// uncached engines).
func (q *Q) CacheStats() CacheStats {
	qc := q.state().qc
	if qc == nil {
		return CacheStats{}
	}
	return CacheStats{
		Enabled:         true,
		Expansion:       qc.exp.Counters(),
		Materialization: qc.mat.Counters(),
	}
}
