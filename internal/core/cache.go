package core

import (
	"fmt"
	"sort"
	"strings"

	"qint/internal/obs"
	"qint/internal/qcache"
	"qint/internal/relstore"
	"qint/internal/text"
)

// The serving-layer query cache. Repeated keyword traffic is the shape of
// production load — few hot queries, many users — and against an unchanged
// source catalog the work is identical every time. Because every published
// state generation is immutable and epoch-stamped (the PR 2–4 machinery),
// a result computed at epoch e is a pure function of (e, key): cache
// entries keyed by epoch NEVER need invalidation — a registration or
// feedback write publishes a new epoch, under which every lookup misses,
// and dead-epoch entries age out of the LRU.
//
// Two computations are memoised, both strictly above the engine and both
// byte-identical to the uncached path (pinned by the metamorphic suite in
// cache_test.go):
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
//     any number of views and readers share one safely.
//
// A singleflight group in front of each cache collapses N concurrent
// identical misses into one computation (request coalescing): a thundering
// herd on a cold key costs one pipeline run, not N.
//
// Caching is gated on PUBLISHED generations only (qstate.published):
// registration runs keyword expansion against an unpublished interim state
// that reuses the previous epoch number, and caching those results would
// poison the cache for real queries at that epoch.

// valueMatch is one cached keyword→value expansion hit: everything
// expandKeyword needs to wire the overlay edge, with the similarity
// already scored and the threshold and truncation already applied.
type valueMatch struct {
	Ref   relstore.AttrRef
	Value string
	Sim   float64
}

// queryCaches bundles Q's per-instance serving caches (nil only on the
// uncached oracle engines of the tests).
//
// The caches belong to one Q, and every option that shapes an answer is
// fixed when New builds it (Load and Open build a new Q with new caches), so
// no options fingerprint is needed in the keys.
type queryCaches struct {
	exp  *qcache.Cache[[]valueMatch]
	expG qcache.Group[[]valueMatch]
	mat  *qcache.Cache[*viewMat]
	matG qcache.Group[*viewMat]
}

// The cache capacities, in entries. An expansion entry is one (epoch,
// normalised keyword): the scored, truncated value matches of that keyword.
// A materialisation entry is one (epoch, keyword sequence, k): the complete
// immutable materialisation — trees, queries, ranked result, α — and it
// pins its state generation in memory, hence the smaller capacity.
const (
	expansionCacheEntries       = 4096
	materializationCacheEntries = 256
)

// newQueryCaches wires the serving caches for one Q instance.
func newQueryCaches() *queryCaches {
	return &queryCaches{
		exp: qcache.New[[]valueMatch](expansionCacheEntries),
		mat: qcache.New[*viewMat](materializationCacheEntries),
	}
}

// setLiveEpoch announces a newly published generation to both caches so
// eviction prefers entries of superseded epochs.
func (qc *queryCaches) setLiveEpoch(epoch uint64) {
	if qc == nil {
		return
	}
	qc.exp.SetLiveEpoch(epoch)
	qc.mat.SetLiveEpoch(epoch)
}

// matCacheKey canonicalises a keyword query for the materialisation cache:
// the keyword sequence exactly as parsed (length-prefixed, so no keyword
// content can collide with the separators) plus k. Two query strings
// differing only in whitespace or quoting collapse to one entry; keyword
// ORDER is preserved — it feeds terminal order into the Steiner search, and
// the cached path must stay byte-identical to the uncached one, not merely
// equivalent.
func matCacheKey(keywords []string, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", k)
	for _, kw := range keywords {
		fmt.Fprintf(&b, "%d:%s", len(kw), kw)
	}
	return b.String()
}

// materializeCached is materializeAt behind the materialisation cache and
// its singleflight group: a hit returns the shared immutable viewMat, a
// miss computes once per in-flight key and caches the result. Unpublished
// interim states (and the tests' uncached engines) read straight through.
//
// A trace records the lookup as cache_lookup; a caller that coalesces onto
// another flight's compute records its blocked time as coalesced_wait
// (the pipeline spans land in the LEADER's trace — this caller did not run
// the pipeline), while the leader's own trace carries the stage spans the
// compute recorded into it.
func (q *Q) materializeCached(st *qstate, keywords []string, k int, tr *obs.Trace) (*viewMat, error) {
	qc := q.qc
	if qc == nil || !st.published {
		return q.materializeAt(st, keywords, k, tr)
	}
	key := qcache.Key{Epoch: st.epoch, K: matCacheKey(keywords, k)}
	tlook := tr.Now()
	m, ok := qc.mat.Get(key)
	tr.Record(obs.StageCacheLookup, tlook)
	if ok {
		return m, nil
	}
	// Between the miss above and the flight below another flight may have
	// completed and cached the key; the recompute is rare and benign (same
	// epoch, byte-identical result, idempotent Put).
	computed := false
	twait := tr.Now()
	m, err := qc.matG.Do(key, func() (*viewMat, error) {
		computed = true
		if h := q.matComputeHook; h != nil {
			h()
		}
		m, err := q.materializeAt(st, keywords, k, tr)
		if err != nil {
			return nil, err
		}
		qc.mat.Put(key, m)
		return m, nil
	})
	if !computed {
		tr.Record(obs.StageCoalescedWait, twait)
	}
	return m, err
}

// valueExpansions returns one keyword's value-match expansion — scored,
// thresholded and deterministically truncated — from the expansion cache
// when possible. The result is shared and must be treated as immutable.
func (q *Q) valueExpansions(st *qstate, kw string) []valueMatch {
	qc := q.qc
	if qc == nil || !st.published {
		return q.computeValueExpansions(st, kw)
	}
	key := qcache.Key{Epoch: st.epoch, K: text.Normalize(kw)}
	if v, ok := qc.exp.Get(key); ok {
		return v
	}
	v, err := qc.expG.Do(key, func() ([]valueMatch, error) {
		v := q.computeValueExpansions(st, kw)
		qc.exp.Put(key, v)
		return v, nil
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
// inverted value index (trigram + whole-token postings, per-table segments
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

// CacheCounters is one serving cache's activity counters. Hits and Misses
// count lookups; Computes counts pipeline executions that actually ran and
// Coalesced the concurrent identical misses that piggybacked on one
// (Misses ≈ Computes + Coalesced, modulo benign races); Evictions,
// Entries and LiveEpochs describe residency.
type CacheCounters struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Computes   uint64 `json:"computes"`
	Coalesced  uint64 `json:"coalesced"`
	Evictions  uint64 `json:"evictions"`
	Entries    int    `json:"entries"`
	LiveEpochs int    `json:"live_epochs"`
}

// CacheStats is a point-in-time snapshot of the serving-layer cache
// counters (all zero when the layer is disabled). Safe to call from any
// goroutine, concurrently with queries and writers.
type CacheStats struct {
	Enabled         bool          `json:"enabled"`
	Expansion       CacheCounters `json:"expansion"`
	Materialization CacheCounters `json:"materialization"`
}

// CacheStats snapshots the query-cache counters.
func (q *Q) CacheStats() CacheStats {
	qc := q.qc
	if qc == nil {
		return CacheStats{}
	}
	return CacheStats{
		Enabled:         true,
		Expansion:       countersOf(qc.exp.Counters(), &qc.expG),
		Materialization: countersOf(qc.mat.Counters(), &qc.matG),
	}
}

func countersOf[V any](c qcache.Counters, g *qcache.Group[V]) CacheCounters {
	return CacheCounters{
		Hits:       c.Hits,
		Misses:     c.Misses,
		Computes:   g.Execs(),
		Coalesced:  g.Coalesced(),
		Evictions:  c.Evictions,
		Entries:    c.Entries,
		LiveEpochs: c.LiveEpochs,
	}
}
