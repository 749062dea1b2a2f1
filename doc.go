// Package qint is a from-scratch Go reproduction of the Q data-integration
// system of Talukdar, Ives & Pereira, "Automatically Incorporating New
// Sources in Keyword Search-Based Data Integration" (SIGMOD 2010).
//
// The implementation lives under internal/ (internal/core/README.md holds
// the engine's design notes); cmd/ holds the executables and examples/ the
// runnable usage examples. cmd/qbench regenerates every table and figure of
// the paper's evaluation, and bench/ is the repository's benchmark.
//
// # Concurrency model
//
// The system is single-writer, many-query, built on copy-on-write
// snapshots of the shared read state.
//
// Writers — AddMatcher, AddTables, RegisterSource, AlignAllPairs,
// AddAssociations, SetWeights and feedback — serialise on core.Q's internal
// writer mutex. A writer mutates the private builder (catalog, tf-idf
// corpus, search graph) copy-on-write and ends in one commit step: it logs
// the write's record (durable engines), PUBLISHES the result as one
// immutable state generation via a single atomic pointer swap, and, when
// that made a new generation, refreshes every persistent view. A write
// that fails before the publish — its own error or a refused WAL append —
// rolls the builder back to the published generation, so nothing unlogged
// is ever published. Code outside internal/core reads the published
// generation (Q.CurrentCatalog, Q.CurrentGraph) and changes it only through
// the writers. The search graph's builder (searchgraph.Graph) freezes its
// storage when a snapshot is taken and clones it on the next mutation
// (O(V+E), once per write burst), bumping an epoch counter; the catalog is
// cloned shallowly the same way. The tf-idf corpus (text.Corpus) holds only
// each document's sorted tokens and one postings list per term, and derives
// every weight from (n, df) when a query scores; its clone copies the
// postings map with each list capped at its length, so the builder's next
// Add copies just the lists it extends. Nothing derived is cached, so no
// read ever rebuilds and a writer has nothing to flush before it publishes.
// Published generations are therefore frozen forever.
//
// Queries take NO lock at all. Q.Query, the one query entry point (a
// core.Request: keywords — core.ParseKeywords splits a query string — k,
// ephemeral, an optional trace), loads the current generation
// once, expands its keywords into a PRIVATE search-graph overlay
// (searchgraph.Overlay: the keyword nodes, keyword edges and lazily
// materialised value nodes of paper §2.2 — per-query state that never
// enters the shared base), and runs Steiner search, tree→query translation
// and branch execution entirely against that frozen generation. Any number
// of queries run fully concurrently with each other and with an in-flight
// registration or feedback update, with snapshot isolation: a query
// answers either entirely from the pre-write world or entirely from the
// post-write world, never a torn mix, and its answer is a pure function of
// the generation it loaded (no residue from earlier queries — see
// internal/core/snapshot_test.go, which pins all of this under -race).
//
// View materialisations are immutable and swapped atomically per view. A
// view is read through View.Current, one lock-free load of its
// Materialization. The refresh that ends every write rebuilds each view
// against the new generation with a fresh overlay; its Steiner search
// starts with the view's previous answer, re-priced in the new generation
// (searchgraph.Overlay.Reprice), as its limit, which prunes the search and
// never changes its answer. Overlay node/edge ids extend the base id
// spaces, so a tree or row id means something only against the
// materialisation it was read from: Explain, KBestTrees,
// NeighborhoodRelations and the tree-taking feedback calls take that
// Materialization and resolve against the overlay it retains (the overlay
// dies with it). FeedbackRow alone takes a view and a row index, as an
// HTTP request carries them, and reads the view's current materialisation.
//
// The engine sizes itself: core.New reads runtime.GOMAXPROCS(0) once into
// one width, and no option, method or request parameter selects another.
// The width sizes the refresh fan-out over persistent views, the
// registration-time index builds, a restore's decoding and indexing, and a
// global semaphore that bounds in-flight branch executions across all
// concurrent materialisations; it does not shape the catalog, and a
// restored snapshot takes the restoring process's width. Every fan-out —
// those above and the MAD and LP-ZGL sweeps — goes through one worker pool
// (internal/pool), which runs every index at every worker count, returns
// the lowest failing index's error and runs serially at one worker.
// Inside one materialisation the
// pipeline is serial: tree→query translation (a few microseconds a tree,
// less than a goroutine hand-off) and the order-sensitive passes (signature
// dedup, output-schema alignment, the top-k union) run in tree-cost order,
// so a view materialised at any width is byte-identical — trees, query
// signatures, ranked rows and α — to the one-wide result. The
// width oracles (internal/core/parallel_test.go) build engines under
// GOMAXPROCS 2, 7 and 8 and compare their views and registration reports
// with GOMAXPROCS 1 across the bundled corpora, and CI runs the core,
// server and qbench suites, the pool and the MAD sweeps under -cpu 1,4.
//
// # Value index
//
// Keyword→value matching (the lazily materialised value nodes of paper
// §2.2) runs on an incremental inverted index instead of scanning rows.
// Each table owns one immutable index segment: its distinct
// (attribute, value) entries with row counts and normalised forms, plus
// one flat posting index keyed by every character trigram of the
// normalised value. It is three arrays — the keys ascending (a trigram
// packed into one integer), one offset per key and one id array — so a
// segment's postings are a handful of allocations however many keys it
// holds, a lookup is a binary search, and a snapshot encodes the keys in
// stored order and decodes them without a per-key allocation. A keyword of
// three or more runes intersects its trigram posting lists and verifies
// the survivors with one substring check; shorter keywords fall back
// to verifying the segment's distinct entries directly — deterministic,
// and still never touching raw rows. The results are byte-identical to a
// full scan of every row (see Reference implementations below).
//
// The index is incremental and copy-on-write friendly: segments build once
// per table, at write time — relstore.Catalog.BuildValueIndex fans the new
// tables' builds across the worker pool, one task per table, and a restore
// installs the snapshot's segments verbatim — and Clone shares them, so a
// registration indexes only its own new tables and published snapshot
// generations keep reading frozen segments. An attribute's entries are its
// ascending distinct values, so the value sets of the value-overlap filter
// and of MAD's column–value graph are segment spans too.
//
// # Catalog
//
// relstore.Catalog is one partition of plain copy-on-write data: a table
// map, the registration order and each indexed table's immutable segment.
// Only the writers (AddTable, BuildValueIndex, LoadSegments) write it; a
// read never does, and a read that reaches an unindexed table (never the
// engine's) builds a throwaway segment and keeps nothing, so relstore holds
// no lock. Reads run serially over the tables in registration order and
// merge under total orders (hits by relation, attribute and value;
// attribute pairs in declaration order). Copy-on-write is an eager map
// copy: Clone copies the table map, the order and the segment map, so
// Clone is a pure read of its receiver, a registration writes only its own
// clone, and a lookup
// concurrent with a registration sees either the complete pre- or
// post-registration world, never a subset of the new tables
// (TestMultiTableRegistrationSnapshotIsolation). Persistence is unchanged:
// the catalog and segment sections are written in registration order.
//
// # Streaming execution
//
// Conjunctive-query branches — the SQL each Steiner tree translates into —
// execute through a streaming iterator pipeline (relstore.PlanBatch, then
// BatchPlan.TopKUnion, which compiles each branch it runs into a stream):
// table scan with pushed-down selections, hash-join probe against the
// joined-in atom's chained pre-sized build table (a nested loop only for
// the cross product of an atom no join connects), then projection with
// set-semantics
// deduplication, all flowing through one shared row buffer so no
// intermediate relation is ever materialised. The old
// materialise-everything executor survives only as a test oracle (see
// Reference implementations below).
//
// Row identity is collision-proof in the executor and its oracle: the
// oracle keys joins and dedup by a length-prefixed encoding
// (uvarint(len) ‖ bytes per value, prefix-free per field), and the
// streaming operators bucket by value hash and verify bucket hits against
// the values themselves — values containing NUL bytes, embedded spaces or
// empty strings can never merge distinct tuples (the row-identity bugs
// the streaming refactor fixed at the root).
//
// A view's branches stream into the ranked union with top-k early
// termination (relstore.BatchPlan.TopKUnion): branches run in tree-cost
// order, and once k collected rows have cost at or below a later branch's
// cost that branch is provably unbeatable (union rank is (cost, branch),
// all of a branch's rows share its cost) and is never executed. A view's
// result therefore holds exactly its top k rows — the paper's view is its
// top-k answers, and α is the k-th one's cost — byte-identical to the TopK(k)
// prefix of the full disjoint union, which now appears only in tests.
// Nothing downstream read the tail: the server shows TopK(k), learning
// reads trees, and the eval figures are unchanged. Feedback names a row of
// what the view holds, so a row index at or beyond k is ErrRowOutOfRange.
//
// # Structural join planning
//
// Branch execution is planned before it runs (relstore's planner). Planning
// binds every condition once (Validate first, so unknown aliases and
// attributes are rejected up front), pushes selections AND same-alias join
// conditions (`t.a = t.b` — self-filters the old join-binding loops silently
// dropped) down to their atom's scan, and orders the joins by one structural
// rule that reads no statistics. A branch query is a small
// select-project-join translated from one Steiner tree, so the rule only
// keeps the pipeline from starting on an unfiltered table when a filtered
// one exists, and from taking a cross product while a join condition
// connects: start at the lowest-index atom with a bound selection or a
// self-filter (atom 0 if none has one), then repeatedly join the unplaced
// atom that has a non-self join to the placed set, then one that is
// filtered, then the lowest-indexed. A hash join always builds on the atom
// that joins in and probes with the rows streaming from the left, whatever
// either side's size. Join order cannot change a single result byte — every
// ResultSet is sorted and set-deduplicated under one total order — so the
// planner is pinned byte-identical to the test oracle's naive
// first-connected order (see Reference implementations below). Each view
// materialisation plans its branch batch as one unit (relstore.PlanBatch),
// which validates every branch before any executes. Explain output names
// the ordering rule and one operator line per atom (scan, hash join, nested
// loop); Q.PlanStats (served on GET /stats) counts the branches planned.
//
// # Reference implementations
//
// Each read path has one production implementation; no option or build tag
// selects an older one. The implementations they replaced survive verbatim
// as test-only oracles, and an equivalence gate holds production to each
// byte for byte:
//
//   - the full-scan FindValues (internal/relstore/oracle_test.go), which
//     reads every row and which the inverted value index replaced. Gates: the
//     metamorphic suites in internal/relstore/valueindex_test.go and
//     FuzzFindValuesEquivalence on arbitrary keywords.
//   - scanValues and scanOverlap (internal/relstore/oracle_test.go), the
//     row-scan value sets the segment spans of Values, ValueOverlap and
//     OverlappingAttrPairs replaced. Gates: TestValueSetFromIndexSegments
//     and TestReadsNeverIndex on indexed and unindexed catalogs.
//   - executeOracle (internal/relstore/oracle_test.go), the
//     materialise-everything executor over the naive first-connected join
//     order: no planner, no streaming. Gates:
//     internal/relstore/stream_test.go and planner_test.go on randomised
//     catalogs and join shapes, and FuzzExecuteEquivalence and
//     FuzzPlanEquivalence on arbitrary row values, through Execute,
//     BatchPlan.Execute and BatchPlan.TopKUnion; ExecuteBatch, a helper
//     in the same test file, runs a whole BatchPlan without a bound and
//     is the reference TopKUnion's prefix is compared with. At the
//     pipeline level, internal/core/stream_test.go checks every view's result
//     against the top-k prefix of its branch queries executed one by one and
//     unioned in full, and every batched branch against its standalone
//     execution.
//   - postEntryOracle (internal/relstore/oracle_test.go), the value-index
//     posting build with a per-entry seen set and []rune-cut trigrams. Gate:
//     TestSegmentPostingsMatchOracle on random multi-byte tables.
//   - oracleTopKSteinerOn (internal/steiner/dpbf_oracle_test.go), the DPBF
//     search before the arena rewrite. Gates: TestTopKSteinerMatchesOracle
//     and FuzzTopKSteinerEquivalence.
//   - the map-based string measures (internal/text/oracle_test.go): n-gram
//     count maps, token-set maps and the DP-only edit distance, which the
//     prepared forms, merge joins and bit-parallel edit distance replaced;
//     and the metadata matcher scoring plain strings
//     (internal/matcher/meta/oracle_test.go). Gates: TestWrappersEqualOracles,
//     TestPreparedEqualOracles and FuzzEditDistance (== on float64), and
//     TestMatchEqualsOracle and FuzzNameSimilarity (the same alignments, in
//     order, on GBCO, InterPro+GO and synthetic relations).
//   - corpusOracle (internal/text/oracle_test.go), the tf-idf corpus with a
//     cached idf table and per-document vectors rebuilt after every Add,
//     which the postings corpus replaced. Gates: TestTfidfMatchesOracle
//     (random corpora and clone chains), TestVectorNormIsOrderFree
//     (shuffled insertion orders) and FuzzTopMatchesEquivalence: the same
//     matches, ties included, with bitwise-equal scores.
//   - oracleInternedUpdate (internal/learning/mira_oracle_test.go), the
//     MIRA update that interned every constraint's feature names, the
//     positivity constraints of all learnable edges included, on each call.
//     The search-graph builder now interns each edge's features once, when
//     the edge is made, over an append-only dictionary whose ids follow
//     first sight, not name order. Gates: TestUpdateMatchesInternedOracle
//     and FuzzUpdateEquivalence (the same keys, Float64bits-equal weights),
//     and TestInternedFeaturesTrackEdges in internal/searchgraph (every
//     learnable edge's entries render back to its features and price it at
//     EdgeCost, through every writer). The map-order update before both
//     stays too (TestUpdateMatchesOracle, within 1e-9).
//
// # Query cache and request coalescing
//
// A serving layer (internal/qcache) sits between the HTTP server and the
// engine, built on the observation that the snapshot machinery above makes
// caching trivially correct: every published generation is immutable and
// owns its caches, so any result cached in them is a pure function of
// that generation and its key and NEVER needs invalidation. A registration
// or feedback write publishes a new generation with new, empty caches, and
// the superseded generation's caches become garbage together with it — no
// purge, no refusal of late puts: a query still running against the old
// generation fills only the old caches (TestSupersededGenerationIsReleased,
// TestParkedQueryAnswersFromItsGeneration, TestHeldResultReleasesItsCaches).
// Two computations are
// memoised: keyword expansion (the scored, truncated keyword→value matches
// of one keyword, keyed by (epoch, normalised keyword) — valid because
// FindValues and the similarity scoring both normalise first) and full
// view materialisation (trees, conjunctive queries, ranked result and α,
// keyed by (epoch, keyword sequence, k); views
// sharing a key share one immutable materialisation, including across a
// refresh fan-out). Each cache coalesces its own misses: the first miss
// of a key leaves a pending entry that N-1 concurrent identical misses
// wait on, so a thundering herd on a cold key costs one pipeline run, not
// N.
//
// Cached answers are byte-identical to the uncached path at every epoch:
// the reference oracle (TestEngineMatchesReference in
// internal/core/reference_test.go) drives a cached engine and an uncached
// one through the same random op lists in lockstep and compares every view
// byte-for-byte after every op.
// Only published generations have caches: registration's unpublished
// interim states, which reuse the previous epoch number, read straight
// through. The capacities are fixed at 4096 expansion and 256
// materialisation entries per generation; Q.CacheStats exposes the
// engine's hits/misses/computes/coalesced/evictions totals and the live
// generation's entries and live epochs (at most 1 each).
//
// # Durable storage
//
// The same immutable epoch-stamped generations persist to disk
// (internal/storage, wired by core.Options.DataDir / core.Open): the data
// directory holds a MANIFEST naming the current generation — one snapshot
// (gen-<epoch>.snap) plus one epoch WAL (wal-<epoch>.log) — and recovery is
// storage.Open mapping the newest valid manifest generation and replaying
// the WAL tail. The snapshot is a binary offset-indexed section container
// (per-section and index CRCs, magic-framed) carrying the catalog, the
// built inverted value-index segments VERBATIM, the search graph with its
// learned weights, and the persistent view definitions. The catalog,
// segment and graph sections are binary (internal/binio's primitives; the
// graph writes each feature name once, in a dictionary its edges index),
// so loading is a read plus slice re-pointing, not a re-index or a JSON
// parse. The segments section (QSEGb3) points into the catalog instead of
// repeating it: a value is the row that first carries it, a normalised
// value is written only when it differs and a trigram key is a delta of
// gram codes, so it is well under half the bytes of the retired QSEGb1
// layout. A restore that meets a section in a retired layout (QSEGb1, or
// QSEGb2, which also carried whole-token postings) indexes those tables
// from their rows instead.
// A restore installs the segments while a second goroutine, at every
// engine width, decodes the graph and the WAL tail and then indexes the
// tail's tables; the tail applies in epoch order beside that indexing
// (replay reads no values), and the views rematerialise in the refresh
// that ends every write, without counting them as queries (bench/'s write_churn and ingest_restart workloads
// measure recovery; qint_recovery_stage_seconds_total splits a restore
// into open, catalog, decode, replay, index and views).
//
// Durability is log-then-publish: every write but AddMatcher (AddTables,
// RegisterSource, AlignAllPairs, AddAssociations, SetWeights, feedback) is
// appended to the WAL as one length-prefixed, CRC-checked, epoch-stamped
// record and fsync'd BEFORE the writer publishes the new generation to
// readers, so any state a query could ever observe is already durable; a
// write whose append fails returns the error and is rolled back. There is
// one record kind, a binary payload (the retired JSON kind is refused at
// Open by name). It carries mutation EFFECTS, not operations: the tables
// that entered the catalog, in the catalog section's table codec, every
// association edge the write added or merged into with its final feature
// vector, its names indices into the record's dictionary, and the
// weight-vector delta (feedback's MIRA update, SetWeights), each optional.
// Replay applies them in that order, record by record in epoch order, and
// needs no matchers (they are code, re-registered after
// Open; AddMatcher installs only missing weights, so re-registering changes
// nothing) and no MIRA, and reproduces the builder state exactly
// (the reference oracle, internal/core/reference_test.go, pins restart ≡
// rebuild byte-for-byte).
// Snapshots publish by write-temp → fsync → atomic-rename, the manifest is
// replaced only after the files it names are durable, and recovery
// truncates a torn final WAL record: crash injection at every byte
// boundary (internal/storage/storage_test.go, TestDurableCrashInjection)
// lands on exactly the last committed epoch. A background checkpointer
// folds the WAL into a fresh snapshot past 1 MiB; Close checkpoints once
// more so a clean restart is a pure snapshot load, and refuses every later
// write with core.ErrClosed. cmd/qserver -data serves a durable instance.
//
// The container is the one persistence format. core.(*Q).Save writes the
// same bytes a checkpoint publishes as gen-<epoch>.snap, to any writer, and
// core.Load(r, opts) restores one through the same code path as Open (minus
// the WAL): an in-memory instance for tools such as qshell's save/load.
// Options are never persisted; both take them from the caller (the paper's
// fixed k, Y and t are constants in core, not options). Matchers are
// code, not state: re-register them after Load or Open.
//
// The HTTP layer (internal/server) inherits the model directly: POST
// /query is a pure read and takes no server lock (a long registration
// never blocks it); POST /sources and feedback serialise inside Q; the
// server keeps no view state and takes no lock — Q is the one view
// registry, and a view's wire ID is "v" plus its core.View.ID, which Q
// hands out in creation order, never reuses, and persists with the view
// definitions (snapshot meta), so an ID names the same view across
// restarts. Answer-carrying responses (POST /query,
// GET /views/{id}, the feedback echo) carry an X-Q-Epoch header naming the
// published generation the answers were computed at, so HTTP clients can
// run their own epoch-keyed caches on the same no-invalidation contract —
// identical queries at the same epoch are byte-identical, and a higher
// epoch signals a published write. GET /stats reports the cache counters.
//
// # Serving limits and load measurement
//
// The server bounds its own resource usage instead of letting traffic
// size it (server.Config; every knob is a qserver flag):
//
//   - POST /query admissions are capped at MaxInFlightQueries; over-limit
//     queries are shed immediately with 429 + Retry-After, before any
//     engine work, so overload cannot pile up goroutines behind the
//     executor. 429 means "the same request is fine, offered load is too
//     high right now" — back off and retry.
//   - Writes (POST /sources, feedback) pass a bounded admission queue of
//     depth WriteQueueDepth; beyond it they are shed with 503 +
//     Retry-After. 503 (not 429) because writes are not idempotent:
//     whether to re-submit is the client's decision once the queue
//     drains.
//   - No request sizes the engine's fan-out: the engine takes its width
//     from GOMAXPROCS. POST bodies beyond MaxBodyBytes get
//     413 via http.MaxBytesReader; cmd/qserver runs its http.Server with
//     read-header/read/write/idle timeouts so slow clients cannot wedge
//     the accept loop.
//   - POST /query?ephemeral=1 computes answers without registering a view,
//     and DELETE /views/{id} drops a registered one; the registry itself
//     is capped at core.Options.MaxViews (core.ErrViewLimit, 429 at the
//     cap; qserver -max-views). A query storm cannot grow server memory
//     without bound. A query of more than steiner.MaxExactTerminals (20)
//     keywords gets 400 (core.ErrTooManyKeywords) before any engine work.
//   - Feedback naming a row the view's current materialisation does not
//     have gets 409 Conflict, not 400: every weight update rematerialises
//     every view, so a row index read moments ago can be stale through no
//     fault of the client's. Re-read the view (the 409 carries the
//     current X-Q-Epoch) and resubmit.
//
// Shed/served/in-flight/queue-depth counters are served under "serving"
// on GET /stats. cmd/qload (internal/loadgen) is the open-loop load
// harness for this contract: it fires a Zipfian keyword stream (plus an
// optional registration/feedback write mix) at a target QPS, measures
// latency from each request's SCHEDULED send time into an
// HdrHistogram-style log-linear histogram — so a stalled server is
// charged for its backlog instead of quietly slowing the client
// (coordinated omission) — and reports p50/p99/p999, achieved QPS, shed
// and error counts, and X-Q-Epoch churn as a table plus BENCH_qload.json,
// the per-PR perf-trajectory artifact CI uploads.
//
// # Observability
//
// One registry, one tracer (internal/obs — a standard-library-only leaf
// package, so every layer hooks in without import cycles). Each core.Q
// owns an obs.Registry created at construction; every engine counter the
// system ever maintained (alignment Stats, planner PlanStats, cache
// CacheStats, executor and top-k totals) now lives IN the registry, with
// the legacy accessors kept as views over the same atomics — no number is
// accounted twice. The server layers its serving families (served/shed
// counters, in-flight and queue-depth gauges, uptime, build info) onto the
// same registry and serves the whole set on GET /metrics in Prometheus
// text exposition format 0.0.4. Registration is idempotent (same
// name+labels returns the same counter; callback gauges replace), so
// layers can be torn down and rebuilt over one engine.
//
// Per-query stage tracing is opt-in per call: a core.Request carrying a
// caller-owned obs.Trace threads it through the pipeline, which marks the
// end of each stage — cache_lookup, coalesced_wait (when the cache
// parked the request on an identical in-flight computation), expand,
// steiner, translate, plan, execute, materialize. A mark adds the time
// since the previous mark (or since the trace started) to its stage, so
// the stages partition the traced time up to the last mark: on the server
// cache_lookup also holds keyword parsing and the start of Query. The
// trace is a fixed per-stage record of times and mark counts, no list.
// Every instrument is valid as a nil pointer and no-ops disabled, so the
// untraced path (a nil Request.Trace) pays one nil check per
// stage and zero clock reads. Traced wall time feeds the
// qint_query_duration_seconds summary and the per-stage
// qint_query_stage_seconds_total counters; the HTTP server traces every
// query, stamps the response with its id (X-Q-Trace), and with a
// slow-query threshold configured (server.Config.SlowQueryThreshold,
// qserver -slow-query) logs any query at or over it with its full stage
// breakdown. qserver -pprof mounts net/http/pprof under /debug/pprof/
// (explicitly, off by default). qload scrapes /metrics after a run into
// BENCH_qload.json, and the CI smoke fails the build if the exposition is
// unparseable or missing a core family. internal/core/README.md lists the
// metric families and trace stages; the reference oracle
// (internal/core/reference_test.go) traces every query of its live engine
// and pins that tracing never changes a single view byte.
package qint
