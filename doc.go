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
// (O(V+E), once per write burst), bumping an epoch counter; the catalog and
// corpus are cloned shallowly the same way. Published generations are
// therefore frozen forever.
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
// View materialisations are immutable and swapped atomically per view:
// Trees/Queries/Result/Alpha read the latest generation lock-free, and
// View.Current returns all of them as one coherent snapshot. The refresh
// that ends every write rebuilds each view against the new generation with
// a fresh overlay. Overlay node/edge ids extend the base
// id spaces, so a view's provenance (explain, feedback) resolves against
// the overlay retained by its materialisation; the overlay dies with it.
//
// The engine sizes itself: core.New reads runtime.GOMAXPROCS(0) once into
// one width, and no option, method or request parameter selects another.
// The width sizes the catalog's shards (also when a snapshot is restored),
// the refresh fan-out over persistent views, the registration-time index
// builds, and a global semaphore that bounds in-flight branch executions
// across all concurrent materialisations. Inside one materialisation the
// pipeline is serial: tree→query translation (a few microseconds a tree,
// less than a goroutine hand-off) and the order-sensitive passes (signature
// dedup, output-schema alignment, the top-k union) run in tree-cost order,
// so a view materialised at any width is byte-identical — trees, query
// signatures, ranked rows and α — to the one-wide result. The
// width oracles (internal/core/parallel_test.go and shard_test.go) build
// engines under GOMAXPROCS 2, 7 and 8 and compare them with GOMAXPROCS 1
// across the bundled corpora, and CI runs the relstore, core and server
// suites under -cpu 1,4.
//
// # Value index
//
// Keyword→value matching (the lazily materialised value nodes of paper
// §2.2) runs on an incremental inverted index instead of scanning rows.
// Each table owns one immutable index segment: its distinct
// (attribute, value) entries with row counts and normalised forms, plus
// posting lists keyed by every character trigram and every whole token of
// the normalised value. A keyword of three or more runes intersects its
// trigram posting lists and verifies the survivors with one substring
// check (entries on the keyword's whole-token list skip even that);
// shorter keywords fall back to verifying the segment's distinct entries
// directly — deterministic, and still never touching raw rows. The results
// are byte-identical to a full scan of every row (see Reference
// implementations below).
//
// The index is incremental and copy-on-write friendly: segments build once
// per table — fanned across the worker pool at registration time, sharded
// by table, or lazily on first lookup — and the segment cache is shared
// across relstore.Catalog.Clone, so a registration indexes only its own
// new tables and published snapshot generations keep reading frozen
// segments (the same sharing pattern as the lazy ValueSet cache, which
// itself now derives attribute value sets from built segments instead of
// re-scanning rows).
//
// # Sharded catalog
//
// The catalog itself is hash-partitioned: relstore.Catalog divides its
// tables by qualified-name hash into N shards (N is the engine width,
// GOMAXPROCS), each owning its own table map, lazy distinct-value cache and
// immutable value-index segments. Catalog-wide operations fan out one
// worker per shard — keyword→value lookups (FindValues), value-index builds
// and the value-overlap pair generation that prunes registration-time
// alignment comparisons (per attribute, at most one worker per shard) —
// and merge under deterministic total orders, so the shard count never
// changes a single byte of any answer: the metamorphic suites
// (internal/relstore/shard_test.go at shard counts {1, 2, 7, GOMAXPROCS},
// internal/core/shard_test.go at widths {1, 2, 7, 8}) pin byte-identical
// FindValues hits, alignment scores and materialised views under -race,
// and native fuzz targets (FuzzNormalize, FuzzFindValuesEquivalence) hold
// scan, single-shard index and sharded index to the same answer on
// arbitrary keywords.
//
// Sharding composes with the copy-on-write machinery: Clone copies only the
// shard-pointer slice, the per-shard caches stay shared, and the first
// AddTable into a shard after a Clone copies just that shard's table map —
// so a registration touches only the shards its new tables hash into while
// every published generation keeps reading frozen shards, and a lookup
// concurrent with a registration sees either the complete pre- or
// post-registration world across ALL shards, never a torn subset
// (TestShardedRegistrationSnapshotIsolation). Catalog persistence is
// shard-agnostic: a snapshot saved at one width restores at the restoring
// process's width with byte-identical answers
// (TestEngineWidthFollowsGOMAXPROCS).
//
// # Streaming execution
//
// Conjunctive-query branches — the SQL each Steiner tree translates into —
// execute through a streaming iterator pipeline (relstore.BuildStream):
// table scan with pushed-down selections, hash-join probe against the
// joined-in atom's chained pre-sized build table (nested-loop for
// similarity-only and cross joins), then projection with set-semantics
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
// # Cost-based join planning and cross-branch CSE
//
// Branch execution is planned before it runs (relstore's planner). Planning
// binds every condition once (Validate first, so unknown aliases and
// attributes are rejected up front), pushes selections AND same-alias join
// conditions (`t.a = t.b` — self-filters the old join-binding loops silently
// dropped) down to their atom's scan, estimates each atom's post-selection
// cardinality exactly from the value index's per-segment statistics (the
// distinct-value entries with row counts that already serve FindValues;
// binary search per equality selection, a normalised sweep per containment —
// segments cover non-empty values only, an estimation caveat, never a result
// error), and orders the joins greedily by estimated intermediate
// cardinality, System-R style: start at the smallest estimated atom, then
// repeatedly join the connected atom minimising |current| x |candidate| x
// join selectivity (1/max(distinct) per equi-join, a fixed 1/2 per similarity
// join), hash builds on the smaller input. Join order cannot change a single
// result byte — every ResultSet is sorted and set-deduplicated under one
// total order — so the planner is pinned byte-identical to the test oracle's
// naive first-connected order (see Reference implementations below). Ties
// break on a canonical atom key, so branches whose aliases differ still
// choose aligned orders.
//
// On top of the per-branch plan, each view materialisation plans its branch
// batch as one unit (relstore.PlanBatch): join prefixes shared across
// branches are detected by a position-anchored canonical signature (relation,
// bound conditions and intra-prefix joins per step — alias-independent), and
// every prefix shared by two or more branches is materialised ONCE into a
// per-materialisation subplan cache; the other branches replay the pinned
// rows through their remaining operators (common-subexpression elimination).
// The CSE scope is one materialisation — cached rows never outlive the
// catalog generation that produced them; caching ACROSS materialisations is
// the epoch-keyed query cache's job below. Explain output names the ordering
// mode and per-step operators with estimated cardinalities; Q.PlanStats
// (served on GET /stats) accumulates branches planned/reordered (against the
// naive order), shared subtrees, subplans computed and CSE hits.
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
//     shard_test.go, and FuzzFindValuesEquivalence on arbitrary keywords.
//   - executeOracle (internal/relstore/oracle_test.go), the
//     materialise-everything executor over the naive first-connected join
//     order: no planner, no streaming, no subplan sharing. Gates:
//     internal/relstore/stream_test.go and planner_test.go on randomised
//     catalogs, join shapes and shard counts, and FuzzExecuteEquivalence and
//     FuzzPlanEquivalence on arbitrary row values, through Execute,
//     BatchPlan.Execute and BatchPlan.TopKUnion (the test-only
//     ExecuteBatch runs a whole BatchPlan without a bound). At the
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
//
// # Query cache and request coalescing
//
// A serving layer (internal/qcache) sits between the HTTP server and the
// engine, built on the observation that the snapshot machinery above makes
// caching trivially correct: every published generation is immutable and
// epoch-stamped, so any result computed at epoch e is a pure function of
// (e, key) and a cache entry keyed by epoch NEVER needs invalidation — a
// registration or feedback write publishes a new epoch, under which every
// lookup misses, and dead-epoch entries age out (the sharded LRU's
// eviction prefers entries from superseded epochs). Two computations are
// memoised: keyword expansion (the scored, truncated keyword→value matches
// of one keyword, keyed by (epoch, normalised keyword) — valid because
// FindValues and the similarity scoring both normalise first) and full
// view materialisation (trees, conjunctive queries, ranked result and α,
// keyed by (epoch, keyword sequence, k); views
// sharing a key share one immutable materialisation, including across a
// refresh fan-out). A singleflight layer coalesces N concurrent identical
// misses into one pipeline run — a thundering herd on a cold key costs
// one computation, not N.
//
// Cached answers are byte-identical to the uncached path at every epoch:
// the metamorphic suite in internal/core/cache_test.go drives a cached and
// a cold engine through the same randomised query/registration/feedback
// stream in lockstep under -race and compares every view byte-for-byte,
// and caching is gated to PUBLISHED generations only (registration's
// unpublished interim states bypass it). The capacities are fixed at 4096
// expansion and 256 materialisation entries; Q.CacheStats exposes
// hits/misses/computes/coalesced/evictions/live epochs.
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
// learned weights, and the persistent view definitions; loading is a read
// plus slice re-pointing, not a re-index (bench/'s ingest_restart workload
// measures recovery).
//
// Durability is log-then-publish: every write but AddMatcher (AddTables,
// RegisterSource, AlignAllPairs, AddAssociations, SetWeights, feedback) is
// appended to the WAL as one length-prefixed, CRC-checked, epoch-stamped
// record and fsync'd BEFORE the writer publishes the new generation to
// readers, so any state a query could ever observe is already durable; a
// write whose append fails returns the error and is rolled back. There is
// one record kind. It carries mutation EFFECTS, not operations: the tables
// that entered the catalog, every association edge the write added or
// merged into with its final feature vector, and the weight-vector delta
// (feedback's MIRA update, SetWeights), each optional. Replay applies them
// in that order and needs no matchers (they are code, re-registered after
// Open; AddMatcher installs only missing weights, so re-registering changes
// nothing) and no MIRA, and reproduces the builder state exactly
// (internal/core/durable_test.go pins restart ≡ rebuild byte-for-byte).
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
//     without bound. A query of more than 64 keywords gets 400 before any
//     engine work.
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
// caller-owned obs.Trace threads it through the pipeline, which records
// one span per stage — cache_lookup, coalesced_wait (when the
// singleflight layer parked the request behind an identical in-flight
// computation), expand, steiner, translate, plan, execute, materialize.
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
// metric families and trace stages; internal/core/obs_test.go pins
// metamorphically that tracing never changes a single view byte.
package qint
