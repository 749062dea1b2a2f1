// Command qserver runs Q as a long-lived HTTP service: the registration
// service of paper §3 plus keyword querying and feedback. It starts with
// one of the bundled corpora (or empty) and accepts new sources, queries
// and feedback over JSON.
//
//	qserver -addr :8080 -dataset interprogo
//	qserver -addr :8080 -data /var/lib/qint    # durable: survives restarts
//
//	curl -X POST localhost:8080/query -d '{"q":"'"'"'GO:0001000'"'"' '"'"'fam_0'"'"'"}'
//	curl localhost:8080/views
//	curl -X POST localhost:8080/sources -d @newsource.json
//
// With -data, the server opens the durable store in that directory: on a
// restart it maps the newest generation snapshot, replays the WAL tail, and
// skips the initial dataset load if the catalog already has relations.
// Every registration and feedback update is fsync'd to the WAL before its
// result is visible to queries; SIGINT/SIGTERM triggers a clean shutdown
// with a final checkpoint.
//
// Serving limits (see the internal/server package comment for the full
// 429/503 contract): -max-inflight bounds concurrent query executions,
// -write-queue bounds queued writes, -max-views caps the persistent view
// registry, and -max-body caps POST bodies (413 beyond it). The engine sizes
// its worker pools from GOMAXPROCS; set that environment variable to change
// its width (answers are identical at any width). The http.Server itself
// runs with read-header/read/write/idle timeouts so a slow or stalled client
// cannot wedge the accept loop. cmd/qload drives this server at a target QPS and
// reports latency percentiles against these limits.
//
// Observability: GET /metrics serves the engine and serving metric
// families in Prometheus text format; -slow-query logs every query whose
// wall time reaches the threshold, with its full stage breakdown; -pprof
// additionally mounts net/http/pprof under /debug/pprof/ (off by default —
// profiles expose internals, so opt in explicitly).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataset := flag.String("dataset", "interprogo", "initial corpus: interprogo, gbco or empty")
	dataDir := flag.String("data", "", "durable storage directory (empty = in-memory)")
	maxInflight := flag.Int("max-inflight", 0, "concurrent query admissions before 429 (0 = 4x GOMAXPROCS, min 16)")
	writeQueue := flag.Int("write-queue", 0, "queued-or-running writes before 503 (0 = 8)")
	maxViews := flag.Int("max-views", 0, "persistent view registry cap (0 = 10000)")
	maxBody := flag.Int64("max-body", 0, "POST body byte cap before 413 (0 = 8 MiB)")
	slowQuery := flag.Duration("slow-query", 0, "log queries at or over this wall time with their stage breakdown (0 = off)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	opts := core.DefaultOptions()
	opts.MaxViews = *maxViews // 0 keeps the default
	var q *core.Q
	var err error
	if *dataDir != "" {
		opts.DataDir = *dataDir
		q, err = core.Open(opts)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		q = core.New(opts)
	}
	// Matchers are code, not state: (re-)register them after Open.
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())

	if q.CurrentCatalog().NumRelations() > 0 {
		// The durable store already holds a catalog; do not re-load the
		// bootstrap dataset on top of it.
		log.Printf("recovered instance from %s (%d relations, %d attributes, %d views, epoch %d)",
			*dataDir, q.CurrentCatalog().NumRelations(), q.CurrentCatalog().NumAttributes(), len(q.Views()), q.WALEpoch())
	} else {
		switch *dataset {
		case "interprogo":
			c := datasets.InterProGO()
			if err := q.AddTables(c.Tables...); err != nil {
				log.Fatal(err)
			}
			if _, err := q.AlignAllPairs(); err != nil {
				log.Fatal(err)
			}
			log.Printf("loaded InterPro-GO (%d relations, %d attributes)",
				q.CurrentCatalog().NumRelations(), q.CurrentCatalog().NumAttributes())
		case "gbco":
			c := datasets.GBCO()
			if err := q.AddTables(c.Tables...); err != nil {
				log.Fatal(err)
			}
			log.Printf("loaded GBCO (%d relations, %d attributes)",
				q.CurrentCatalog().NumRelations(), q.CurrentCatalog().NumAttributes())
		case "empty":
			log.Printf("starting with an empty catalog; POST /sources to register data")
		default:
			log.Fatalf("unknown dataset %q", *dataset)
		}
	}

	var handler http.Handler = server.NewWith(q, server.Config{
		MaxInFlightQueries: *maxInflight,
		WriteQueueDepth:    *writeQueue,
		MaxBodyBytes:       *maxBody,
		SlowQueryThreshold: *slowQuery,
	})
	if *pprofOn {
		// Mount pprof beside the API explicitly (not via the blank-import
		// DefaultServeMux side effect) so it exists only when asked for.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("pprof enabled under /debug/pprof/")
	}
	// Hardened listener: a slow or stalled client gets a bounded slice of
	// the accept loop instead of wedging it. Request bodies are separately
	// capped by the handler's MaxBytesReader (-max-body).
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		// Final checkpoint: folds the WAL so the next start is a pure
		// snapshot load. A no-op for in-memory instances.
		if err := q.Close(); err != nil {
			log.Printf("close: %v", err)
		}
	}()

	log.Printf("Q registration service listening on %s", *addr)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
}
