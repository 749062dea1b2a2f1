// Command qload is the open-loop load harness for a running qserver: it
// fires a Zipfian-skewed keyword-query stream (optionally mixed with
// source registrations and feedback writes) at a target QPS and reports
// coordinated-omission-safe latency percentiles (p50/p90/p99/p999/max,
// measured from each request's SCHEDULED send time), achieved QPS,
// shed counts (429 admission / 503 backpressure), error counts, and
// X-Q-Epoch churn — as a human table on stdout and as machine-readable
// JSON (-out BENCH_qload.json, the per-PR perf-trajectory artifact CI
// uploads).
//
//	qserver -addr :8080 -dataset gbco &
//	qload -url http://127.0.0.1:8080 -dataset gbco -qps 200 -duration 10s
//
// Queries default to the bundled corpus workloads (-dataset interprogo
// uses the documented InterPro-GO two-keyword queries, -dataset gbco the
// GBCO query-log trials); -queries overrides with a comma-separated list.
// Queries are sent with ?ephemeral=1 by default so a load run does not
// grow the server's view registry (-persistent to opt out). -register and
// -feedback divert those fractions of operations to the write path.
//
// After the run qload scrapes the server's GET /metrics exposition and
// folds it into the report (family/sample counts, per-family totals for
// the core families), so BENCH_qload.json carries the server-side view of
// the run next to the client-side latencies. -metrics=false skips the
// scrape (e.g. against a server without the endpoint).
//
// Exit status is non-zero with -fail-5xx if the run saw any 5xx response
// or transport error, and with -fail-metrics if the /metrics scrape
// failed, parsed as invalid exposition, or was missing a core metric
// family — the CI smoke gates.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"qint/internal/datasets"
	"qint/internal/loadgen"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "qserver base URL")
	qps := flag.Float64("qps", 200, "target arrival rate (open-loop)")
	duration := flag.Duration("duration", 10*time.Second, "schedule span")
	workers := flag.Int("workers", 64, "concurrent senders")
	skew := flag.Float64("skew", 1.2, "Zipf exponent over the query vocabulary (<=1 uniform)")
	dataset := flag.String("dataset", "interprogo", "query vocabulary: interprogo or gbco")
	queries := flag.String("queries", "", "comma-separated query override (keywords per query, quoted)")
	register := flag.Float64("register", 0, "fraction of ops sent as POST /sources registrations")
	feedback := flag.Float64("feedback", 0, "fraction of ops sent as feedback writes")
	persistent := flag.Bool("persistent", false, "create persistent views instead of ?ephemeral=1")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	seed := flag.Int64("seed", 1, "schedule seed")
	out := flag.String("out", "BENCH_qload.json", "machine-readable report path (empty = none)")
	fail5xx := flag.Bool("fail-5xx", false, "exit non-zero if any 5xx or transport error occurred")
	scrape := flag.Bool("metrics", true, "scrape /metrics after the run into the report")
	failMetrics := flag.Bool("fail-metrics", false, "exit non-zero if the /metrics scrape fails or lacks a core family")
	flag.Parse()

	vocab, err := vocabulary(*dataset, *queries)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qload: %v\n", err)
		os.Exit(2)
	}

	rep, err := loadgen.Run(loadgen.Config{
		BaseURL:          *url,
		QPS:              *qps,
		Duration:         *duration,
		Workers:          *workers,
		Queries:          vocab,
		Skew:             *skew,
		RegisterFraction: *register,
		FeedbackFraction: *feedback,
		NoEphemeral:      *persistent,
		Timeout:          *timeout,
		Seed:             *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "qload: %v\n", err)
		os.Exit(1)
	}

	if *scrape {
		exp, err := loadgen.ScrapeMetrics(&http.Client{Timeout: *timeout}, *url)
		if err != nil {
			if *failMetrics {
				fmt.Fprintf(os.Stderr, "qload: FAIL: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "qload: warning: %v\n", err)
		} else {
			rep.AttachMetrics(exp, loadgen.RequiredFamilies())
			if *failMetrics && len(rep.MissingMetricFamilies) > 0 {
				fmt.Fprintf(os.Stderr, "qload: FAIL: /metrics missing core families: %s\n",
					strings.Join(rep.MissingMetricFamilies, ", "))
				os.Exit(1)
			}
		}
	}

	fmt.Print(rep.Table())
	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			fmt.Fprintf(os.Stderr, "qload: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", *out)
	}
	if *fail5xx && (rep.Err5xx > 0 || rep.NetErrors > 0) {
		fmt.Fprintf(os.Stderr, "qload: FAIL: %d x 5xx, %d transport errors\n",
			rep.Err5xx, rep.NetErrors)
		os.Exit(1)
	}
}

// vocabulary resolves the query list: an explicit -queries override, or
// the bundled corpus workloads.
func vocabulary(dataset, override string) ([]string, error) {
	if override != "" {
		var qs []string
		for _, q := range strings.Split(override, ",") {
			if q = strings.TrimSpace(q); q != "" {
				qs = append(qs, q)
			}
		}
		if len(qs) == 0 {
			return nil, fmt.Errorf("-queries parsed to an empty list")
		}
		return qs, nil
	}
	switch dataset {
	case "interprogo":
		return datasets.InterProGO().Queries, nil
	case "gbco":
		corpus := datasets.GBCO()
		qs := make([]string, len(corpus.Trials))
		for i, tr := range corpus.Trials {
			qs[i] = tr.Keywords
		}
		return qs, nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (want interprogo or gbco)", dataset)
	}
}
