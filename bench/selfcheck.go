package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// spec is BENCHMARK.json, the committed list of workloads, metrics and
// regression bounds. The benchmark runs from its own directory, one level
// below it.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec() (*spec, error) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// selfCheck is the A/A noise gate: every workload runs twice, the two
// passes interleaved (A₁B₁C₁D₁ A₂B₂C₂D₂) so that a slow minute of the machine
// falls on both, and no end-to-end metric may differ between the passes by
// more than its regression bound. It prints the spread it saw, which is what
// the bounds in BENCHMARK.json are set from.
func selfCheck(cfg config) error {
	s, err := loadSpec()
	if err != nil {
		return err
	}
	var passes [2][]*result
	for pass := range passes {
		for _, w := range workloads {
			res, err := runWorkload(w, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if res.failed > 0 {
				res.print(cfg.log)
				return fmt.Errorf("%s: %d of %d ops failed", w.name, res.failed, res.attempted)
			}
			passes[pass] = append(passes[pass], res)
		}
	}
	fmt.Fprintf(cfg.log, "\n%-16s %-20s %14s %14s %8s %6s\n", "workload", "metric", "pass 1", "pass 2", "spread", "bound")
	over := 0
	for i, w := range workloads {
		for _, m := range s.EndToEnd {
			a, b := passes[0][i].get(m.Name), passes[1][i].get(m.Name)
			spread := math.Abs(a-b) / math.Min(a, b)
			flag := ""
			if spread > m.Bound {
				flag = "  OVER"
				over++
			}
			fmt.Fprintf(cfg.log, "%-16s %-20s %14.6g %14.6g %7.2f%% %5.0f%%%s\n", w.name, m.Name, a, b, 100*spread, 100*m.Bound, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("selfcheck: %d metric × workload pairs differ between two runs of the same code by more than their bound", over)
	}
	fmt.Fprintln(cfg.log, "selfcheck: every pair within its bound")
	return nil
}
