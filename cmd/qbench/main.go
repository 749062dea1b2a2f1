// Command qbench regenerates every table and figure of the paper's
// evaluation (§5) and prints them in the same rows/series the paper
// reports. Use -exp to run a single experiment.
//
//	qbench            # run everything
//	qbench -exp fig7  # one of: table1 fig6 fig7 fig8 fig10 fig11 fig12 table2 ablation propagation
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"qint/internal/eval"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, table1, fig6, fig7, fig8, fig10, fig11, fig12, table2, ablation, propagation")
	flag.Parse()

	ran := false
	for _, r := range experiments {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran = true
		if err := r.fn(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "qbench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "qbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// experiments lists every experiment in the order "all" runs them. Each
// prints its table or figure to w.
var experiments = []struct {
	name string
	fn   func(w io.Writer) error
}{
	{"table1", table1},
	{"fig6", fig6},
	{"fig7", fig7},
	{"fig8", fig8},
	{"fig10", fig10},
	{"fig11", fig11},
	{"fig12", fig12},
	{"table2", table2},
	{"ablation", ablation},
	{"propagation", propagation},
}

func header(w io.Writer, title string) {
	fmt.Fprintln(w)
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, strings.Repeat("-", len(title)))
}

func table1(w io.Writer) error {
	rows, err := eval.RunTable1()
	if err != nil {
		return err
	}
	header(w, "Table 1: matcher quality on InterPro-GO (top-Y edges per attribute vs 8 gold edges)")
	fmt.Fprintf(w, "%-3s %-20s %10s %10s %10s\n", "Y", "System", "Precision", "Recall", "F-measure")
	for _, r := range rows {
		fmt.Fprintf(w, "%-3d %-20s %10.2f %10.2f %10.2f\n", r.Y, r.System, r.Precision, r.Recall, r.F1)
	}
	return nil
}

func fig6(w io.Writer) error {
	rows, err := eval.RunFig6()
	if err != nil {
		return err
	}
	header(w, "Figure 6: mean time to align one new source (metadata matcher as BASEMATCHER, 40 introductions)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %12v\n", r.Strategy, r.MeanTime)
	}
	return nil
}

func fig7(w io.Writer) error {
	rows, err := eval.RunFig7()
	if err != nil {
		return err
	}
	header(w, "Figure 7: mean pairwise attribute comparisons per source introduction")
	fmt.Fprintf(w, "%-22s %22s %22s\n", "Strategy", "No Additional Filter", "Value Overlap Filter")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %22.1f %22.1f\n", r.Strategy, r.NoFilter, r.WithFilter)
	}
	return nil
}

func fig8(w io.Writer) error {
	rows, err := eval.RunFig8()
	if err != nil {
		return err
	}
	header(w, "Figure 8: pairwise column comparisons vs search-graph size (18 -> 500 sources)")
	fmt.Fprintf(w, "%-10s %14s %18s %20s\n", "Sources", "EXHAUSTIVE", "VIEWBASEDALIGNER", "PREFERENTIALALIGNER")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d %14.1f %18.1f %20.1f\n", r.Sources, r.Exhaustive, r.ViewBased, r.Preferential)
	}
	return nil
}

func printCurves(w io.Writer, curves []eval.Curve) {
	for _, c := range curves {
		fmt.Fprintf(w, "%s:\n", c.Name)
		fmt.Fprintf(w, "  %10s %10s\n", "Recall", "Precision")
		for _, p := range c.Points {
			fmt.Fprintf(w, "  %10.2f %10.2f\n", p.Recall, p.Precision)
		}
	}
}

func fig10(w io.Writer) error {
	curves, err := eval.RunFig10()
	if err != nil {
		return err
	}
	header(w, "Figure 10: precision-recall for META, MAD, and Q (combined + 10x4 feedback)")
	printCurves(w, curves)
	return nil
}

func fig11(w io.Writer) error {
	curves, err := eval.RunFig11()
	if err != nil {
		return err
	}
	header(w, "Figure 11: precision-recall for Q at increasing feedback levels")
	printCurves(w, curves)
	return nil
}

func fig12(w io.Writer) error {
	rows, err := eval.RunFig12()
	if err != nil {
		return err
	}
	header(w, "Figure 12: avg gold vs non-gold association edge cost per feedback step")
	fmt.Fprintf(w, "%-6s %14s %16s\n", "Step", "Gold avg cost", "Non-gold avg cost")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6d %14.3f %16.3f\n", r.Step, r.GoldAvg, r.NonGoldAvg)
	}
	return nil
}

func ablation(w io.Writer) error {
	rows, err := eval.RunAblationBinning()
	if err != nil {
		return err
	}
	header(w, "Ablation: binned vs raw matcher-confidence features (10x4 feedback)")
	fmt.Fprintf(w, "%-22s %12s %14s %12s\n", "Mode", "Gold avg", "Non-gold avg", "P@87.5")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %12.3f %14.3f %12.1f\n", r.Mode, r.GoldAvg, r.NonGoldAvg, r.PrecisionAtHighRecall)
	}
	return nil
}

func propagation(w io.Writer) error {
	rows, err := eval.RunAblationPropagation()
	if err != nil {
		return err
	}
	header(w, "Ablation: MAD vs LP-ZGL label propagation (Table 1 protocol)")
	fmt.Fprintf(w, "%-10s %-3s %10s %10s %10s\n", "Algorithm", "Y", "Precision", "Recall", "F-measure")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-3d %10.2f %10.2f %10.2f\n", r.Algorithm, r.Y, r.Precision, r.Recall, r.F1)
	}
	return nil
}

func table2(w io.Writer) error {
	rows, err := eval.RunTable2()
	if err != nil {
		return err
	}
	header(w, "Table 2: feedback steps to first reach precision 1 at each recall level")
	fmt.Fprintf(w, "%-14s %6s\n", "Recall level", "Steps")
	for _, r := range rows {
		steps := fmt.Sprint(r.Steps)
		if r.Steps == 0 {
			steps = "-"
		}
		fmt.Fprintf(w, "%-14.1f %6s\n", r.RecallLevel, steps)
	}
	return nil
}
