// Command qshell is an interactive shell over the Q system, preloaded with
// one of the bundled corpora. It demonstrates the full lifecycle of the
// paper: keyword querying, inspecting ranked answers and their provenance,
// giving feedback, and watching the search graph adjust.
//
//	qshell                 # InterPro-GO corpus, both matchers
//	qshell -dataset gbco   # GBCO corpus
//
// Commands:
//
//	query <keywords>     create a view ('quotes' group phrases)
//	rows [n]             show the current view's top-n answers
//	trees                show the current view's query trees with costs
//	sql                  show the generated SQL for the current view
//	good <row>           mark an answer valid (feedback)
//	bad <row>            mark an answer invalid (feedback)
//	assoc                list association edges with current costs
//	neighborhood         relations in the current view's α-neighbourhood
//	save <file>          snapshot the instance (checkpoint container format)
//	load <file>          restore a snapshot written by save
//	stats                graph and catalog statistics
//	:stats               engine + query-cache counters
//	:trace               stage breakdown of the last query
//	:metrics             dump the metric registry (Prometheus text format)
//	help                 this text
//	quit                 exit
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/obs"
	"qint/internal/qcache"
	"qint/internal/relstore"
	"qint/internal/storage"
)

func main() {
	dataset := flag.String("dataset", "interprogo", "corpus to load: interprogo or gbco")
	flag.Parse()

	q := core.New(core.DefaultOptions())
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())

	switch *dataset {
	case "interprogo":
		c := datasets.InterProGO()
		if err := q.AddTables(c.Tables...); err != nil {
			fatal(err)
		}
		if _, err := q.AlignAllPairs(); err != nil {
			fatal(err)
		}
		fmt.Println("Loaded InterPro-GO: 8 relations, 28 attributes; associations proposed by META+MAD.")
	case "gbco":
		c := datasets.GBCO()
		if err := q.AddTables(c.Tables...); err != nil {
			fatal(err)
		}
		fmt.Println("Loaded GBCO: 18 sources, 187 attributes; foreign keys declared in metadata.")
	default:
		fatal(fmt.Errorf("unknown dataset %q", *dataset))
	}
	fmt.Println(`Type "help" for commands.`)

	var view *core.View
	var lastTrace *obs.Trace
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("q> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		cmd, rest := line, ""
		if i := strings.IndexByte(line, ' '); i > 0 {
			cmd, rest = line[:i], strings.TrimSpace(line[i+1:])
		}
		switch cmd {
		case "quit", "exit":
			return
		case "help":
			printHelp()
		case "query":
			// Traced so :trace can show where the last query's time went.
			lastTrace = obs.NewTrace()
			v, err := q.Query(core.Request{Keywords: core.ParseKeywords(rest), Trace: lastTrace})
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			view = v
			m := v.Current()
			fmt.Printf("view created: %d trees, %d answers, alpha=%.3f\n",
				len(m.Trees), len(m.Result.Rows), m.Alpha)
			showRows(view, 5)
		case "rows":
			if view == nil {
				fmt.Println("no view; use query first")
				continue
			}
			n := 10
			if rest != "" {
				if p, err := strconv.Atoi(rest); err == nil {
					n = p
				}
			}
			showRows(view, n)
		case "trees":
			if view == nil {
				fmt.Println("no view; use query first")
				continue
			}
			for i, t := range view.Current().Trees {
				fmt.Printf("tree %d cost=%.3f nodes=%d edges=%d\n", i, t.Cost, len(t.Nodes), len(t.Edges))
			}
		case "sql":
			if view == nil {
				fmt.Println("no view; use query first")
				continue
			}
			for i, cq := range view.Current().Queries {
				fmt.Printf("-- branch %d (cost %.3f)\n%s\n", i, cq.Cost, cq.SQL())
			}
		case "good", "bad":
			if view == nil {
				fmt.Println("no view; use query first")
				continue
			}
			row, err := strconv.Atoi(rest)
			if err != nil {
				fmt.Println("usage: good|bad <row-number>")
				continue
			}
			kind := core.FeedbackValid
			if cmd == "bad" {
				kind = core.FeedbackInvalid
			}
			if err := q.FeedbackRow(view, row, kind); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println("feedback applied; view refreshed:")
			showRows(view, 5)
		case "explain":
			if view == nil {
				fmt.Println("no view; use query first")
				continue
			}
			row, err := strconv.Atoi(rest)
			if err != nil {
				fmt.Println("usage: explain <row-number>")
				continue
			}
			ex, err := q.Explain(view.Current(), row)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(ex)
		case "assoc":
			for _, a := range q.CurrentGraph().AssociationList() {
				fmt.Printf("%8.3f  %s ~ %s\n", a.Cost, a.A, a.B)
			}
		case "neighborhood":
			if view == nil {
				fmt.Println("no view; use query first")
				continue
			}
			for _, r := range q.NeighborhoodRelations(view.Current()) {
				fmt.Println(" ", r)
			}
		case "register":
			parts := strings.Fields(rest)
			if len(parts) < 1 {
				fmt.Println("usage: register <file.json> [exhaustive|viewbased|preferential]")
				continue
			}
			strategy := core.ViewBased
			if len(parts) > 1 {
				switch parts[1] {
				case "exhaustive":
					strategy = core.Exhaustive
				case "preferential":
					strategy = core.Preferential
				case "viewbased":
				default:
					fmt.Println("unknown strategy", parts[1])
					continue
				}
			}
			tables, err := loadSourceFile(parts[0])
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			rep, err := q.RegisterSource(tables, strategy)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("registered %q: compared %d relations, %d attribute comparisons, %d alignments\n",
				rep.Source, len(rep.TargetsCompared), rep.AttrComparisons, rep.AlignmentsAdded)
			for _, pair := range slices.Sorted(maps.Keys(rep.AlignmentsByPair)) {
				fmt.Printf("  %.2f %s\n", rep.AlignmentsByPair[pair], pair)
			}
		case "save":
			if rest == "" {
				fmt.Println("usage: save <file>")
				continue
			}
			// Atomic save: an os.Create here would truncate the previous
			// snapshot before writing, so a crash mid-save destroys it.
			if err := storage.WriteFileAtomic(rest, q.Save); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println("saved to", rest)
		case "load":
			if rest == "" {
				fmt.Println("usage: load <file>")
				continue
			}
			f, err := os.Open(rest)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			loaded, err := core.Load(f, core.DefaultOptions())
			f.Close()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			// Matchers are code, not state: re-register them.
			loaded.AddMatcher(meta.New())
			loaded.AddMatcher(mad.New())
			q, view = loaded, nil
			views := q.Views()
			if len(views) > 0 {
				view = views[len(views)-1] // the newest restored view becomes current
			}
			fmt.Printf("loaded %s: %d relations, %d views\n",
				rest, q.CurrentCatalog().NumRelations(), len(views))
		case "stats":
			s := q.CurrentGraph().Summary()
			fmt.Printf("catalog: %d relations, %d attributes\n",
				q.CurrentCatalog().NumRelations(), q.CurrentCatalog().NumAttributes())
			fmt.Printf("graph: %d relations, %d attributes, %d values, %d keywords\n",
				s.Relations, s.Attributes, s.Values, s.Keywords)
			for kind, n := range s.ByEdgeKind {
				fmt.Printf("  %-12s %d edges\n", kind, n)
			}
		case ":stats":
			// Engine + serving-layer counters: the epoch identifies the
			// published generation every cache entry is keyed by.
			fmt.Printf("epoch: %d   views: %d\n", q.Epoch(), len(q.Views()))
			fmt.Printf("alignment work: %d matcher calls, %d attr comparisons (%d unfiltered)\n",
				q.Stats.BaseMatcherCalls(), q.Stats.AttrComparisons(), q.Stats.ColumnComparisonsUnfiltered())
			cs := q.CacheStats()
			if !cs.Enabled {
				fmt.Println("query cache: disabled")
				continue
			}
			fmt.Println("query cache:")
			printCache := func(name string, c qcache.Counters) {
				fmt.Printf("  %-16s hits=%-8d misses=%-6d computes=%-6d coalesced=%-5d evictions=%-5d entries=%-5d live-epochs=%d\n",
					name, c.Hits, c.Misses, c.Computes, c.Coalesced, c.Evictions, c.Entries, c.LiveEpochs)
			}
			printCache("expansion", cs.Expansion)
			printCache("materialization", cs.Materialization)
		case ":trace":
			if lastTrace == nil {
				fmt.Println("no trace; run a query first")
				continue
			}
			fmt.Print(lastTrace)
		case ":metrics":
			if err := q.Metrics().WritePrometheus(os.Stdout); err != nil {
				fmt.Println("error:", err)
			}
		default:
			fmt.Printf("unknown command %q; try help\n", cmd)
		}
	}
}

func showRows(v *core.View, n int) {
	res := v.Current().Result
	if len(res.Rows) == 0 {
		fmt.Println("(no answers)")
		return
	}
	fmt.Println("columns:", strings.Join(res.Columns, " | "))
	rows := res.Rows
	if n > 0 && n < len(rows) {
		rows = rows[:n]
	}
	for i, r := range rows {
		fmt.Printf("[%d] cost=%.3f  %s\n", i, r.Cost, strings.Join(nonEmpty(r.Values), " | "))
	}
}

func nonEmpty(vals []string) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		if v == "" {
			v = "·"
		}
		out[i] = v
	}
	return out
}

func printHelp() {
	fmt.Print(`commands:
  query <keywords>   create a view ('quotes' group phrases)
  rows [n]           show top-n answers of the current view
  trees              show the view's query trees
  sql                show generated SQL branches
  good <row>         mark answer valid
  bad <row>          mark answer invalid
  explain <row>      show an answer's provenance (tree, joins, SQL)
  assoc              list association edges with costs
  neighborhood       relations in the view's α-neighbourhood
  register <file> [strategy]  register a new source from JSON
  save <file>        snapshot the instance (catalog+graph+views) in the
                     checkpoint format a qserver -data dir's gen-*.snap uses
  load <file>        restore a snapshot written by save (or a gen-*.snap);
                     JSON saves from older versions no longer load
  stats              catalog / graph statistics
  :stats             engine + query-cache counters (hits, misses,
                     coalesced, evictions, live epochs)
  :trace             stage breakdown of the last query (expand, steiner,
                     translate, plan, execute, materialize)
  :metrics           dump the metric registry in Prometheus text format
  quit               exit
`)
}

// sourceFile is the JSON format accepted by `register`: one source with its
// tables (the same shape cmd/qserver's POST /sources accepts).
type sourceFile struct {
	Source string `json:"source"`
	Tables []struct {
		Name        string                `json:"name"`
		Attributes  []string              `json:"attributes"`
		ForeignKeys []relstore.ForeignKey `json:"foreign_keys,omitempty"`
		Rows        [][]string            `json:"rows"`
	} `json:"tables"`
}

func loadSourceFile(path string) ([]*relstore.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var sf sourceFile
	if err := json.NewDecoder(f).Decode(&sf); err != nil {
		return nil, err
	}
	if sf.Source == "" || len(sf.Tables) == 0 {
		return nil, fmt.Errorf("source file needs a source name and at least one table")
	}
	var tables []*relstore.Table
	for _, ts := range sf.Tables {
		rel := &relstore.Relation{Source: sf.Source, Name: ts.Name, ForeignKeys: ts.ForeignKeys}
		for _, a := range ts.Attributes {
			rel.Attributes = append(rel.Attributes, relstore.Attribute{Name: a})
		}
		t, err := relstore.NewTable(rel, ts.Rows)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qshell:", err)
	os.Exit(1)
}
