package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"qint/internal/relstore"
	"qint/internal/server"
)

const (
	synthRows = 200 // rows per synthetic base table

	// A timing metric is reported only over at least this many samples. A
	// workload whose own op list issues fewer of some op tops it up in the
	// floor phase that follows the main phase.
	floorQueries    = 200
	floorWrites     = 48 // of each kind: registrations, feedbacks
	floorRecoveries = 16

	// refSeconds is the -seconds value the op counts below are sized for.
	refSeconds = 20
)

// workload is the fixed description of one workload; plan is its
// instantiation for one seed.
type workload struct {
	name          string
	recoveries    int  // timed reopen cycles (at least floorRecoveries)
	synth         int  // synthetic value tables loaded at set-up
	views         int  // persistent views
	lateViews     bool // views are created by the op list, not at set-up
	distinct      int  // distinct ephemeral queries
	readsPerBlock int
	build         func(p *plan, g *gen, scale float64)
}

type plan struct {
	*workload
	recoveries  int
	base        []*relstore.Table
	baseBytes   int      // Σ cell bytes of the base corpus
	queries     [][]byte // distinct ephemeral query bodies
	viewQueries [][]byte
	sources     []sourceSpec
	warm        []int // query indices of the warm-up pass
	main, floor []op
	hash        string
}

// scaled is n × scale, at least lo.
func scaled(n int, scale float64, lo int) int { return max(lo, int(float64(n)*scale+0.5)) }

var workloads = []*workload{
	// 64 distinct queries, a quarter of the materialisation cache: server and
	// qcache do all the work, the engine none, so an engine optimisation must
	// not move it.
	{
		name:  "read_hot",
		synth: 12, views: 2, distinct: 64, readsPerBlock: 2048,
		build: func(p *plan, g *gen, scale float64) {
			z := rand.NewZipf(g.r, 1.1, 1, uint64(p.distinct-1))
			for i, n := 0, scaled(240_000, scale, 2048); i < n; i++ {
				p.main = append(p.main, op{kind: opQuery, a: int(z.Uint64())})
			}
		},
	},
	// More distinct queries than the 256-entry cache holds, read cyclically,
	// so reads miss and pay relstore, steiner, searchgraph and text.
	{
		name:  "read_cold",
		synth: 12, views: 2, distinct: 320, readsPerBlock: 4,
		build: func(p *plan, g *gen, scale float64) {
			// One seeded order, repeated: a query comes round again only
			// after the 319 others, so the LRU has dropped it.
			p.warm = g.r.Perm(p.distinct)
			for pass, n := 0, scaled(3, scale, 1); pass < n; pass++ {
				for _, qi := range p.warm {
					p.main = append(p.main, op{kind: opQuery, a: qi})
				}
			}
		},
	},
	// Writes beside reads: every write refreshes all views, fsyncs the WAL and
	// makes the following reads cold.
	{
		name:  "write_churn",
		synth: 12, views: 4, distinct: 100, readsPerBlock: 8,
		build: func(p *plan, g *gen, scale float64) {
			// The reads walk the distinct queries cyclically: each is the
			// first read of its query in the new epoch, a miss. (What a
			// cold query costs grows with the catalog, so the walk is the
			// same for every seed; the seed varies the sources' values.)
			next := 0
			for round, n := 0, scaled(40, scale, 4); round < n; round++ {
				p.sources = append(p.sources, g.source(fmt.Sprintf("churn%d", round), "viewbased", 60, g.corpusLink(round)))
				p.main = append(p.main,
					op{kind: opRegister, a: len(p.sources) - 1},
					feedbackOp(round, p.views))
				for i := 0; i < 5; i++ {
					p.main = append(p.main, op{kind: opQuery, a: next % p.distinct})
					next++
				}
				p.main = append(p.main, op{kind: opViewGet, a: g.r.Intn(p.views)})
			}
		},
	},
	// Starts from GBCO alone and registers sources one by one: alignment as the
	// catalog grows, then WAL replay and the binary codecs on restart; the
	// query path is almost idle.
	{
		name:  "ingest_restart",
		synth: 0, views: 4, lateViews: true, distinct: 32, readsPerBlock: 8, recoveries: 20,
		build: func(p *plan, g *gen, scale float64) {
			n := scaled(120, scale, 12)
			strategies := []string{"exhaustive", "viewbased", "preferential"}
			// Each source shares one attribute name, and that attribute's
			// values, with the earlier sources of its family.
			families := make([]linkAttr, 24)
			for i := range families {
				families[i].name = g.word()
				for j := 0; j < 40; j++ {
					families[i].values = append(families[i].values, fmt.Sprintf("F%02d:%04d", i, j))
				}
			}
			for i := 0; i < n; i++ {
				p.sources = append(p.sources, g.source(fmt.Sprintf("ingest%d", i), strategies[i%3], synthRows, families[i%len(families)]))
				p.main = append(p.main, op{kind: opRegister, a: i})
				switch i + 1 {
				case n / 6:
					p.main = append(p.main, op{kind: opCreateViews})
				case n - n/5:
					// Recovery is then this snapshot plus a WAL tail of n/5 records.
					p.main = append(p.main, op{kind: opCheckpoint})
				}
			}
		},
	},
}

// feedbackOp is the i-th feedback of a workload: views in turn, the top
// answer marked valid on even turns and the fourth (or the last, if there
// are fewer) marked invalid on odd ones.
func feedbackOp(i, views int) op {
	if i%2 == 0 {
		return op{kind: opFeedback, a: i % views, b: 0}
	}
	return op{kind: opFeedback, a: i % views, b: 3<<1 | 1}
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// buildPlan instantiates w for one seed. Candidate queries are validated
// against a throw-away in-memory engine over the same corpus: only queries
// that answer 2xx with at least one row are kept.
func buildPlan(w *workload, seed int64, scale float64) (*plan, error) {
	// A fraction of the work (-quick) also uses a fraction of the distinct
	// queries, or validating and warming them would be all the run does.
	shrunk := *w
	shrunk.distinct = scaled(w.distinct, min(1, 10*scale), 8)
	w = &shrunk
	p := &plan{workload: w, base: baseTables(w.synth)}
	infos := describe(p.base)
	for _, t := range infos {
		p.baseBytes += t.cellBytes
	}
	g := newGen(seed, infos)

	e, err := openEngine("")
	if err != nil {
		return nil, err
	}
	if err := e.q.AddTables(p.base...); err != nil {
		return nil, err
	}
	e.q.AlignAllPairs()
	e.srv = server.New(e.q)
	validate := func(next func() string, need int) ([][]byte, error) {
		var valid [][]byte
		for tries := 0; len(valid) < need; tries++ {
			if tries > 20*need {
				return nil, fmt.Errorf("%s: only %d of %d candidate queries answered with rows", w.name, len(valid), tries)
			}
			body := queryBody(next())
			e.do("POST", "/query?ephemeral=1", body)
			var v server.ViewSummary
			if e.ok() && json.Unmarshal(e.w.body.Bytes(), &v) == nil && v.Answers > 0 {
				valid = append(valid, body)
			}
		}
		return valid, nil
	}
	// Views are joins; the ephemeral queries are every kind.
	if p.viewQueries, err = validate(g.queryCandidates(func(t template) bool { return t.join }), w.views); err != nil {
		return nil, err
	}
	if p.queries, err = validate(g.queryCandidates(func(template) bool { return true }), w.distinct); err != nil {
		return nil, err
	}

	w.build(p, g, scale)
	if p.warm == nil {
		for qi := range p.queries {
			p.warm = append(p.warm, qi)
		}
	}

	// Top every op kind up to its sample floor.
	var have [numOpKinds]int
	for _, o := range p.main {
		have[o.kind]++
	}
	small := min(scale, 1)
	rounds := scaled(floorWrites, small, 2)
	needQ := max(0, scaled(floorQueries, small, 4)-have[opQuery])
	perRound := (needQ + rounds - 1) / rounds
	for i := 0; i < rounds; i++ {
		if have[opRegister]+i < rounds {
			p.sources = append(p.sources, g.source(fmt.Sprintf("floor%d", i), "viewbased", 60, g.corpusLink(i)))
			p.floor = append(p.floor, op{kind: opRegister, a: len(p.sources) - 1})
		}
		if have[opFeedback]+i < rounds {
			p.floor = append(p.floor, feedbackOp(i, w.views))
		}
		// Queries follow a write and are distinct within the round, so all
		// of them miss: the sample is not a mix of hits and misses.
		for j := 0; j < perRound; j++ {
			p.floor = append(p.floor, op{kind: opQuery, a: (i*perRound + j) % w.distinct})
		}
	}
	p.recoveries = scaled(max(w.recoveries, floorRecoveries), small, 2)
	p.hash = opListHash(p)
	return p, nil
}
