package core

import (
	"fmt"
	"runtime"
	"testing"

	"qint/internal/datasets"
	"qint/internal/matcher"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
)

// corpus is one dataset the core tests build engines over: the options and
// matchers an engine gets, the writes that load it, the keyword queries
// asked of it and a pool of new sources to register. build makes any
// engine over it, whatever the constructor and the width.
type corpus struct {
	name     string
	opts     Options
	matchers []func() matcher.Matcher
	load     func(t *testing.T, q *Q)
	queries  []string
	// source is the i'th new source of the registration pool. Its source
	// name depends on i alone, so registering one i twice is refused.
	source func(t *testing.T, i int) []*relstore.Table
}

func withMeta() matcher.Matcher { return meta.New() }
func withMAD() matcher.Matcher  { return mad.New() }

// addMatchers registers the corpus's matchers, as every start of an engine
// over it must (matchers are code, not state).
func (c corpus) addMatchers(q *Q) {
	for _, m := range c.matchers {
		q.AddMatcher(m())
	}
}

// build constructs an engine with newQ (New or newUncached) on a
// width-wide machine (0: the process's GOMAXPROCS), registers the corpus's
// matchers and loads it.
func (c corpus) build(t *testing.T, newQ func(Options) *Q, width int) *Q {
	t.Helper()
	q := newAtWidth(width, c.opts, newQ)
	c.addMatchers(q)
	c.load(t, q)
	return q
}

// newAtWidth is newQ on an n-wide machine (n <= 0: as the process is): the
// engine reads its width (worker pools) from GOMAXPROCS
// once, in New. No core test calls t.Parallel, so flipping the
// process-wide setting around newQ is safe.
func newAtWidth(n int, opts Options, newQ func(Options) *Q) *Q {
	if n > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	}
	return newQ(opts)
}

// fixtureCorpus is the miniature GO + InterPro corpus of fixtureTables with
// the acc↔go_id association hand-coded and the value-overlap filter on, so
// registration exercises OverlappingAttrPairs.
func fixtureCorpus() corpus {
	return corpus{
		name:     "fixture",
		opts:     Options{ValueOverlapFilter: true},
		matchers: []func() matcher.Matcher{withMeta, withMAD},
		load: func(t *testing.T, q *Q) {
			if err := q.AddTables(fixtureTables(t)...); err != nil {
				t.Fatal(err)
			}
			addHandCoded(t, q,
				relstore.AttrRef{Relation: "go.term", Attr: "acc"},
				relstore.AttrRef{Relation: "ip.interpro2go", Attr: "go_id"})
		},
		queries: append(append([]string(nil), cacheQueryPool...), fixtureProbes...),
		source:  cacheRegSource,
	}
}

// fixtureQAtWidth builds the fixture Q at an explicit width.
func fixtureQAtWidth(t *testing.T, width int) *Q {
	return fixtureCorpus().build(t, New, width)
}

// cachePair builds two identically constructed engines over the fixture
// corpus: one with the query caches, one cold.
func cachePair(t *testing.T) (cached, cold *Q) {
	c := fixtureCorpus()
	return c.build(t, New, 0), c.build(t, newUncached, 0)
}

// fixtureProbes are keyword queries asked of the fixture Q.
var fixtureProbes = []string{
	"'plasma membrane' 'Kringle domain'",
	"entry 'PUB0001'",
	"term name",
}

// cacheQueryPool is a small hot set of fixture queries (the shape of
// production traffic), so repeats — and therefore cache hits — are
// guaranteed.
var cacheQueryPool = []string{
	"'plasma membrane' term",
	"term 'plasma membrane'", // reversed order: must key separately
	"'Kringle domain' entry",
	"name 'nucleus'",
	"'IPR000001' 'GO:0000001'",
	"entry pub title",
	"'Zinc finger' pub_id",
}

// cacheRegSource builds the step'th synthetic registration source, with
// pub_id overlap into the fixture so alignment finds real targets.
func cacheRegSource(t *testing.T, step int) []*relstore.Table {
	t.Helper()
	rel := &relstore.Relation{Source: fmt.Sprintf("reg%d", step), Name: "data",
		Attributes: []relstore.Attribute{{Name: "pub_id"}, {Name: "label"}}}
	return []*relstore.Table{mkTable(t, rel, [][]string{
		{fmt.Sprintf("PUB%04d", 1+step%6), fmt.Sprintf("label %d", step)},
		{"PUB0002", "shared"},
	})}
}

// interproCorpus is the InterPro-GO corpus of Figure 9, aligned by
// AlignAllPairs (its foreign keys are undeclared).
func interproCorpus() corpus {
	return corpus{
		name:     "interpro",
		matchers: []func() matcher.Matcher{withMeta, withMAD},
		load: func(t *testing.T, q *Q) {
			if err := q.AddTables(datasets.InterProGO().Tables...); err != nil {
				t.Fatal(err)
			}
			if _, err := q.AlignAllPairs(); err != nil {
				t.Fatal(err)
			}
		},
		queries: append(datasets.InterProGO().Queries, "'PUB00002' title", "'curated' pub_id"),
		source: func(t *testing.T, i int) []*relstore.Table {
			rel := &relstore.Relation{Source: fmt.Sprintf("ext%d", i), Name: "citations",
				Attributes: []relstore.Attribute{{Name: "pub_id"}, {Name: "cited_by"}, {Name: "note"}}}
			return []*relstore.Table{mkTable(t, rel, [][]string{
				{fmt.Sprintf("PUB%05d", 1+i%5), "PUB00002", "curated"},
				{"PUB00003", fmt.Sprintf("PUB%05d", 10+i), fmt.Sprintf("note %d", i)},
			})}
		},
	}
}

// gbcoCorpus is the GBCO corpus, with its trials' keyword queries.
func gbcoCorpus() corpus {
	gbco := datasets.GBCO()
	var queries []string
	for _, trial := range gbco.Trials {
		queries = append(queries, trial.Keywords)
	}
	return corpus{
		name:     "gbco",
		matchers: []func() matcher.Matcher{withMeta},
		load: func(t *testing.T, q *Q) {
			if err := q.AddTables(datasets.GBCO().Tables...); err != nil {
				t.Fatal(err)
			}
		},
		queries: queries,
		source: func(t *testing.T, i int) []*relstore.Table {
			rel := &relstore.Relation{Source: fmt.Sprintf("ext%d", i), Name: "annotations",
				Attributes: []relstore.Attribute{{Name: "pubmed_id"}, {Name: "label"}}}
			return []*relstore.Table{mkTable(t, rel, [][]string{
				{fmt.Sprintf("PUB%05d", 1+i%4), "curated"}, {"PUB00004", fmt.Sprintf("label %d", i)}})}
		},
	}
}

// syntheticCorpus is a small deterministic two-source schema with
// overlapping join values, so the matchers must discover the customer_id
// association and queries union rows from several Steiner trees.
func syntheticCorpus() corpus {
	return corpus{
		name:     "synthetic",
		matchers: []func() matcher.Matcher{withMeta, withMAD},
		load: func(t *testing.T, q *Q) {
			if err := q.AddTables(syntheticTables(t)...); err != nil {
				t.Fatal(err)
			}
			if _, err := q.AlignAllPairs(); err != nil {
				t.Fatal(err)
			}
		},
		queries: []string{"alice widget", "bob gadget", "springfield sprocket", "'C1' item", "carol city"},
		source: func(t *testing.T, i int) []*relstore.Table {
			rel := &relstore.Relation{Source: fmt.Sprintf("ext%d", i), Name: "reviews",
				Attributes: []relstore.Attribute{{Name: "customer_id"}, {Name: "stars"}}}
			return []*relstore.Table{mkTable(t, rel, [][]string{
				{fmt.Sprintf("C%d", 1+i%3), "5"}, {"C3", fmt.Sprint(i % 5)}})}
		},
	}
}

// syntheticTables are the synthetic corpus's three relations.
func syntheticTables(t *testing.T) []*relstore.Table {
	t.Helper()
	customers := &relstore.Relation{Source: "crm", Name: "customers",
		Attributes: []relstore.Attribute{{Name: "customer_id"}, {Name: "name"}, {Name: "city"}}}
	orders := &relstore.Relation{Source: "sales", Name: "orders",
		Attributes: []relstore.Attribute{{Name: "order_id"}, {Name: "customer_id"}, {Name: "item"}}}
	shipments := &relstore.Relation{Source: "sales", Name: "shipments",
		Attributes: []relstore.Attribute{{Name: "order_id"}, {Name: "carrier"}},
		ForeignKeys: []relstore.ForeignKey{
			{FromAttr: "order_id", ToRelation: "sales.orders", ToAttr: "order_id"}}}
	return []*relstore.Table{
		mkTable(t, customers, [][]string{
			{"C1", "alice", "springfield"},
			{"C2", "bob", "shelbyville"},
			{"C3", "carol", "springfield"},
		}),
		mkTable(t, orders, [][]string{
			{"O1", "C1", "widget"},
			{"O2", "C2", "gadget"},
			{"O3", "C1", "sprocket"},
			{"O4", "C3", "widget"},
		}),
		mkTable(t, shipments, [][]string{
			{"O1", "postal"},
			{"O2", "courier"},
			{"O4", "postal"},
		}),
	}
}
