package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"qint/internal/relstore"
	"qint/internal/server"
)

// tableInfo is what the generator needs to know of one corpus table: its
// names (the relation-or-attribute words of queries), its value pools (the
// key pool is column 0) and which relations it is foreign-key-adjacent to.
type tableInfo struct {
	source, name string
	attrs        []string
	values       [][]string // per attribute: distinct values, in row order
	neighbours   []string   // unqualified names of FK-adjacent relations
	cellBytes    int        // Σ len(cell): the user payload
}

// linkAttr is a corpus attribute a generated source can reuse by name.
type linkAttr struct {
	name   string
	values []string
}

// describe extracts the generator's view of the corpus tables. (relstore is
// imported for its schema types only; the generator calls nothing in it.)
func describe(tables []*relstore.Table) []tableInfo {
	byQualified := make(map[string]int, len(tables))
	out := make([]tableInfo, len(tables))
	for i, t := range tables {
		rel := t.Relation
		byQualified[rel.QualifiedName()] = i
		ti := tableInfo{source: rel.Source, name: rel.Name, attrs: rel.AttrNames()}
		ti.values = make([][]string, len(ti.attrs))
		seen := make([]map[string]bool, len(ti.attrs))
		for j := range seen {
			seen[j] = make(map[string]bool)
		}
		for _, row := range t.Rows {
			for j, cell := range row {
				if !seen[j][cell] {
					seen[j][cell] = true
					ti.values[j] = append(ti.values[j], cell)
				}
				ti.cellBytes += len(cell)
			}
		}
		out[i] = ti
	}
	for i, t := range tables {
		for _, fk := range t.Relation.ForeignKeys {
			if j, ok := byQualified[fk.ToRelation]; ok {
				out[i].neighbours = append(out[i].neighbours, out[j].name)
				out[j].neighbours = append(out[j].neighbours, out[i].name)
			}
		}
	}
	return out
}

// opKind is one kind of request the driver issues.
type opKind uint8

const (
	opQuery       opKind = iota // POST /query?ephemeral=1, a = query index
	opViewGet                   // GET /views/{id}, a = view index
	opRegister                  // POST /sources, a = source index
	opFeedback                  // POST /views/{id}/feedback, a = view index, b = row selector and kind
	opCreateViews               // POST /query × plan.views (ingest_restart creates its views mid-run)
	opCheckpoint                // core.Checkpoint
	numOpKinds
)

type op struct {
	kind opKind
	a, b int
}

// sourceSpec is one registration payload, ready to send.
type sourceSpec struct {
	name      string
	body      []byte // RegisterRequest JSON
	cellBytes int
}

var syllables = []string{
	"ka", "ro", "mi", "ta", "len", "vor", "shi", "gan", "pel", "dru",
	"os", "in", "ter", "pro", "mem", "bra", "nuc", "zym", "gly", "fer",
	"qua", "xil", "bo", "hu", "wen", "jay", "cor", "dap", "ul", "ist",
}

// gen derives every input of a workload from one seed. What a request
// costs depends on its shape — which relations a query joins, how many
// attributes a new source aligns with — far more than on the program's
// speed, so the shapes come from fixed, whose seed is a constant: every run
// uses the same queries and the same schema names. The seed decides what is
// cheap to vary: the order and the Zipf draws of the reads, and every data
// value of the registered sources.
type gen struct {
	fixed  *rand.Rand
	r      *rand.Rand
	tables []tableInfo
	links  []linkAttr
	words  map[string]bool // names handed out, so they stay distinct
}

// shapeSeed seeds the corpus and gen.fixed.
const shapeSeed = 1

// minLinkLen is the shortest attribute name a generated source reuses. The
// metadata matcher scores names by edit and trigram similarity, so a short
// or common name ("acc", "gene_id") aligns weakly with two attributes of
// every relation in the catalog; a long name that occurs once aligns with
// its namesake and little else, which is how a real new source relates to
// the one or two relations it extends.
const minLinkLen = 14

func newGen(seed int64, tables []tableInfo) *gen {
	g := &gen{
		fixed:  rand.New(rand.NewSource(shapeSeed)),
		r:      rand.New(rand.NewSource(seed)),
		tables: tables,
		words:  make(map[string]bool),
	}
	count := make(map[string]int)
	for _, t := range tables {
		for _, a := range t.attrs {
			count[a]++
		}
	}
	for _, t := range tables {
		for j, a := range t.attrs {
			if len(a) >= minLinkLen && count[a] == 1 && !strings.HasSuffix(a, "_id") {
				g.links = append(g.links, linkAttr{a, t.values[j]})
			}
		}
	}
	return g
}

// word returns a fresh schema name: 24 to 30 random letters and digits. Two such
// names share almost no trigrams and are far apart in edit distance, so the
// metadata matcher aligns a generated attribute only where the generator
// reuses an existing name on purpose. (Names built from a small syllable set
// align with a fifth of the catalog each; the search graph then grows
// quadratically with the sources registered and one write takes seconds.)
func (g *gen) word() string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	for {
		b := make([]byte, 24+g.fixed.Intn(7))
		b[0] = alphabet[g.fixed.Intn(26)]
		for i := 1; i < len(b); i++ {
			b[i] = alphabet[g.fixed.Intn(len(alphabet))]
		}
		if w := string(b); !g.words[w] {
			g.words[w] = true
			return w
		}
	}
}

// template is one shape of query: a key of table and one word. The word is
// the table's own name, one of its non-key attributes, or the name of a
// foreign-key neighbour (join = true) — so the Steiner tree always has a
// relation to touch. Single-keyword value-only queries have no template.
type template struct {
	table int
	word  string
	join  bool
}

// templates lists every template of the corpus in an order that depends on
// the schema alone: word position outermost, so that any prefix of the list
// spreads over all tables. The cost of a query is set almost entirely by its
// template (which relations the tree joins), so every seed draws its queries
// from the same prefix of this list and varies only the key values; two
// seeds then do work of the same shape, and their timings are comparable.
func (g *gen) templates() []template {
	var out []template
	for wi := 0; ; wi++ {
		added := false
		for ti, t := range g.tables {
			own := append([]string{t.name}, t.attrs[1:]...)
			switch {
			case wi < len(own):
				out = append(out, template{ti, own[wi], false})
				added = true
			case wi < len(own)+len(t.neighbours):
				out = append(out, template{ti, t.neighbours[wi-len(own)], true})
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

// queryCandidates returns an endless, duplicate-free stream of two-keyword
// queries `'<key value>' <word>`, cycling through the templates that keep
// accepts and drawing a fresh key of the template's table each time. The
// stream is the same for every seed.
func (g *gen) queryCandidates(keep func(template) bool) func() string {
	var ts []template
	for _, t := range g.templates() {
		if keep(t) {
			ts = append(ts, t)
		}
	}
	seen := make(map[string]bool)
	i := 0
	return func() string {
		for {
			t := ts[i%len(ts)]
			i++
			keys := g.tables[t.table].values[0]
			q := fmt.Sprintf("'%s' %s", keys[g.fixed.Intn(len(keys))], t.word)
			if !seen[q] {
				seen[q] = true
				return q
			}
		}
	}
}

func queryBody(q string) []byte {
	b, err := json.Marshal(server.QueryRequest{Q: q})
	if err != nil {
		panic(err) // a string always marshals
	}
	return b
}

// source builds a one-table source of rows rows and three attributes: one
// that reuses link's name and values (so the matcher aligns the two and
// joins find rows) and two fresh ones.
func (g *gen) source(name, strategy string, rows int, link linkAttr) sourceSpec {
	t := server.TableSpec{Name: g.word(), Attributes: []string{link.name, g.word(), g.word()}}
	for i := 0; i < rows; i++ {
		t.Rows = append(t.Rows, []string{link.values[g.r.Intn(len(link.values))], g.phrase(2), g.phrase(4)})
	}
	body, err := json.Marshal(server.RegisterRequest{Source: name, Strategy: strategy, Tables: []server.TableSpec{t}})
	if err != nil {
		panic(err)
	}
	s := sourceSpec{name: name, body: body}
	for _, row := range t.Rows {
		for _, cell := range row {
			s.cellBytes += len(cell)
		}
	}
	return s
}

// corpusLink is the i-th of the corpus' distinctive attributes, cyclically.
func (g *gen) corpusLink(i int) linkAttr { return g.links[i%len(g.links)] }

// phrase is one to maxWords two-syllable words from a small vocabulary, the
// shape of the free-text values in datasets.SyntheticValueCorpus.
func (g *gen) phrase(maxWords int) string {
	var b strings.Builder
	for i, n := 0, 1+g.r.Intn(maxWords); i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(syllables[g.r.Intn(len(syllables))])
		b.WriteString(syllables[g.r.Intn(len(syllables))])
	}
	return b.String()
}

// opListHash fingerprints the work of one (workload, seed): every op in
// order and every byte the ops refer to. Two runs that print the same hash
// sent the same requests in the same order.
func opListHash(p *plan) string {
	h := sha256.New()
	put := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	for _, q := range p.queries {
		put(q)
	}
	for _, q := range p.viewQueries {
		put(q)
	}
	for _, s := range p.sources {
		put(s.body)
	}
	for _, phase := range [][]op{p.main, p.floor} {
		for _, o := range phase {
			put([]byte{byte(o.kind)})
			var n [16]byte
			binary.LittleEndian.PutUint64(n[:8], uint64(o.a))
			binary.LittleEndian.PutUint64(n[8:], uint64(o.b))
			h.Write(n[:])
		}
		put(nil)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
