package text

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

// The map-based measures below are the implementations the prepared
// measures replaced, kept verbatim as oracles: every production measure
// must return the same float64 (==, not within an epsilon) as its oracle.

// editDistanceOracle is the two-row dynamic programme over rune slices.
func editDistanceOracle(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func editSimilarityOracle(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	m := la
	if lb > m {
		m = lb
	}
	return 1 - float64(editDistanceOracle(a, b))/float64(m)
}

// NGrams returns the multiset (as a count map) of character n-grams of s,
// padded with (n-1) leading and trailing '#' markers so that prefixes and
// suffixes contribute distinct grams.
func NGrams(s string, n int) map[string]int {
	if n <= 0 {
		return nil
	}
	pad := strings.Repeat("#", n-1)
	p := pad + s + pad
	r := []rune(p)
	grams := make(map[string]int)
	for i := 0; i+n <= len(r); i++ {
		grams[string(r[i:i+n])]++
	}
	return grams
}

func ngramSimilarity(a, b string, n int) float64 {
	ga, gb := NGrams(a, n), NGrams(b, n)
	ta, tb := 0, 0
	for _, c := range ga {
		ta += c
	}
	for _, c := range gb {
		tb += c
	}
	if ta+tb == 0 {
		return 0
	}
	common := 0
	for g, ca := range ga {
		if cb, ok := gb[g]; ok {
			if cb < ca {
				common += cb
			} else {
				common += ca
			}
		}
	}
	return 2 * float64(common) / float64(ta+tb)
}

func containmentOracle(a, b string) float64 {
	na, nb := Normalize(a), Normalize(b)
	if na == "" || nb == "" {
		return 0
	}
	if na == nb {
		return 1
	}
	j := tokenJaccard(na, nb)
	c := containmentRatio(na, nb)
	if c > j {
		return c
	}
	return j
}

func tokenJaccard(a, b string) float64 {
	sa := make(map[string]struct{})
	for _, t := range strings.Fields(a) {
		sa[t] = struct{}{}
	}
	sb := make(map[string]struct{})
	for _, t := range strings.Fields(b) {
		sb[t] = struct{}{}
	}
	return setJaccard(sa, sb)
}

// setJaccard returns |A∩B| / |A∪B| for two string sets, the map-based
// token Jaccard the containment oracle scores with. Empty∩empty is defined
// as 1 (identical).
func setJaccard(a, b map[string]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for v := range small {
		if _, ok := large[v]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func containmentRatio(a, b string) float64 {
	short, long := a, b
	if len(short) > len(long) {
		short, long = long, short
	}
	if strings.Contains(strings.ReplaceAll(long, " ", ""), strings.ReplaceAll(short, " ", "")) {
		ls := len(strings.ReplaceAll(short, " ", ""))
		ll := len(strings.ReplaceAll(long, " ", ""))
		if ll == 0 {
			return 0
		}
		return float64(ls) / float64(ll)
	}
	return 0
}

// careCases are the pairs the prepared measures must get exactly right:
// equal byte lengths in the containment ratio (argument order decides),
// names that normalise to empty, names identical after normalisation,
// repeated tokens and grams, unicode and '#' next to the trigram padding,
// patterns at and past the 64-rune word, and invalid UTF-8.
var careCases = [][2]string{
	{"", ""}, {"", "x"}, {"___", "a"}, {"!!", "??"},
	{"a bc d", "abcd e"}, {"abcd e", "a bc d"}, {"ab", "ba"},
	{"Entry_AC", "entry-ac"}, {"entry ac", "entry_AC "},
	{"pub", "publication"}, {"pub_id", "publication_id"},
	{"aa aa", "aa"}, {"aaaa", "aaa"}, {"abab", "baba"},
	{"#a#", "a"}, {"##", "#"}, {"é", "e"}, {"éé", "é"},
	{"東京", "京都"}, {"naïve café", "naive cafe"}, {"İstanbul", "istanbul"},
	{"ß", "ss"}, {"\xff", "\xfe"}, {"a\xffb", "a\xfeb"}, {"\xff", "�"},
	{strings.Repeat("ab", 32), strings.Repeat("ba", 32)},
	{strings.Repeat("x", 64), strings.Repeat("x", 65)},
	{strings.Repeat("ab", 32) + "c", strings.Repeat("ba", 33)},
	{strings.Repeat("é", 64), strings.Repeat("e", 64)},
	{strings.Repeat("abc", 30), strings.Repeat("abd", 30)},
	{"kitten", "sitting"}, {"go term", "term name"},
}

// randomPairs draws pairs from a small alphabet (so grams and tokens
// repeat) with spaces, punctuation, '#', non-ASCII runes and lengths on
// both sides of 64 runes.
func randomPairs(n int, seed int64) [][2]string {
	alphabet := []rune("aabbc _-Xé東#")
	rng := rand.New(rand.NewSource(seed))
	word := func() string {
		l := rng.Intn(12)
		if rng.Intn(10) == 0 {
			l = 50 + rng.Intn(40)
		}
		r := make([]rune, l)
		for i := range r {
			r[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(r)
	}
	out := make([][2]string, n)
	for i := range out {
		a, b := word(), word()
		switch rng.Intn(4) {
		case 0: // share a prefix, so containment and grams overlap
			b = string([]rune(a)[:utf8.RuneCountInString(a)/2]) + b
		case 1:
			b = strings.ToUpper(a)
		}
		out[i] = [2]string{a, b}
	}
	return out
}

func allPairs() [][2]string {
	return append(append([][2]string{}, careCases...), randomPairs(5000, 1)...)
}

// TestWrappersEqualOracles requires every plain-string wrapper to return
// exactly what its oracle returns.
func TestWrappersEqualOracles(t *testing.T) {
	for _, c := range allPairs() {
		a, b := c[0], c[1]
		if got, want := EditDistance(a, b), editDistanceOracle(a, b); got != want {
			t.Errorf("EditDistance(%q, %q) = %d, oracle %d", a, b, got, want)
		}
		if got, want := EditSimilarity(a, b), editSimilarityOracle(a, b); got != want {
			t.Errorf("EditSimilarity(%q, %q) = %v, oracle %v", a, b, got, want)
		}
		if got, want := TrigramSimilarity(a, b), ngramSimilarity(a, b, 3); got != want {
			t.Errorf("TrigramSimilarity(%q, %q) = %v, oracle %v", a, b, got, want)
		}
		if got, want := ContainmentSimilarity(a, b), containmentOracle(a, b); got != want {
			t.Errorf("ContainmentSimilarity(%q, %q) = %v, oracle %v", a, b, got, want)
		}
	}
}

// TestPreparedEqualOracles requires the prepared measures to return what
// the oracles return on the normalised strings.
func TestPreparedEqualOracles(t *testing.T) {
	for _, c := range allPairs() {
		pa, pb := Prepare(c[0]), Prepare(c[1])
		na, nb := Normalize(c[0]), Normalize(c[1])
		if got, want := pa.Containment(&pb), containmentOracle(c[0], c[1]); got != want {
			t.Errorf("Containment(%q, %q) = %v, oracle %v", c[0], c[1], got, want)
		}
		if got, want := pa.Trigram(&pb), ngramSimilarity(na, nb, 3); got != want {
			t.Errorf("Trigram(%q, %q) = %v, oracle %v", na, nb, got, want)
		}
		if got, want := pa.Edit(&pb), editSimilarityOracle(na, nb); got != want {
			t.Errorf("Edit(%q, %q) = %v, oracle %v", na, nb, got, want)
		}
	}
}

// TestPrepare pins the prepared form of one string, its grams against the
// oracle's n-gram map.
func TestPrepare(t *testing.T) {
	p := Prepare("Go_term go")
	if p.Norm != "go term go" || p.noSpace != "gotermgo" || p.runes != 10 {
		t.Errorf("Prepare = %+v", p)
	}
	if fmt.Sprint(p.tokens) != "[go term]" {
		t.Errorf("tokens = %q, want [go term]", p.tokens)
	}
	want := map[uint64]int{}
	for g, n := range NGrams(p.Norm, 3) {
		var packed uint64
		for _, r := range g {
			packed = packed<<21 | uint64(r)
		}
		want[packed] = n
	}
	got := map[uint64]int{}
	for i, g := range p.grams {
		if i > 0 && p.grams[i-1] > g {
			t.Fatalf("grams not sorted: %v", p.grams)
		}
		got[g]++
	}
	if len(p.grams) != p.runes+2 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("grams = %v, want %v", got, want)
	}
}

// TestContainmentAsymmetry pins a latent asymmetry rather than fixing it
// (a fix would move alignments): the containment ratio picks shorter and
// longer by the byte length of the normalised strings with spaces, and on
// a tie keeps argument order. "a bc d" and "abcd e" are both 6 bytes;
// without spaces "abcde" contains "abcd" but not the other way round.
func TestContainmentAsymmetry(t *testing.T) {
	if got := ContainmentSimilarity("a bc d", "abcd e"); got != 0.8 {
		t.Errorf(`ContainmentSimilarity("a bc d", "abcd e") = %v, want 0.8`, got)
	}
	if got := ContainmentSimilarity("abcd e", "a bc d"); got != 0 {
		t.Errorf(`ContainmentSimilarity("abcd e", "a bc d") = %v, want 0`, got)
	}
}

// TestWrapperAllocs pins the wrappers' allocations: ContainmentSimilarity
// on normalised strings allocates only to drop spaces (one string here has
// one) and not at all for equal strings, and TrigramSimilarity and
// EditDistance on short ASCII strings not at all.
func TestWrapperAllocs(t *testing.T) {
	cases := []struct {
		name string
		want float64
		f    func()
	}{
		{"ContainmentSimilarity", 1, func() { ContainmentSimilarity("go 0001000", "go0001000x") }},
		{"ContainmentSimilarityEqual", 0, func() { ContainmentSimilarity("go 0001000", "go 0001000") }},
		{"TrigramSimilarity", 0, func() { TrigramSimilarity("plasma membrane", "membrane") }},
		{"EditDistance", 0, func() { EditDistance("plasma membrane", "membrane") }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, c.f); got != c.want {
			t.Errorf("%s: %v allocs per call, want %v", c.name, got, c.want)
		}
	}
}

// FuzzEditDistance compares the bit-parallel distance with the DP oracle,
// on both sides of the 64-rune pattern limit, non-ASCII and invalid UTF-8
// included, and the similarity wrappers with theirs.
func FuzzEditDistance(f *testing.F) {
	for _, c := range careCases {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if d, want := EditDistance(a, b), editDistanceOracle(a, b); d != want {
			t.Fatalf("EditDistance(%q, %q) = %d, oracle %d (runes %d, %d)",
				a, b, d, want, utf8.RuneCountInString(a), utf8.RuneCountInString(b))
		}
		if got, want := EditSimilarity(a, b), editSimilarityOracle(a, b); got != want {
			t.Fatalf("EditSimilarity(%q, %q) = %v, oracle %v", a, b, got, want)
		}
		if got, want := TrigramSimilarity(a, b), ngramSimilarity(a, b, 3); got != want {
			t.Fatalf("TrigramSimilarity(%q, %q) = %v, oracle %v", a, b, got, want)
		}
		if got, want := ContainmentSimilarity(a, b), containmentOracle(a, b); got != want {
			t.Fatalf("ContainmentSimilarity(%q, %q) = %v, oracle %v", a, b, got, want)
		}
	})
}

// corpusOracle is the tf-idf corpus the postings corpus replaced, kept as
// the oracle: it caches an idf table and one normalised vector per
// document, rebuilt lazily after every Add, and scores a query against
// every document. TopMatches must return exactly its matches, scores
// compared with ==.
type corpusOracle struct {
	docs    []document
	df      map[string]int // document frequency per term
	dirty   bool
	idf     map[string]float64
	vectors []oracleVector // normalised tf-idf vectors, built lazily
}

// oracleVector is a sparse tf-idf vector: one weight per distinct term,
// sorted by term.
type oracleVector []oracleWeight

type oracleWeight struct {
	term string
	w    float64
}

func newCorpusOracle() *corpusOracle {
	return &corpusOracle{df: make(map[string]int)}
}

func (c *corpusOracle) Add(id, content string) {
	tokens := Tokenize(content)
	c.docs = append(c.docs, document{id: id, tokens: tokens})
	seen := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		if !seen[t] {
			seen[t] = true
			c.df[t]++
		}
	}
	c.dirty = true
}

func (c *corpusOracle) Clone() *corpusOracle {
	df := make(map[string]int, len(c.df))
	for k, v := range c.df {
		df[k] = v
	}
	return &corpusOracle{
		docs:    append([]document(nil), c.docs...),
		df:      df,
		dirty:   c.dirty,
		idf:     c.idf,
		vectors: append([]oracleVector(nil), c.vectors...),
	}
}

func (c *corpusOracle) rebuild() {
	n := float64(len(c.docs))
	c.idf = make(map[string]float64, len(c.df))
	for t, df := range c.df {
		c.idf[t] = math.Log(1+n/float64(df)) + 1e-9
	}
	c.vectors = make([]oracleVector, len(c.docs))
	for i, d := range c.docs {
		c.vectors[i] = c.vectorize(slices.Clone(d.tokens))
	}
	c.dirty = false
}

// vectorize builds an L2-normalised tf-idf vector for the given tokens,
// which it sorts in place. The norm is summed in term order.
func (c *corpusOracle) vectorize(tokens []string) oracleVector {
	if len(tokens) == 0 {
		return nil
	}
	slices.Sort(tokens)
	v := make(oracleVector, 0, len(tokens))
	for i := 0; i < len(tokens); {
		j := i + 1
		for j < len(tokens) && tokens[j] == tokens[i] {
			j++
		}
		idf, ok := c.idf[tokens[i]]
		if !ok {
			idf = math.Log(1 + float64(len(c.docs)))
		}
		v = append(v, oracleWeight{tokens[i], float64(j-i) * idf})
		i = j
	}
	var norm float64
	for _, tw := range v {
		norm += tw.w * tw.w
	}
	if norm == 0 {
		return nil
	}
	norm = math.Sqrt(norm)
	for i := range v {
		v[i].w /= norm
	}
	return v
}

func (c *corpusOracle) TopMatches(query string, minScore float64, limit int) []Match {
	if c.dirty {
		c.rebuild()
	}
	qv := c.vectorize(Tokenize(query))
	if len(qv) == 0 {
		return nil
	}
	var out []Match
	for i, d := range c.docs {
		s := math.Round(innerOracle(qv, c.vectors[i])*1e9) / 1e9
		if s >= minScore && s > 0 {
			out = append(out, Match{ID: d.id, Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// innerOracle is the merge inner product over two sorted vectors, summing
// the shared terms in term order.
func innerOracle(a, b oracleVector) float64 {
	var s float64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := strings.Compare(a[i].term, b[j].term); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			s += a[i].w * b[j].w
			i++
			j++
		}
	}
	return s
}

// sameMatches reports whether two match lists are identical: the same ids
// in the same order (ties included) and bitwise-equal scores.
func sameMatches(a, b []Match) bool {
	return slices.EqualFunc(a, b, func(x, y Match) bool {
		return x.ID == y.ID && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}

// checkTopMatches compares the corpus with the oracle on every query under
// a few (minScore, limit) pairs.
func checkTopMatches(t *testing.T, label string, c *Corpus, o *corpusOracle, queries []string) {
	t.Helper()
	for _, q := range queries {
		for _, p := range []struct {
			minScore float64
			limit    int
		}{{-1, 0}, {0, 0}, {0.01, 3}, {0.3, 1}, {0.7, 0}} {
			got, want := c.TopMatches(q, p.minScore, p.limit), o.TopMatches(q, p.minScore, p.limit)
			if !sameMatches(got, want) {
				t.Fatalf("%s: TopMatches(%q, %v, %d) = %v, oracle %v", label, q, p.minScore, p.limit, got, want)
			}
		}
	}
}

// labelDocs draws n schema-label-like documents from a small vocabulary, so
// terms repeat within and across documents.
func labelDocs(n int, seed int64) []string {
	vocab := []string{"go", "term", "name", "id", "pub", "entry", "ac", "gene", "protein", "interpro", "title", "acc", "type", "x"}
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		words := make([]string, 1+rng.Intn(6))
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		out[i] = strings.Join(words, " ")
	}
	return out
}

// tfidfQueries is labelDocs queries plus the edge shapes: empty, unknown
// terms alone and mixed with known ones, repeated terms, camel case and
// separators.
func tfidfQueries(seed int64) []string {
	return append(labelDocs(40, seed), "", "unknown", "go zebra", "zebra yak",
		"go go term", "Pub_ID", "goTermName", "entry-AC title", "x x x gene")
}

// TestTfidfMatchesOracle pins TopMatches to the corpus oracle, ties and
// score bits included, over random corpora and clone chains: every
// generation of a chain, cloned and then extended, must still answer as an
// oracle holding exactly its documents.
func TestTfidfMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		docs := labelDocs(20+rng.Intn(200), seed)
		queries := tfidfQueries(seed + 100)
		c, o := NewCorpus(), newCorpusOracle()
		var gens []*Corpus
		var oracles []*corpusOracle
		for i, d := range docs {
			c.Add(fmt.Sprint(i), d)
			o.Add(fmt.Sprint(i), d)
			if rng.Intn(40) == 0 {
				gens, oracles = append(gens, c), append(oracles, o)
				c, o = c.Clone(), o.Clone()
			}
		}
		gens, oracles = append(gens, c), append(oracles, o)
		for g := range gens {
			checkTopMatches(t, fmt.Sprintf("seed %d generation %d", seed, g), gens[g], oracles[g], queries)
		}
	}
}

// TestVectorNormIsOrderFree pins the determinism the term-order sums buy:
// whatever order a corpus's documents and each document's tokens arrive in,
// TopMatches returns the same matches with the same score bits — equal to
// the oracle over the same insertion order and to the corpus built in
// canonical order.
func TestVectorNormIsOrderFree(t *testing.T) {
	docs := labelDocs(120, 3)
	queries := tfidfQueries(5)
	canonical := NewCorpus()
	for i, d := range docs {
		canonical.Add(fmt.Sprint(i), d)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		c, o := NewCorpus(), newCorpusOracle()
		for _, i := range rng.Perm(len(docs)) {
			words := strings.Fields(docs[i])
			rng.Shuffle(len(words), func(a, b int) { words[a], words[b] = words[b], words[a] })
			shuffled := strings.Join(words, " ")
			c.Add(fmt.Sprint(i), shuffled)
			o.Add(fmt.Sprint(i), shuffled)
		}
		checkTopMatches(t, fmt.Sprintf("trial %d", trial), c, o, queries)
		for _, q := range queries {
			if got, want := c.TopMatches(q, 0, 0), canonical.TopMatches(q, 0, 0); !sameMatches(got, want) {
				t.Fatalf("trial %d: TopMatches(%q) = %v, canonical order %v", trial, q, got, want)
			}
		}
	}
}

// TestCloneLeavesOriginalUntouched pins copy-on-write: while a clone adds
// documents that share the original's terms, concurrent TopMatches on the
// original stay bitwise identical. A second clone then extends the same
// postings lists differently, and the original and both clones must each
// still answer as an oracle holding exactly their own documents. The
// original's "alpha" list has spare capacity, so a Clone that did not cap
// the lists would let both clones append into one slot and the second
// clone's append would overwrite the first's.
func TestCloneLeavesOriginalUntouched(t *testing.T) {
	c, o := NewCorpus(), newCorpusOracle()
	for i, d := range []string{"alpha beta", "alpha gamma", "alpha delta", "beta gamma", "delta"} {
		c.Add(fmt.Sprint(i), d)
		o.Add(fmt.Sprint(i), d)
	}
	queries := []string{"alpha", "beta", "gamma delta", "alpha beta gamma", "epsilon alpha"}
	before := make([][]Match, len(queries))
	for i, q := range queries {
		before[i] = c.TopMatches(q, 0, 0)
	}
	extend := func(c *Corpus, o *corpusOracle, prefix string, docs ...string) {
		for i, d := range docs {
			c.Add(fmt.Sprintf("%s%d", prefix, i), d)
			o.Add(fmt.Sprintf("%s%d", prefix, i), d)
		}
	}
	a, oa := c.Clone(), o.Clone()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				for i, q := range queries {
					if got := c.TopMatches(q, 0, 0); !sameMatches(got, before[i]) {
						t.Errorf("original TopMatches(%q) = %v during clone writes, was %v", q, got, before[i])
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		extend(a, oa, "a", "alpha beta gamma", "epsilon")
	}()
	wg.Wait()
	b, ob := c.Clone(), o.Clone()
	extend(b, ob, "b", "zeta", "alpha delta beta")
	checkTopMatches(t, "original", c, o, queries)
	checkTopMatches(t, "clone a", a, oa, queries)
	checkTopMatches(t, "clone b", b, ob, queries)
}

// FuzzTopMatchesEquivalence fuzzes the corpus against the oracle: the
// documents are the lines of docs, bit i of clones clones both corpora after
// document i (earlier generations are kept and checked too), and every
// generation must answer query — and each document as a query — exactly as
// its oracle does under minScore and limit.
func FuzzTopMatchesEquivalence(f *testing.F) {
	f.Add("GO term\nterm name\npublication title\nentry_ac", "term", 0.01, 0, uint64(0))
	f.Add("alpha beta\nalpha\nalpha alpha gamma\nbeta", "alpha beta", 0.0, 2, uint64(0b101))
	f.Add("goTermName\ngo_term\n\nGO:0005886 plasma membrane", "go unknown", 0.3, 1, uint64(0b11))
	f.Add("x\nx\nx", "x x", -1.0, 0, uint64(0b111))
	f.Fuzz(func(t *testing.T, docs, query string, minScore float64, limit int, clones uint64) {
		// Bounded inputs keep every execution fast: at most 2 KiB of text
		// in at most 24 documents.
		lines := strings.Split(docs[:min(len(docs), 2048)], "\n")
		lines = lines[:min(len(lines), 24)]
		c, o := NewCorpus(), newCorpusOracle()
		var gens []*Corpus
		var oracles []*corpusOracle
		for i, d := range lines {
			c.Add(fmt.Sprint(i), d)
			o.Add(fmt.Sprint(i), d)
			if clones&(1<<i) != 0 {
				gens, oracles = append(gens, c), append(oracles, o)
				c, o = c.Clone(), o.Clone()
			}
		}
		gens, oracles = append(gens, c), append(oracles, o)
		queries := append([]string{query}, lines...)
		for g := range gens {
			for _, q := range queries {
				got, want := gens[g].TopMatches(q, minScore, limit), oracles[g].TopMatches(q, minScore, limit)
				if !sameMatches(got, want) {
					t.Fatalf("generation %d: TopMatches(%q, %v, %d) = %v, oracle %v", g, q, minScore, limit, got, want)
				}
			}
		}
	})
}
