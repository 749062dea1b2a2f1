package text

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
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
	return Jaccard(sa, sb)
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

// vectorizeOracle is the map-based tf-idf vector the sorted vectors
// replaced, kept as an oracle: its norm sums in map iteration order, so its
// low bits vary run to run and it is compared within 1e-12, not with ==.
func vectorizeOracle(c *Corpus, tokens []string) map[string]float64 {
	if len(tokens) == 0 {
		return nil
	}
	tf := make(map[string]float64)
	for _, t := range tokens {
		tf[t]++
	}
	var norm float64
	for t := range tf {
		idf, ok := c.idf[t]
		if !ok {
			idf = math.Log(1 + float64(len(c.docs)))
		}
		tf[t] = tf[t] * idf
		norm += tf[t] * tf[t]
	}
	if norm == 0 {
		return nil
	}
	norm = math.Sqrt(norm)
	for t := range tf {
		tf[t] /= norm
	}
	return tf
}

// innerOracle is the map-order inner product, before quantisation.
func innerOracle(a, b map[string]float64) float64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	var s float64
	for t, va := range a {
		if vb, ok := b[t]; ok {
			s += va * vb
		}
	}
	return s
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

// TestTfidfMatchesOracle pins the sorted vectors and the merge inner
// product to the map-based oracle within 1e-12 before quantisation, for
// every (query, document) pair, and the two vectors' term sets to each
// other.
func TestTfidfMatchesOracle(t *testing.T) {
	docs := labelDocs(300, 1)
	c := NewCorpus()
	for i, d := range docs {
		c.Add(fmt.Sprint(i), d)
	}
	c.Flush()
	queries := append(labelDocs(40, 2), "", "unknown", "go go term", "Pub_ID")
	for i, d := range c.docs {
		want := vectorizeOracle(c, d.tokens)
		if len(c.vectors[i]) != len(want) {
			t.Fatalf("doc %q: %d terms, oracle %d", docs[i], len(c.vectors[i]), len(want))
		}
		for _, tw := range c.vectors[i] {
			if math.Abs(tw.w-want[tw.term]) > 1e-12 {
				t.Fatalf("doc %q term %q: weight %v, oracle %v", docs[i], tw.term, tw.w, want[tw.term])
			}
		}
	}
	for _, q := range queries {
		qv := c.vectorize(Tokenize(q))
		qo := vectorizeOracle(c, Tokenize(q))
		for i, d := range c.docs {
			got, want := inner(qv, c.vectors[i]), innerOracle(qo, vectorizeOracle(c, d.tokens))
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("inner(%q, %q) = %v, oracle %v", q, docs[i], got, want)
			}
		}
	}
}

// TestVectorNormIsOrderFree pins the determinism the sorted vectors buy:
// whatever order a document's tokens and the corpus's documents arrive in,
// every weight — hence the norm it was divided by — equals bit for bit a
// reference that sums the squared weights in sorted term order.
func TestVectorNormIsOrderFree(t *testing.T) {
	docs := labelDocs(120, 3)
	reference := func(c *Corpus, tokens []string) map[string]float64 {
		counts := make(map[string]float64)
		for _, tok := range tokens {
			counts[tok]++
		}
		terms := make([]string, 0, len(counts))
		for tok := range counts {
			terms = append(terms, tok)
		}
		sort.Strings(terms)
		var norm float64
		for _, tok := range terms {
			counts[tok] *= c.idf[tok]
			norm += counts[tok] * counts[tok]
		}
		norm = math.Sqrt(norm)
		for _, tok := range terms {
			counts[tok] /= norm
		}
		return counts
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		c := NewCorpus()
		for _, i := range rng.Perm(len(docs)) {
			words := strings.Fields(docs[i])
			rng.Shuffle(len(words), func(a, b int) { words[a], words[b] = words[b], words[a] })
			c.Add(fmt.Sprint(i), strings.Join(words, " "))
		}
		c.Flush()
		for i, d := range docs {
			v := c.vectors[c.byID[fmt.Sprint(i)]]
			want := reference(c, Tokenize(d))
			if len(v) != len(want) {
				t.Fatalf("trial %d doc %q: %d terms, reference %d", trial, d, len(v), len(want))
			}
			for _, tw := range v {
				if math.Float64bits(tw.w) != math.Float64bits(want[tw.term]) {
					t.Fatalf("trial %d doc %q term %q: weight %v, sorted-order reference %v", trial, d, tw.term, tw.w, want[tw.term])
				}
			}
		}
	}
}
