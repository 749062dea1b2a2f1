// Package text provides the string-similarity and information-retrieval
// primitives used throughout Q: tokenisation and normalisation of schema
// labels and data values, edit distance, character trigram overlap, token
// Jaccard similarity, and a tf-idf vectoriser with cosine scoring.
//
// The keyword-to-node match scores s_i of the paper's query graph (Figure 3)
// come from this package, as do the name-similarity components of the
// metadata matcher.
//
// Each string measure has one implementation. A caller that compares one
// string with many profiles it once with Prepare — normalised form, form
// without spaces, sorted distinct tokens, sorted packed trigram multiset and
// rune count — and scores pairs of Prepared values: token Jaccard is a
// merge of the token lists, trigram Dice a merge of the gram lists, and
// edit distance is bit-parallel (Myers 1999, Hyyrö 2003) whenever the
// shorter string is ASCII with at most 64 runes, so scoring ASCII names
// does not allocate; other strings take the two-row dynamic programme.
// ContainmentSimilarity, TrigramSimilarity and EditSimilarity are thin
// wrappers over the same implementations for callers holding plain
// strings. Every measure
// is computed from integer counts and lengths, so the prepared and plain
// forms return the same float64.
package text

import (
	"cmp"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Normalize lower-cases s and collapses runs of non-alphanumeric characters
// into single spaces. Schema labels such as "entry_ac", "entry-AC" and
// "Entry AC" all normalise to "entry ac".
func Normalize(s string) string {
	if isNormalized(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	prevSpace := true
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
			prevSpace = false
		default:
			if !prevSpace {
				b.WriteByte(' ')
				prevSpace = true
			}
		}
	}
	return strings.TrimSpace(b.String())
}

// isNormalized reports whether s is already in normal form — ASCII
// lower-case letters and digits separated by single interior spaces — so
// Normalize can return it without allocating. Data values on the executor
// hot path (selection push-down checks every scanned row) are usually
// already normal, and anything uncertain (uppercase, punctuation,
// non-ASCII) falls through to the general path.
func isNormalized(s string) bool {
	prevSpace := true // doubles as the no-leading-space check
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			prevSpace = false
		case c == ' ':
			if prevSpace {
				return false
			}
			prevSpace = true
		default:
			return false
		}
	}
	return !prevSpace || s == ""
}

// Tokenize splits s into normalised word tokens. CamelCase boundaries are
// treated as separators so that "entryAc" tokenises to ["entry", "ac"].
func Tokenize(s string) []string {
	// Insert spaces at lower->upper camel boundaries before normalising.
	var camel strings.Builder
	camel.Grow(len(s) + 4)
	runes := []rune(s)
	for i, r := range runes {
		if i > 0 && unicode.IsUpper(r) && unicode.IsLower(runes[i-1]) {
			camel.WriteByte(' ')
		}
		camel.WriteRune(r)
	}
	n := Normalize(camel.String())
	if n == "" {
		return nil
	}
	return strings.Fields(n)
}

// IsNumeric reports whether s consists only of digits, signs, decimal points
// and exponent markers — i.e. whether it looks like a number. The MAD graph
// builder prunes numeric values because they induce spurious associations
// between unrelated numeric columns (paper §5.2.1).
func IsNumeric(s string) bool {
	s = strings.TrimSpace(s)
	if s == "" {
		return false
	}
	seenDigit := false
	for i, r := range s {
		switch {
		case r >= '0' && r <= '9':
			seenDigit = true
		case r == '+' || r == '-':
			if i != 0 {
				return false
			}
		case r == '.' || r == ',':
			// decimal or thousands separator
		case r == 'e' || r == 'E':
			if !seenDigit {
				return false
			}
		default:
			return false
		}
	}
	return seenDigit
}

// Prepared is a string profiled once for the similarity measures, so that
// comparing it with many others repeats no per-string work.
type Prepared struct {
	Norm    string   // Normalize of the original string
	noSpace string   // Norm with its spaces removed
	tokens  []string // distinct space-separated tokens of Norm, sorted
	grams   []uint64 // trigrams of "##"+Norm+"##", three runes packed per gram, sorted
	runes   int      // rune count of Norm
}

// Prepare profiles s for the similarity measures.
func Prepare(s string) Prepared {
	n := Normalize(s)
	p := Prepared{
		Norm:    n,
		noSpace: strings.ReplaceAll(n, " ", ""),
		tokens:  appendTokens(nil, n),
		grams:   appendTrigrams(nil, n),
		runes:   utf8.RuneCountInString(n),
	}
	slices.Sort(p.grams)
	return p
}

// appendTokens appends the distinct space-separated tokens of s to dst,
// sorted.
func appendTokens(dst []string, s string) []string {
	start := len(dst)
	for t := range strings.FieldsSeq(s) {
		dst = append(dst, t)
	}
	slices.Sort(dst[start:])
	return dst[:start+len(slices.Compact(dst[start:]))]
}

// Containment scores how much p and q overlap, favouring substring
// containment: 0 when either normalises to empty, 1 when they normalise to
// the same string, else the max of token Jaccard and the containment ratio.
// This approximates the "substring matcher" component the paper uses from
// COMA++.
//
// The containment ratio is len(shorter)/len(longer), in bytes without
// spaces, when the longer contains the shorter as a substring once both
// lose their spaces, else 0. Shorter and longer are chosen by the byte
// length of the normalised strings WITH their spaces, and a tie keeps
// argument order, so the measure is not symmetric on ties:
// Containment of "a bc d" and "abcd e" is 0.8 (does "abcde" contain
// "abcd"?), the swapped call 0 (does "abcd" contain "abcde"?).
func (p *Prepared) Containment(q *Prepared) float64 {
	if p.Norm == "" || q.Norm == "" {
		return 0
	}
	if p.Norm == q.Norm {
		return 1
	}
	j := jaccardSorted(p.tokens, q.tokens)
	short, long := p, q
	if len(short.Norm) > len(long.Norm) {
		short, long = long, short
	}
	c := 0.0
	if len(long.noSpace) > 0 && strings.Contains(long.noSpace, short.noSpace) {
		c = float64(len(short.noSpace)) / float64(len(long.noSpace))
	}
	if c > j {
		return c
	}
	return j
}

// jaccardSorted is |A∩B| / |A∪B| over two sorted distinct token lists;
// two empty lists score 1, like Jaccard.
func jaccardSorted(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := common(a, b)
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// Trigram is the Dice coefficient over the trigram multisets of p.Norm and
// q.Norm: 2·|common| / (|A| + |B|), common counted with multiplicity.
func (p *Prepared) Trigram(q *Prepared) float64 {
	return dice(p.grams, q.grams)
}

// dice is 2·common / (|A| + |B|) over two sorted gram multisets.
func dice(a, b []uint64) float64 {
	return 2 * float64(common(a, b)) / float64(len(a)+len(b))
}

// common merges two sorted lists and counts the elements they share:
// equal elements pair off one to one, so for multisets it is Σ min(count
// in a, count in b), and for sets |a ∩ b|.
func common[T cmp.Ordered](a, b []T) int {
	n := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// appendTrigrams appends the character trigrams of "##" + s + "##" to dst,
// each packed as three 21-bit runes (every rune fits in 21 bits, so the
// packing is one to one). Invalid UTF-8 bytes read as U+FFFD, as a []rune
// conversion reads them. A string of r runes has r + 2 trigrams.
func appendTrigrams(dst []uint64, s string) []uint64 {
	const pad = uint64('#')
	const mask = 1<<63 - 1
	g := pad<<21 | pad // the window holds the last two runes
	for _, r := range s {
		g = (g<<21 | uint64(r)) & mask
		dst = append(dst, g)
	}
	for range 2 {
		g = (g<<21 | pad) & mask
		dst = append(dst, g)
	}
	return dst
}

// Edit maps the edit distance of p.Norm and q.Norm to a similarity in
// [0,1]: 1 - dist/max(runes).
func (p *Prepared) Edit(q *Prepared) float64 {
	return editSimilarity(p.Norm, p.runes, q.Norm, q.runes)
}

// ContainmentSimilarity is Prepared.Containment on two plain strings. Past
// the normalisation it allocates only where a string has spaces to drop or
// more than eight tokens, and only when the strings differ.
func ContainmentSimilarity(a, b string) float64 {
	var ta, tb [8]string
	na, nb := Normalize(a), Normalize(b)
	pa, pb := Prepared{Norm: na}, Prepared{Norm: nb}
	if na != "" && nb != "" && na != nb {
		// Only this case reads noSpace and tokens. (Reading the norms from
		// na and nb, not pa and pb, keeps ta and tb on the stack.)
		pa.noSpace, pa.tokens = strings.ReplaceAll(na, " ", ""), appendTokens(ta[:0], na)
		pb.noSpace, pb.tokens = strings.ReplaceAll(nb, " ", ""), appendTokens(tb[:0], nb)
	}
	return pa.Containment(&pb)
}

// TrigramSimilarity is the Dice coefficient over the character trigram
// multisets of a and b, as given (not normalised): Prepared.Trigram on
// plain strings. Only tests call it: meta's TestMatchEqualsOracle scores
// plain strings with it.
func TrigramSimilarity(a, b string) float64 {
	var ga, gb [32]uint64
	sa, sb := appendTrigrams(ga[:0], a), appendTrigrams(gb[:0], b)
	slices.Sort(sa)
	slices.Sort(sb)
	return dice(sa, sb)
}

// EditSimilarity maps edit distance to a similarity in [0,1]:
// 1 - dist/max(len). Identical strings score 1; disjoint strings approach 0.
// Only tests call it: meta's TestMatchEqualsOracle scores plain strings
// with it.
func EditSimilarity(a, b string) float64 {
	return editSimilarity(a, utf8.RuneCountInString(a), b, utf8.RuneCountInString(b))
}

func editSimilarity(a string, ra int, b string, rb int) float64 {
	if ra == 0 && rb == 0 {
		return 1
	}
	return 1 - float64(editDistance(a, ra, b, rb))/float64(max(ra, rb))
}

// editDistance is the Levenshtein distance of a (ra runes) and b (rb
// runes). The shorter string is the bit-parallel pattern when it is ASCII
// and at most 64 runes long; otherwise the two-row dynamic programme runs.
func editDistance(a string, ra int, b string, rb int) int {
	if ra < rb {
		a, ra, b, rb = b, rb, a, ra
	}
	switch {
	case rb == 0:
		return ra
	case rb > 64 || !isASCII(b):
		return editDistanceDP(a, b)
	default:
		return myersASCII(b, rb, a)
	}
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// myersASCII is the Levenshtein distance of an ASCII pattern of m ≤ 64
// runes and any text, computed bit-parallel after Myers (JACM 1999) in
// Hyyrö's formulation (2003) for the global distance: bit i of pv/mv
// records a +1/-1 vertical delta in row i+1 of the current DP column, and
// dist is the bottom cell D[m][j].
func myersASCII(pattern string, m int, text string) int {
	var peq [utf8.RuneSelf]uint64
	for i := 0; i < len(pattern); i++ {
		peq[pattern[i]] |= 1 << i
	}
	pv, mv, last, dist := ^uint64(0), uint64(0), uint64(1)<<(m-1), m
	for _, r := range text {
		var eq uint64
		if r < utf8.RuneSelf {
			eq = peq[r]
		}
		xv := eq | mv
		xh := ((eq & pv) + pv) ^ pv | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			dist++
		} else if mh&last != 0 {
			dist--
		}
		ph = ph<<1 | 1 // row 0 is D[0][j] = j: every horizontal delta there is +1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return dist
}

// editDistanceDP is the two-row Levenshtein dynamic programme, for
// patterns that are not ASCII or too long for one machine word.
func editDistanceDP(a, b string) int {
	ra, rb := []rune(a), []rune(b)
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
