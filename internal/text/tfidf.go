package text

import (
	"math"
	"slices"
	"sort"
)

// Corpus is a tf-idf index over a collection of documents. Documents are
// short strings (schema labels, data values); Q uses one Corpus over all
// schema elements and indexed values to score keyword matches (paper §2.2:
// "by default tf-idf").
//
// The corpus stores only each document's tokens and one postings list per
// term; a term's document frequency is the length of its list. Weights are
// derived from (n, df) when a query scores a document, so adding a document
// never rebuilds anything and every read is pure. The zero value is not
// usable; construct with NewCorpus. Callers give every document a distinct
// id: Add does not look for an earlier document under the same id.
type Corpus struct {
	docs []document
	post map[string][]int32 // term -> ascending indexes of the docs containing it
}

type document struct {
	id     string
	tokens []string // sorted
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{post: make(map[string][]int32)}
}

// Add indexes a document under id, which no earlier document may carry.
func (c *Corpus) Add(id, content string) {
	tokens := Tokenize(content)
	slices.Sort(tokens)
	di := int32(len(c.docs))
	c.docs = append(c.docs, document{id: id, tokens: tokens})
	for i, t := range tokens {
		if i == 0 || t != tokens[i-1] {
			c.post[t] = append(c.post[t], di)
		}
	}
}

// Clone returns a copy-on-write clone. The postings map is copied with
// every list (and the document slice) capped at its length, so the first
// append on either side copies the list: adding to the clone leaves the
// original untouched, and a published corpus snapshot stays frozen while a
// registration indexes new schema labels into the next generation.
func (c *Corpus) Clone() *Corpus {
	post := make(map[string][]int32, len(c.post))
	for t, p := range c.post {
		post[t] = p[:len(p):len(p)]
	}
	return &Corpus{docs: c.docs[:len(c.docs):len(c.docs)], post: post}
}

// weight is the tf-idf weight of a term occurring tf times when df of the
// n documents contain it. The idf is smoothed and always positive, so
// single-document corpora still rank; a query term no document contains
// (df = 0) weighs log(1 + n).
func weight(tf, n, df int) float64 {
	if df == 0 {
		return float64(tf) * math.Log(1+float64(n))
	}
	return float64(tf) * (math.Log(1+float64(n)/float64(df)) + 1e-9)
}

// queryTerm is one distinct query term: its weight in the L2-normalised
// query vector, its postings not yet merged, and the raw weight the
// document being scored gives it (0 when the document lacks it).
type queryTerm struct {
	term string
	w    float64
	post []int32
	dw   float64
}

// queryVector builds the normalised query vector over the given tokens,
// which it sorts in place, one entry per distinct term in term order. The
// norm is summed in term order. It returns nil for an empty or zero vector.
func (c *Corpus) queryVector(tokens []string) []queryTerm {
	slices.Sort(tokens)
	qv := make([]queryTerm, 0, len(tokens))
	for i := 0; i < len(tokens); {
		j := i + 1
		for j < len(tokens) && tokens[j] == tokens[i] {
			j++
		}
		p := c.post[tokens[i]]
		qv = append(qv, queryTerm{term: tokens[i], w: weight(j-i, len(c.docs), len(p)), post: p})
		i = j
	}
	var norm float64
	for _, t := range qv {
		norm += t.w * t.w
	}
	if norm == 0 {
		return nil
	}
	norm = math.Sqrt(norm)
	for i := range qv {
		qv[i].w /= norm
	}
	return qv
}

// score returns the cosine similarity of the query vector and the document
// with the given sorted tokens, quantised to 1e-9 so that scores equal up to
// rounding noise tie exactly and rank by document id. The document's norm
// and the inner product are both summed in term order, so a score is the
// same float bit for bit whatever order the tokens or documents arrived in.
func (c *Corpus) score(qv []queryTerm, tokens []string) float64 {
	for i := range qv {
		qv[i].dw = 0
	}
	var norm float64
	k := 0
	for i := 0; i < len(tokens); {
		j := i + 1
		for j < len(tokens) && tokens[j] == tokens[i] {
			j++
		}
		w := weight(j-i, len(c.docs), len(c.post[tokens[i]]))
		norm += w * w
		for k < len(qv) && qv[k].term < tokens[i] {
			k++
		}
		if k < len(qv) && qv[k].term == tokens[i] {
			qv[k].dw = w
		}
		i = j
	}
	norm = math.Sqrt(norm)
	var s float64
	for _, t := range qv {
		if t.dw != 0 {
			s += t.w * (t.dw / norm)
		}
	}
	return math.Round(s*1e9) / 1e9
}

// Match holds one ranked corpus hit for a query.
type Match struct {
	ID    string
	Score float64
}

// TopMatches returns the documents whose cosine similarity with query is at
// least minScore, ranked best-first, at most limit entries (limit <= 0 means
// no limit). Ties break on document id for determinism. Only documents
// sharing a term with the query can score above 0, so it scores the union
// of the query terms' postings and nothing else.
func (c *Corpus) TopMatches(query string, minScore float64, limit int) []Match {
	qv := c.queryVector(Tokenize(query))
	var out []Match
	for {
		// The next candidate is the least document index at the head of any
		// term's postings, which are then advanced past it.
		d := int32(-1)
		for _, t := range qv {
			if len(t.post) > 0 && (d < 0 || t.post[0] < d) {
				d = t.post[0]
			}
		}
		if d < 0 {
			break
		}
		for i := range qv {
			if len(qv[i].post) > 0 && qv[i].post[0] == d {
				qv[i].post = qv[i].post[1:]
			}
		}
		if s := c.score(qv, c.docs[d].tokens); s >= minScore && s > 0 {
			out = append(out, Match{ID: c.docs[d].id, Score: s})
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
