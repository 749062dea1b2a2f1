package text

import (
	"math"
	"slices"
	"sort"
	"strings"
)

// Corpus is a tf-idf index over a collection of documents. Documents are
// short strings (schema labels, data values); Q uses one Corpus over all
// schema elements and indexed values to score keyword matches (paper §2.2:
// "by default tf-idf").
//
// The zero value is not usable; construct with NewCorpus and call Add before
// Score. Adding documents after the first Score call is permitted — idf is
// recomputed lazily.
type Corpus struct {
	docs    []document
	df      map[string]int // document frequency per term
	byID    map[string]int // external id -> index in docs
	dirty   bool
	idf     map[string]float64
	vectors []vector // normalised tf-idf vectors, built lazily
}

// vector is a sparse tf-idf vector: one weight per distinct term, sorted by
// term. Every sum over it runs in term order, so a score is the same float
// bit for bit whatever order the tokens or documents arrived in.
type vector []termWeight

type termWeight struct {
	term string
	w    float64
}

type document struct {
	id     string
	tokens []string
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{
		df:   make(map[string]int),
		byID: make(map[string]int),
	}
}

// Add indexes a document under id. Re-adding an existing id replaces its
// content.
func (c *Corpus) Add(id, content string) {
	tokens := Tokenize(content)
	if idx, ok := c.byID[id]; ok {
		for _, t := range uniqueTokens(c.docs[idx].tokens) {
			c.df[t]--
			if c.df[t] <= 0 {
				delete(c.df, t)
			}
		}
		c.docs[idx].tokens = tokens
	} else {
		c.byID[id] = len(c.docs)
		c.docs = append(c.docs, document{id: id, tokens: tokens})
	}
	for _, t := range uniqueTokens(tokens) {
		c.df[t]++
	}
	c.dirty = true
}

// Len returns the number of indexed documents.
func (c *Corpus) Len() int { return len(c.docs) }

// Flush rebuilds the idf table and document vectors if any Add happened
// since the last scoring. A flushed corpus serves Score and TopMatches as
// pure reads, which is what lets Q publish one corpus snapshot to many
// concurrent queries: the writer flushes before publishing, so no reader
// ever triggers the lazy rebuild.
func (c *Corpus) Flush() {
	if c.dirty {
		c.rebuild()
	}
}

// Clone returns a copy-on-write clone: the document slice, frequency table
// and id index are copied (token slices and built vectors are immutable and
// shared). Adding to the clone leaves the original untouched, so a
// published corpus snapshot stays frozen while a registration indexes new
// schema labels into the next generation.
func (c *Corpus) Clone() *Corpus {
	df := make(map[string]int, len(c.df))
	for k, v := range c.df {
		df[k] = v
	}
	byID := make(map[string]int, len(c.byID))
	for k, v := range c.byID {
		byID[k] = v
	}
	return &Corpus{
		docs:    append([]document(nil), c.docs...),
		df:      df,
		byID:    byID,
		dirty:   c.dirty,
		idf:     c.idf,
		vectors: append([]vector(nil), c.vectors...),
	}
}

func uniqueTokens(tokens []string) []string {
	seen := make(map[string]struct{}, len(tokens))
	var out []string
	for _, t := range tokens {
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

func (c *Corpus) rebuild() {
	n := float64(len(c.docs))
	c.idf = make(map[string]float64, len(c.df))
	for t, df := range c.df {
		// Smoothed idf; always positive so single-document corpora still rank.
		c.idf[t] = math.Log(1+n/float64(df)) + 1e-9
	}
	c.vectors = make([]vector, len(c.docs))
	for i, d := range c.docs {
		// Document token slices are shared with other generations: sort a
		// copy.
		c.vectors[i] = c.vectorize(slices.Clone(d.tokens))
	}
	c.dirty = false
}

// vectorize builds an L2-normalised tf-idf vector for the given tokens,
// which it sorts in place. The norm is summed in term order.
func (c *Corpus) vectorize(tokens []string) vector {
	if len(tokens) == 0 {
		return nil
	}
	slices.Sort(tokens)
	v := make(vector, 0, len(tokens))
	for i := 0; i < len(tokens); {
		j := i + 1
		for j < len(tokens) && tokens[j] == tokens[i] {
			j++
		}
		idf, ok := c.idf[tokens[i]]
		if !ok {
			idf = math.Log(1 + float64(len(c.docs)))
		}
		v = append(v, termWeight{tokens[i], float64(j-i) * idf})
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

// Score returns the cosine similarity in [0,1] between the query string and
// the document registered under id. Unknown ids score 0.
func (c *Corpus) Score(query, id string) float64 {
	if c.dirty {
		c.rebuild()
	}
	idx, ok := c.byID[id]
	if !ok {
		return 0
	}
	qv := c.vectorize(Tokenize(query))
	return dot(qv, c.vectors[idx])
}

// Match holds one ranked corpus hit for a query.
type Match struct {
	ID    string
	Score float64
}

// TopMatches returns the documents whose cosine similarity with query is at
// least minScore, ranked best-first, at most limit entries (limit <= 0 means
// no limit). Ties break on document id for determinism.
func (c *Corpus) TopMatches(query string, minScore float64, limit int) []Match {
	if c.dirty {
		c.rebuild()
	}
	qv := c.vectorize(Tokenize(query))
	if len(qv) == 0 {
		return nil
	}
	var out []Match
	for i, d := range c.docs {
		s := dot(qv, c.vectors[i])
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

// dot returns the inner product quantised to 1e-9, so that scores equal up
// to rounding noise tie exactly and rank by document id.
func dot(a, b vector) float64 {
	return math.Round(inner(a, b)*1e9) / 1e9
}

// inner is the inner product of two vectors, a merge over their sorted
// terms that sums the shared ones in term order.
func inner(a, b vector) float64 {
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
