package relstore

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"qint/internal/pool"
	"qint/internal/text"
)

// This file is the incremental inverted value index behind FindValues: a
// character-trigram index from normalised text to posting lists of distinct
// attribute values. It replaces the per-keyword full catalog scan —
// previously the dominant per-query cost on large catalogs — while
// preserving the scan's case-insensitive-substring contract exactly: the
// scan survives only as a test oracle (oracle_test.go), and the metamorphic
// suites in valueindex_test.go and the FuzzFindValuesEquivalence target pin
// byte-identical results against it.
//
// Structure. The index is split by table: each *Table gets one immutable
// segment holding the table's distinct (attribute, value) entries — sorted
// by attribute then value — with each entry's normalised form, row count
// and first row, plus one flat posting index over entry ids keyed by every
// character trigram of the normalised value. The posting index is three
// arrays — the keys in ascending order, one offset per key and one id
// array — so key i's ascending id list is ids[off[i]:off[i+1]]; a key is
// its trigram's three runes packed into one integer (a gram code, see
// gramRuneBits). An attribute's entries are its ascending distinct values,
// so Values and ValueOverlap read them too. A value is its table's row
// string, and a normalised value is its value whenever normalising changes
// nothing; the segments section leans on both (binary.go) and writes a
// value as its first row, and a normalised value only when it differs.
//
// Segments are a plain catalog field, written only by the writers:
// BuildValueIndex builds every missing one, LoadSegments installs decoded
// ones, and Clone copies the map, so a registration that clones the catalog
// and adds one table indexes ONLY that table, and every published
// copy-on-write generation keeps reading the same frozen segments. A read
// that reaches an unindexed table builds a throwaway segment and keeps
// nothing; the engine indexes every table it adds, so its reads never do.
//
// Lookup. A keyword is normalised, then:
//   - len ≥ 3 runes: candidates are the intersection of the keyword's
//     trigram posting lists (smallest first; any absent trigram short-
//     circuits to no hits; a key is found by binary search). Each candidate
//     is verified with one strings.Contains over its precomputed normalised
//     value.
//   - len < 3 runes (shorter than the trigram width): deterministic
//     fallback — every entry of the segment is verified directly. This
//     still touches only distinct values with precomputed normalisations,
//     never raw rows.
//
// Hits from all segments are merged under the same final ordering as the
// reference scan, so results are deterministic and identical to it.

// indexEntry is one distinct (attribute, value) pair of a table: the raw
// value, its normalised form, how many rows carry it, and the first of
// them, through which the segments section refers to the value instead of
// repeating it.
type indexEntry struct {
	attr int32 // attribute index within the relation
	row  int32 // the first row carrying val in that attribute's column
	val  string
	norm string
	rows int32
}

// segment is the immutable per-table part of the value index.
type segment struct {
	rel       string   // qualified relation name
	attrs     []string // attribute names, declaration order
	entries   []indexEntry
	attrStart []int    // entries[attrStart[i]:attrStart[i+1]] belong to attribute i
	grams     postings // normalised-value trigram (gram code) -> ascending entry ids
}

// segment returns the value-index segment of the named table: the
// catalog's own, or a throwaway one when the table is unindexed.
func (c *Catalog) segment(qn string) *segment {
	if s := c.segs[qn]; s != nil {
		return s
	}
	return buildSegment(c.tables[qn])
}

// span returns attribute i's entries: its distinct values, ascending.
func (s *segment) span(i int) []indexEntry {
	return s.entries[s.attrStart[i]:s.attrStart[i+1]]
}

// postings is a segment's immutable trigram posting index over its entry
// ids: gram codes strictly ascending, and key i's ascending id list
// ids[off[i]:off[i+1]]. The whole index is three allocations, however many
// keys it holds.
type postings struct {
	keys []uint64
	off  []int32 // len(keys)+1 entries; nil when there are no keys
	ids  []int32
}

// lookup returns key's id list and whether the key is present.
func (p *postings) lookup(key uint64) ([]int32, bool) {
	i, ok := slices.BinarySearch(p.keys, key)
	if !ok {
		return nil, false
	}
	return p.list(i), true
}

// list returns key i's id list.
func (p *postings) list(i int) []int32 { return p.ids[p.off[i]:p.off[i+1]] }

// A gram code packs a trigram's three runes into one key, 21 bits a rune,
// first rune highest. Every rune fits in 21 bits, so the numeric order of
// codes is the lexicographic order of the rune triples, which on valid
// UTF-8 is the byte order of the trigram strings.
const (
	gramRuneBits = 21
	gramMask     = 1<<(3*gramRuneBits) - 1
	gramRuneMask = 1<<gramRuneBits - 1
)

// validGram reports whether code packs three valid runes — none past
// U+10FFFF, no surrogate — and so is the code of some trigram string.
func validGram(code uint64) bool {
	if code > gramMask {
		return false
	}
	for shift := 0; shift <= 2*gramRuneBits; shift += gramRuneBits {
		if !utf8.ValidRune(rune(code >> shift & gramRuneMask)) {
			return false
		}
	}
	return true
}

// forEachGram calls fn with the code of every run of three consecutive runes
// of s, in order and with repeats. Ranging over s decodes an invalid byte to
// U+FFFD, as the []rune conversion does; text.Normalize emits valid UTF-8,
// so normalised values never carry one.
func forEachGram(s string, fn func(code uint64)) {
	var code uint64
	n := 0
	for _, r := range s {
		code = (code<<gramRuneBits | uint64(r)) & gramMask
		if n++; n >= 3 {
			fn(code)
		}
	}
}

// gramBuilder gathers a trigram posting index while buildSegment walks the
// entries in id order: it records every (code, entry id) pair and orders
// them by a stable radix sort on the codes, which leaves each code's ids
// ascending, with repeats next to each other.
type gramBuilder struct {
	codes      []uint64 // every code posted, in id order
	ids        []int32  // by position in codes: the entry id
	order, tmp []int32  // finish's scratch: positions in code order
}

// add posts id under code. Ids must arrive in ascending order.
func (b *gramBuilder) add(code uint64, id int32) {
	b.codes = append(b.codes, code)
	b.ids = append(b.ids, id)
}

// finish lays the gathered postings out flat, codes ascending, each id
// once per code, and empties the builder.
func (b *gramBuilder) finish() postings {
	if len(b.codes) == 0 {
		return postings{}
	}
	b.order = radixSort(b.codes, b.order[:0], &b.tmp)
	nKeys, nIDs := 0, 0
	for i, pos := range b.order {
		if i == 0 || b.codes[pos] != b.codes[b.order[i-1]] {
			nKeys++
			nIDs++
		} else if b.ids[pos] != b.ids[b.order[i-1]] {
			nIDs++
		}
	}
	p := postings{keys: make([]uint64, 0, nKeys), off: make([]int32, 0, nKeys+1), ids: make([]int32, 0, nIDs)}
	for i, pos := range b.order {
		code, id := b.codes[pos], b.ids[pos]
		if i == 0 || code != b.codes[b.order[i-1]] {
			p.keys = append(p.keys, code)
			p.off = append(p.off, int32(len(p.ids)))
		} else if id == b.ids[b.order[i-1]] {
			continue // the code occurs twice in one value
		}
		p.ids = append(p.ids, id)
	}
	p.off = append(p.off, int32(len(p.ids)))
	b.codes, b.ids = b.codes[:0], b.ids[:0]
	return p
}

// radixSort appends to order the positions of codes in ascending code
// order, equal codes in position order: an LSD radix sort with one pass
// per byte in which the codes differ (trigrams of ASCII runes differ in
// five of their eight bytes). tmp is scratch, kept for the next call.
func radixSort(codes []uint64, order []int32, tmp *[]int32) []int32 {
	var and, or uint64 = ^uint64(0), 0
	for i, c := range codes {
		and &= c
		or |= c
		order = append(order, int32(i))
	}
	src, dst := order, slices.Grow((*tmp)[:0], len(codes))[:len(codes)]
	for shift := uint(0); shift < 64; shift += 8 {
		if (and^or)>>shift&0xff == 0 {
			continue // every code has the same byte here
		}
		var start [256]int32
		for _, c := range codes {
			start[c>>shift&0xff]++
		}
		sum := int32(0)
		for i, n := range start {
			start[i] = sum
			sum += n
		}
		for _, pos := range src {
			d := codes[pos] >> shift & 0xff
			dst[start[d]] = pos
			start[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &order[0] {
		copy(order, src)
		src, dst = order, src
	}
	*tmp = dst[:0]
	return src
}

// maxScratchKeys is the most distinct values of one attribute whose map a
// pooled segment builder keeps for the next table: clearing a map costs
// its capacity, so one huge table must not make every later small one pay
// for it.
const maxScratchKeys = 1 << 12

// segmentBuilder is buildSegment's working storage, pooled so that a
// run of builds — a restore indexing its replayed tables — reuses its maps
// and lists instead of growing fresh ones per table. Nothing a segment
// keeps points into it.
type segmentBuilder struct {
	seen  []map[string]int32 // per attribute: distinct value -> its position in vals
	stats [][]firstRows      // per attribute, by position: first row and row count
	vals  [][]string         // per attribute: distinct values in first-seen order
	grams gramBuilder
}

// firstRows is a distinct value's first row and row count.
type firstRows struct{ row, rows int32 }

var segmentBuilders = sync.Pool{New: func() any { return new(segmentBuilder) }}

// buildSegment indexes one table: distinct values with row counts per
// attribute, sorted by (attribute, value), plus trigram postings over the
// normalised forms. Posting lists come out sorted because entry ids are
// assigned in final entry order.
func buildSegment(t *Table) *segment {
	b := segmentBuilders.Get().(*segmentBuilder)
	defer segmentBuilders.Put(b)
	nAttr := len(t.Relation.Attributes)
	s := &segment{
		rel:       t.Relation.QualifiedName(),
		attrs:     make([]string, nAttr),
		attrStart: make([]int, nAttr+1),
	}
	// Per attribute, each distinct value's first row and row count, and
	// its position in that list.
	for len(b.seen) < nAttr {
		b.seen = append(b.seen, nil)
		b.stats = append(b.stats, nil)
		b.vals = append(b.vals, nil)
	}
	seen, stats, vals := b.seen[:nAttr], b.stats[:nAttr], b.vals[:nAttr]
	for i, a := range t.Relation.Attributes {
		s.attrs[i] = a.Name
		if seen[i] == nil {
			seen[i] = make(map[string]int32)
		}
	}
	for ri, row := range t.Rows {
		for ai := 0; ai < nAttr; ai++ {
			v := row[ai]
			if v == "" {
				continue
			}
			if i, ok := seen[ai][v]; ok {
				stats[ai][i].rows++
				continue
			}
			seen[ai][v] = int32(len(vals[ai]))
			vals[ai] = append(vals[ai], v)
			stats[ai] = append(stats[ai], firstRows{int32(ri), 1})
		}
	}
	n := 0
	for _, vs := range vals {
		n += len(vs)
	}
	s.entries = make([]indexEntry, 0, n)
	for ai, vs := range vals {
		s.attrStart[ai] = len(s.entries)
		slices.Sort(vs)
		for _, v := range vs {
			st := stats[ai][seen[ai][v]]
			s.entries = append(s.entries, indexEntry{
				attr: int32(ai),
				row:  st.row,
				val:  v,
				norm: text.Normalize(v),
				rows: st.rows,
			})
		}
	}
	s.attrStart[nAttr] = len(s.entries)
	for i := range seen { // a pooled builder must not pin a table's strings
		if len(seen[i]) > maxScratchKeys {
			seen[i] = nil
		} else {
			clear(seen[i])
		}
		clear(vals[i])
		stats[i], vals[i] = stats[i][:0], vals[i][:0]
	}
	grams := &b.grams
	for id, e := range s.entries {
		forEachGram(e.norm, func(code uint64) { grams.add(code, int32(id)) })
	}
	s.grams = grams.finish()
	return s
}

// find appends this segment's hits for the (already normalised, non-empty)
// keyword to out, in (attribute, value) order. trigrams is the keyword's
// deduplicated trigram code list, computed once per lookup by the caller;
// nil means the keyword is below the trigram width.
func (s *segment) find(nkw string, trigrams []uint64, out []ValueHit) []ValueHit {
	if trigrams == nil {
		// Short-keyword fallback: verify every distinct value directly.
		for _, e := range s.entries {
			if strings.Contains(e.norm, nkw) {
				out = append(out, s.hit(e))
			}
		}
		return out
	}
	for _, id := range s.trigramCandidates(trigrams) {
		if e := s.entries[id]; strings.Contains(e.norm, nkw) {
			out = append(out, s.hit(e))
		}
	}
	return out
}

func (s *segment) hit(e indexEntry) ValueHit {
	return ValueHit{
		Ref:   AttrRef{Relation: s.rel, Attr: s.attrs[e.attr]},
		Value: e.val,
		Rows:  int(e.rows),
	}
}

// keywordTrigrams returns the deduplicated trigram codes of an
// already-normalised keyword, ascending, or nil when it is below the trigram
// width. Computed once per FindValues call and shared by every segment.
func keywordTrigrams(nkw string) []uint64 {
	n := utf8.RuneCountInString(nkw)
	if n < 3 {
		return nil
	}
	grams := make([]uint64, 0, n-2)
	forEachGram(nkw, func(code uint64) { grams = append(grams, code) })
	slices.Sort(grams)
	return slices.Compact(grams)
}

// trigramCandidates intersects the posting lists of the keyword's distinct
// trigrams, smallest list first. Any absent trigram means no value can
// contain the keyword.
func (s *segment) trigramCandidates(trigrams []uint64) []int32 {
	lists := make([][]int32, 0, len(trigrams))
	for _, g := range trigrams {
		l, ok := s.grams.lookup(g)
		if !ok {
			return nil
		}
		lists = append(lists, l)
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	cand := lists[0]
	for _, l := range lists[1:] {
		cand = intersectSorted(cand, l)
		if len(cand) == 0 {
			return nil
		}
	}
	return cand
}

// intersectSorted intersects two ascending id lists. The result aliases
// neither input.
func intersectSorted(a, b []int32) []int32 {
	out := make([]int32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// sortHits puts hits into the canonical FindValues order: by relation, then
// attribute, then value. The comparison is field-wise — Ref.String() is not
// injective (a relation name may itself contain dots), and a non-total
// comparator would let sort.Slice leave ties in input order. The index and
// the reference scan share this total order, so the two are byte-identical.
func sortHits(hits []ValueHit) {
	sort.Slice(hits, func(i, j int) bool {
		a, b := hits[i], hits[j]
		if a.Ref.Relation != b.Ref.Relation {
			return a.Ref.Relation < b.Ref.Relation
		}
		if a.Ref.Attr != b.Ref.Attr {
			return a.Ref.Attr < b.Ref.Attr
		}
		return a.Value < b.Value
	})
}

// FindValues returns the distinct values that contain the keyword
// (case-insensitive substring over normalised text). Q's query-graph
// expansion uses this to lazily materialise value nodes for each keyword
// (paper §2.2). Results are deterministic: sorted by attribute then value.
//
// It answers from the inverted value index, table by table in registration
// order. The hits are sorted under the canonical (relation, attribute,
// value) total order, so results are identical to a full scan of every row
// in content and order.
func (c *Catalog) FindValues(keyword string) []ValueHit {
	kw := text.Normalize(keyword)
	if kw == "" {
		return nil
	}
	trigrams := keywordTrigrams(kw)
	var hits []ValueHit
	for _, qn := range c.order {
		hits = c.segment(qn).find(kw, trigrams, hits)
	}
	sortHits(hits)
	return hits
}

// BuildValueIndex builds the segment of every unindexed table: the pure
// builds fan out through BuildSegments, and the catalog is then written
// serially. Writer-side, like AddTable. Indexing a table exactly once is
// the index's whole maintenance: nothing global ever rebuilds. The
// engine's writers index a new table before anything reads its values; a
// restore indexes the tables its WAL tail replays beside the replay
// (BuildSegments) and then the tables its snapshot holds no segment for,
// since replay reads no values.
func (c *Catalog) BuildValueIndex(workers int) {
	var missing []*Table
	for _, qn := range c.order {
		if c.segs[qn] == nil {
			missing = append(missing, c.tables[qn])
		}
	}
	c.AddSegments(BuildSegments(missing, workers))
}

// Segments is the value-index segments of some tables, built before or
// while the tables enter a catalog.
type Segments struct {
	tables []*Table
	segs   []*segment
}

// BuildSegments builds the segment of every table, one task per table on
// the engine's worker pool (pool.Run; workers <= 1 builds serially). It
// reads only the tables, so it may run beside writes to the catalog they
// are entering.
func BuildSegments(tables []*Table, workers int) Segments {
	s := Segments{tables: tables, segs: make([]*segment, len(tables))}
	pool.Run(len(tables), workers, func(i int) error {
		s.segs[i] = buildSegment(tables[i])
		return nil
	})
	return s
}

// AddSegments installs each segment of s whose table is the one c holds
// under its name and has not indexed yet. Writer-side, like AddTable.
func (c *Catalog) AddSegments(s Segments) {
	for i, t := range s.tables {
		if qn := t.Relation.QualifiedName(); c.tables[qn] == t && c.segs[qn] == nil {
			c.segs[qn] = s.segs[i]
		}
	}
}
