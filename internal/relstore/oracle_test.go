package relstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"qint/internal/binio"
	"qint/internal/pool"
	"qint/internal/text"
)

// This file holds the reference implementations the production read paths
// are verified against. They are the code the production paths replaced,
// kept verbatim as test oracles: nothing outside the tests can select them.
//
//   - scanFindValues is the full-scan FindValues: every row of every table,
//     each value normalised per keyword. The inverted value index must match
//     it byte for byte (valueindex_test.go, binary_test.go,
//     relstore_test.go, FuzzFindValuesEquivalence).
//   - scanValues and scanOverlap are the row-scan value sets behind Values,
//     ValueOverlap and OverlappingAttrPairs, which read segment spans
//     instead (TestReadsNeverIndex, TestValueSetFromIndexSegments,
//     TestIndexFindValuesConcurrent).
//   - executeOracle is the materialise-everything executor over the naive
//     first-connected join order (naiveJoinOrder): no structural planner,
//     no streaming. Execute, ExecuteBatch, BatchPlan.Execute and
//     BatchPlan.TopKUnion must match it byte for byte (stream_test.go,
//     planner_test.go, FuzzExecuteEquivalence, FuzzPlanEquivalence).
//   - ExecuteBatch is the full-batch executor over one BatchPlan: every
//     branch, no top-k bound, fanned across workers. It is the reference
//     TopKUnion's prefix is compared with.
//   - postEntryOracle is the map-based value-index posting build, with a
//     per-entry seen set and trigrams cut from []rune, and
//     saveSegmentsOracle the map-based segment encoder, writing each map
//     under sorted keys in the retired QSEGb1 layout. buildSegment's flat
//     trigram postings must hold the same lists, and saveSegmentsV1Oracle
//     must write the same bytes (TestSegmentPostingsMatchOracle). The
//     oracle also posts every entry's whole tokens (strings.Fields), which
//     only the retired layouts carry.
//   - saveSegmentsV1Oracle and loadSegmentsV1Oracle are the QSEGb1 segment
//     codec, which wrote every value, normalised form and key as a string.
//     SaveSegments and LoadSegments must round-trip the same segments
//     field for field (TestSegmentCodecMatchesV1Oracle), and a restore
//     that meets a QSEGb1 section indexes its tables from their rows
//     instead (TestRestoreRebuildsRetiredSegments in internal/core).
//   - saveSegmentsV2Oracle writes the retired QSEGb2 layout, the QSEGb3
//     layout plus each segment's token postings. LoadSegments refuses it
//     by name and installs nothing (TestLoadSegmentsRefusesRetiredLayouts).

// executor is one way to run a conjunctive query.
type executor struct {
	name string
	run  func(*Catalog, *ConjunctiveQuery) (*ResultSet, error)
}

// executors pairs production Execute with its oracle, for the tests that pin
// one behaviour (an error, a regression shape) on both.
var executors = []executor{{"production", Execute}, {"oracle", executeOracle}}

// scanFindValues is the reference FindValues implementation: a full scan of
// every row of every table, normalising each value per keyword.
func scanFindValues(c *Catalog, keyword string) []ValueHit {
	kw := text.Normalize(keyword)
	if kw == "" {
		return nil
	}
	var hits []ValueHit
	for _, qn := range c.order {
		t := c.tables[qn]
		for ai, attr := range t.Relation.Attributes {
			counts := make(map[string]int)
			for _, row := range t.Rows {
				v := row[ai]
				if v == "" {
					continue
				}
				if strings.Contains(text.Normalize(v), kw) {
					counts[v]++
				}
			}
			for v, n := range counts {
				hits = append(hits, ValueHit{
					Ref:   AttrRef{Relation: qn, Attr: attr.Name},
					Value: v,
					Rows:  n,
				})
			}
		}
	}
	sortHits(hits)
	return hits
}

// postingMaps is the map form of a segment's trigram postings and of the
// whole-token postings the retired layouts carried: key -> ascending entry
// ids.
type postingMaps struct {
	grams, tokens map[string][]int32
}

// postingsOracle posts every entry of a segment through postEntryOracle.
func postingsOracle(s *segment) postingMaps {
	m := postingMaps{grams: make(map[string][]int32), tokens: make(map[string][]int32)}
	for id, e := range s.entries {
		postEntryOracle(m, int32(id), e.norm)
	}
	return m
}

// postEntryOracle is the reference posting build: one entry's distinct
// trigrams (cut from its []rune conversion) and tokens, deduplicated through
// a per-entry set, appended to the posting maps.
func postEntryOracle(m postingMaps, id int32, norm string) {
	seen := make(map[string]struct{})
	r := []rune(norm)
	for i := 0; i+3 <= len(r); i++ {
		g := string(r[i : i+3])
		if _, dup := seen[g]; dup {
			continue
		}
		seen[g] = struct{}{}
		m.grams[g] = append(m.grams[g], id)
	}
	for _, tok := range strings.Fields(norm) {
		key := "\x00" + tok // token namespace, cannot collide with trigrams
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		m.tokens[tok] = append(m.tokens[tok], id)
	}
}

// scanValues is the reference Values: the attribute's distinct non-empty
// values, gathered from every row and sorted; nil for an unknown relation or
// attribute.
func scanValues(c *Catalog, ref AttrRef) []string {
	t := c.tables[ref.Relation]
	if t == nil {
		return nil
	}
	i := t.Relation.AttrIndex(ref.Attr)
	if i < 0 {
		return nil
	}
	set := make(map[string]struct{})
	for _, row := range t.Rows {
		if v := row[i]; v != "" {
			set[v] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// scanOverlap is the reference ValueOverlap: the size of the intersection of
// the two row-scanned value sets.
func scanOverlap(c *Catalog, a, b AttrRef) int {
	in := make(map[string]bool)
	for _, v := range scanValues(c, a) {
		in[v] = true
	}
	n := 0
	for _, v := range scanValues(c, b) {
		if in[v] {
			n++
		}
	}
	return n
}

// scanOverlappingAttrPairs is the reference OverlappingAttrPairs over
// scanOverlap.
func scanOverlappingAttrPairs(c *Catalog, a, b *Relation) map[[2]AttrRef]bool {
	out := make(map[[2]AttrRef]bool)
	for _, aa := range a.Attributes {
		for _, bb := range b.Attributes {
			ra := AttrRef{Relation: a.QualifiedName(), Attr: aa.Name}
			rb := AttrRef{Relation: b.QualifiedName(), Attr: bb.Name}
			if scanOverlap(c, ra, rb) > 0 {
				out[[2]AttrRef{ra, rb}] = true
			}
		}
	}
	return out
}

// indexOne indexes one table of the catalog, as BuildValueIndex would, and
// leaves the others unindexed.
func indexOne(c *Catalog, qn string) { c.segs[qn] = buildSegment(c.tables[qn]) }

// saveSegmentsOracle is the reference segment encoder: saveSegmentsV1Oracle
// with each segment's postings rebuilt by postingsOracle and written as
// maps under sorted keys.
func saveSegmentsOracle(c *Catalog, w io.Writer) error {
	b := binio.NewWriter(w)
	b.Raw(segmentsV1Magic)
	var segs []*segment
	for _, qn := range c.order {
		if s := c.segs[qn]; s != nil {
			segs = append(segs, s)
		}
	}
	b.Uvarint(uint64(len(segs)))
	for _, s := range segs {
		b.Str(s.rel)
		b.Uvarint(uint64(len(s.attrs)))
		for _, a := range s.attrs {
			b.Str(a)
		}
		for _, off := range s.attrStart {
			b.Uvarint(uint64(off))
		}
		b.Uvarint(uint64(len(s.entries)))
		for _, e := range s.entries {
			b.Str(e.val)
			b.Str(e.norm)
			b.Uvarint(uint64(e.rows))
		}
		m := postingsOracle(s)
		writePostingMapOracle(b, m.grams)
		writePostingMapOracle(b, m.tokens)
	}
	return b.Flush()
}

// saveSegmentsV2Oracle encodes the segment of every indexed table in the
// retired QSEGb2 layout: the QSEGb3 segment (SaveSegments), then its token
// keys — the count, then per key, ascending, the id list postingsOracle
// posts and the index of the key's first occurrence among the fields of
// its first entry's norm.
func saveSegmentsV2Oracle(c *Catalog, w io.Writer) error {
	b := binio.NewWriter(w)
	b.Raw(segmentsV2Magic)
	var pos []int
	for i, qn := range c.order {
		if c.segs[qn] != nil {
			pos = append(pos, i)
		}
	}
	b.Uvarint(uint64(len(pos)))
	for _, p := range pos {
		s := c.segs[c.order[p]]
		b.Uvarint(uint64(p))
		for _, off := range s.attrStart {
			b.Uvarint(uint64(off))
		}
		b.Uvarint(uint64(len(s.entries)))
		for _, e := range s.entries {
			b.Uvarint(uint64(e.row))
			if e.norm != e.val {
				b.Uvarint(uint64(e.rows)<<1 | 1)
				b.Str(e.norm)
			} else {
				b.Uvarint(uint64(e.rows) << 1)
			}
		}
		b.Uvarint(uint64(len(s.grams.keys)))
		prev := uint64(0)
		for i, code := range s.grams.keys {
			b.Uvarint(code - prev)
			prev = code
			b.IDs(s.grams.list(i))
		}
		tokens := postingsOracle(s).tokens
		b.Uvarint(uint64(len(tokens)))
		for _, tok := range slices.Sorted(maps.Keys(tokens)) {
			ids := tokens[tok]
			b.IDs(ids)
			b.Uvarint(uint64(slices.Index(strings.Fields(s.entries[ids[0]].norm), tok)))
		}
	}
	return b.Flush()
}

func writePostingMapOracle(b *binio.Writer, m map[string][]int32) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		b.Str(k)
		writeIDsOracle(b, m[k])
	}
}

// writeIDsOracle encodes one ascending id list: its length, then the ids
// as deltas.
func writeIDsOracle(b *binio.Writer, ids []int32) {
	b.Uvarint(uint64(len(ids)))
	prev := int32(0)
	for _, id := range ids {
		b.Uvarint(uint64(id - prev))
		prev = id
	}
}

// saveSegmentsV1Oracle encodes the segment of every indexed table in the
// retired QSEGb1 layout: per segment the relation and attribute names, then
// every entry's value, normalised form and row count, then the trigram and
// token posting indexes with their keys as strings, the tokens as
// postingsOracle posts them.
func saveSegmentsV1Oracle(c *Catalog, w io.Writer) error {
	b := binio.NewWriter(w)
	b.Raw(segmentsV1Magic)
	var segs []*segment
	for _, qn := range c.order {
		if s := c.segs[qn]; s != nil {
			segs = append(segs, s)
		}
	}
	b.Uvarint(uint64(len(segs)))
	var gram []byte
	for _, s := range segs {
		b.Str(s.rel)
		b.Uvarint(uint64(len(s.attrs)))
		for _, a := range s.attrs {
			b.Str(a)
		}
		for _, off := range s.attrStart {
			b.Uvarint(uint64(off))
		}
		b.Uvarint(uint64(len(s.entries)))
		for _, e := range s.entries {
			b.Str(e.val)
			b.Str(e.norm)
			b.Uvarint(uint64(e.rows))
		}
		b.Uvarint(uint64(len(s.grams.keys)))
		for i, code := range s.grams.keys {
			gram = appendGram(gram[:0], code)
			b.Bytes(gram)
			writeIDsOracle(b, s.grams.list(i))
		}
		writePostingMapOracle(b, postingsOracle(s).tokens)
	}
	if err := b.Flush(); err != nil {
		return fmt.Errorf("relstore: save segments: %w", err)
	}
	return nil
}

// readPostings decodes one posting index into flat arrays — the keys, one
// offset per key and the ids, as postings holds them; scratch collects the
// ids and is reused across calls. key parses a section key, reporting
// false for one the index cannot hold. Keys must ascend strictly, and every
// id is checked as it is decoded: each list must ascend strictly from 0 and
// stay below nEntries, so a corrupt delta can neither wrap an id negative
// nor point past the segment's entries.
func readPostings[K uint64 | string](r *binio.Reader, nEntries int, key func(string) (K, bool), scratch *[]int32) ([]K, []int32, []int32) {
	n := r.Count("posting key")
	if r.Err() != nil || n == 0 {
		return nil, nil, nil
	}
	keys, off := make([]K, n), make([]int32, n+1)
	ids := (*scratch)[:0]
	for i := 0; i < n && r.Err() == nil; i++ {
		raw := r.Str()
		k, ok := key(raw)
		if r.Err() == nil && (!ok || i > 0 && k <= keys[i-1]) {
			r.Failf("posting key %q is malformed or not above its predecessor", raw)
		}
		keys[i] = k
		ln := r.Count("posting id")
		var id uint64
		for j := 0; j < ln; j++ {
			d := r.Uvarint()
			if r.Err() != nil {
				break
			}
			// d < nEntries-id keeps id+d in range and cannot overflow.
			if (j > 0 && d == 0) || d >= uint64(nEntries)-id {
				r.Failf("posting list %q is not ascending below %d entries", raw, nEntries)
				break
			}
			id += d
			ids = append(ids, int32(id))
		}
		off[i+1] = int32(len(ids))
	}
	*scratch = ids
	if r.Err() != nil {
		return nil, nil, nil
	}
	return keys, off, slices.Clone(ids)
}

// appendGram appends the UTF-8 form of a trigram code to dst.
func appendGram(dst []byte, code uint64) []byte {
	const runeMask = 1<<gramRuneBits - 1
	for shift := 2 * gramRuneBits; shift >= 0; shift -= gramRuneBits {
		dst = utf8.AppendRune(dst, rune(code>>shift&runeMask))
	}
	return dst
}

// parseGram packs a section's trigram key. It reports false unless the key
// is exactly three validly encoded runes, so that appendGram gives back the
// same bytes.
func parseGram(key string) (uint64, bool) {
	var code uint64
	for i := 0; i < 3; i++ {
		r, size := utf8.DecodeRuneInString(key)
		if r == utf8.RuneError && size <= 1 {
			return 0, false
		}
		code = code<<gramRuneBits | uint64(r)
		key = key[size:]
	}
	return code, key == ""
}

func tokenKey(s string) (string, bool) { return s, true }

// loadSegmentsV1Oracle decodes a saveSegmentsV1Oracle section and installs
// each segment verbatim as its table's segment. A segment naming a
// relation absent from the catalog or already indexed, or attributes other
// than its table's, is an error, and so is an attribute span holding an
// empty value or values not strictly ascending, or token postings other
// than those postingsOracle posts for the entries. The layout carries no
// rows, so each entry's first row is found in its table, and a value no
// row carries is an error.
func loadSegmentsV1Oracle(c *Catalog, data []byte) error {
	r := binio.NewReader(data, segmentsV1Magic)
	var scratch []int32
	nSegs := r.Count("segment")
	for si := 0; si < nSegs && r.Err() == nil; si++ {
		s := &segment{rel: r.Str()}
		nAttr := r.Count("attribute")
		s.attrs = make([]string, nAttr)
		for i := range s.attrs {
			s.attrs[i] = r.Str()
		}
		s.attrStart = make([]int, nAttr+1)
		for i := range s.attrStart {
			s.attrStart[i] = int(r.Uvarint())
		}
		nEntries := r.Count("entry")
		if r.Err() == nil {
			ok := s.attrStart[0] == 0 && s.attrStart[nAttr] == nEntries
			for i := 0; ok && i < nAttr; i++ {
				ok = s.attrStart[i] <= s.attrStart[i+1]
			}
			if !ok {
				r.Failf("segment %s attribute spans disagree with %d entries", s.rel, nEntries)
				break
			}
		}
		s.entries = make([]indexEntry, nEntries)
		ai := 0
		for i := range s.entries {
			for ai < nAttr && i >= s.attrStart[ai+1] {
				ai++
			}
			e := indexEntry{
				attr: int32(ai),
				val:  r.Str(),
				norm: r.Str(),
				rows: int32(r.Uvarint()),
			}
			if r.Err() == nil && (e.val == "" || i > s.attrStart[ai] && e.val <= s.entries[i-1].val) {
				r.Failf("segment %s entry %q is empty or not above its predecessor", s.rel, e.val)
			}
			s.entries[i] = e
		}
		s.grams.keys, s.grams.off, s.grams.ids = readPostings(r, nEntries, parseGram, &scratch)
		toks, off, ids := readPostings(r, nEntries, tokenKey, &scratch)
		if r.Err() != nil {
			break
		}
		tokens := make(map[string][]int32, len(toks))
		for i, tok := range toks {
			tokens[tok] = ids[off[i]:off[i+1]]
		}
		if !maps.EqualFunc(tokens, postingsOracle(s).tokens, slices.Equal) {
			return fmt.Errorf("relstore: load segments: %s token postings disagree with its entries", s.rel)
		}
		t := c.tables[s.rel]
		if t == nil {
			return fmt.Errorf("relstore: load segments: segment for unknown relation %s", s.rel)
		}
		if c.segs[s.rel] != nil {
			return fmt.Errorf("relstore: load segments: second segment for %s", s.rel)
		}
		if !slices.EqualFunc(s.attrs, t.Relation.Attributes, func(a string, b Attribute) bool { return a == b.Name }) {
			return fmt.Errorf("relstore: load segments: segment for %s disagrees with its table's attributes", s.rel)
		}
		if err := firstRowsOracle(s, t); err != nil {
			return err
		}
		c.segs[s.rel] = s
	}
	if r.Err() != nil {
		return fmt.Errorf("relstore: load segments: %w", r.Err())
	}
	return nil
}

// firstRowsOracle sets each entry's row to the first row of t carrying its
// value in its attribute's column.
func firstRowsOracle(s *segment, t *Table) error {
	type cell struct {
		attr int32
		val  string
	}
	first := make(map[cell]int32)
	for ri := len(t.Rows) - 1; ri >= 0; ri-- {
		for ai, v := range t.Rows[ri] {
			first[cell{int32(ai), v}] = int32(ri)
		}
	}
	for i := range s.entries {
		e := &s.entries[i]
		row, ok := first[cell{e.attr, e.val}]
		if !ok {
			return fmt.Errorf("relstore: load segments: %s has no row carrying %q", s.rel, e.val)
		}
		e.row = row
	}
	return nil
}

// executeOracle evaluates a conjunctive query by materialising every
// intermediate relation in full: selection and self-filter push-down, then
// one hash or nested-loop join per atom in the naive first-connected order
// (naiveJoinOrder), each producing a complete intermediate row set, then
// projection with set-semantics dedup. Join keys and dedup keys use the
// length-prefixed row-identity encoding, so they are collision-free for
// values containing NUL bytes, embedded spaces or empty strings. The hash
// build side is whichever input is smaller — neither that choice nor the join
// order can change a byte of the sorted, deduplicated output.
func executeOracle(c *Catalog, q *ConjunctiveQuery) (*ResultSet, error) {
	p, err := planQuery(c, q)
	if err != nil {
		return nil, err
	}
	atoms := p.atoms

	// Materialise each atom's filtered rows: pushed-down selections plus
	// self-filter join conditions (t.a = t.b), which are per-row predicates
	// on the atom itself. The old join-binding loop could never apply them —
	// an alias's columns bind only after its own join step, so the colOf
	// lookup failed and the condition was silently dropped.
	filtered := make([][][]string, len(atoms))
	for i, a := range atoms {
		if len(a.sels) == 0 && len(a.selfs) == 0 {
			filtered[i] = a.rows
			continue
		}
		var kept [][]string
		for _, row := range a.rows {
			if rowAdmits(row, a.sels, a.selfs) {
				kept = append(kept, row)
			}
		}
		filtered[i] = kept
	}

	// Incrementally build tuples. colOf maps alias.attr -> column index in
	// the intermediate row.
	colOf := make(map[string]int)
	width := 0
	bind := func(a planAtom) {
		for _, attr := range a.rel.Attributes {
			colOf[a.alias+"."+attr.Name] = width
			width++
		}
	}

	order := naiveJoinOrder(q, atoms)
	first := atoms[order[0]]
	bind(first)
	current := make([][]string, len(filtered[order[0]]))
	for i, r := range filtered[order[0]] {
		row := make([]string, len(r))
		copy(row, r)
		current[i] = row
	}

	for _, oi := range order[1:] {
		a := atoms[oi]
		rows := filtered[oi]
		// Find the join conditions between a and the already-bound aliases.
		// Self-filters were already applied above; a condition whose other
		// endpoint binds later in join order applies when THAT atom joins
		// in (unknown aliases cannot reach here — Validate rejects them).
		var pairs []joinPair
		for _, j := range q.Joins {
			if j.LeftAlias == j.RightAlias {
				continue
			}
			var lc, ri int
			var ok bool
			if j.LeftAlias == a.alias {
				lc, ok = colOf[j.RightAlias+"."+j.RightAttr]
				ri = a.rel.AttrIndex(j.LeftAttr)
			} else if j.RightAlias == a.alias {
				lc, ok = colOf[j.LeftAlias+"."+j.LeftAttr]
				ri = a.rel.AttrIndex(j.RightAttr)
			} else {
				continue
			}
			if !ok {
				continue
			}
			pairs = append(pairs, joinPair{leftCol: lc, rightAttrIdx: ri})
		}

		var next [][]string
		switch {
		case len(pairs) > 0 && len(rows) <= len(current):
			// Hash join, building on the atom's rows (the smaller input).
			build := make(map[string][][]string)
			for _, row := range rows {
				key := joinKeyRight(row, pairs)
				build[key] = append(build[key], row)
			}
			for _, cur := range current {
				key := joinKeyLeft(cur, pairs)
				for _, m := range build[key] {
					merged := make([]string, 0, len(cur)+len(m))
					merged = append(merged, cur...)
					merged = append(merged, m...)
					next = append(next, merged)
				}
			}
		case len(pairs) > 0:
			// The accumulated intermediate is the smaller input: build the
			// hash on it instead and probe with the atom's rows. The merged
			// column layout is unchanged (intermediate columns first), and
			// the different match order washes out in the final sort+dedup.
			build := make(map[string][][]string)
			for _, cur := range current {
				key := joinKeyLeft(cur, pairs)
				build[key] = append(build[key], cur)
			}
			for _, row := range rows {
				key := joinKeyRight(row, pairs)
				for _, cur := range build[key] {
					merged := make([]string, 0, len(cur)+len(row))
					merged = append(merged, cur...)
					merged = append(merged, row...)
					next = append(next, merged)
				}
			}
		default:
			// Nested loop: the cross product, as no condition connects the
			// atom.
			for _, cur := range current {
				for _, row := range rows {
					merged := make([]string, 0, len(cur)+len(row))
					merged = append(merged, cur...)
					merged = append(merged, row...)
					next = append(next, merged)
				}
			}
		}
		bind(a)
		current = next
	}

	// Project.
	cols := make([]string, len(q.Project))
	idx := make([]int, len(q.Project))
	for i, p := range q.Project {
		cols[i] = p.As
		ci, ok := colOf[p.Alias+"."+p.Attr]
		if !ok {
			return nil, fmt.Errorf("relstore: projection %s.%s not bound", p.Alias, p.Attr)
		}
		idx[i] = ci
	}
	out := &ResultSet{Columns: cols}
	seen := make(map[string]struct{})
	for _, row := range current {
		proj := make([]string, len(idx))
		for i, ci := range idx {
			proj[i] = row[ci]
		}
		// Length-prefixed identity key: fmt.Sprint collided distinct rows
		// like ["a b","c"] and ["a","b c"] and silently dropped one.
		key := rowKey(proj)
		if _, dup := seen[key]; dup {
			continue // set semantics on projected output
		}
		seen[key] = struct{}{}
		out.Rows = append(out.Rows, proj)
	}
	sortRows(out.Rows)
	return out, nil
}

// oracleTopKUnion is the specification BatchPlan.TopKUnion must match: every
// branch executed in full by the oracle, disjoint-unioned, truncated to the
// top k rows.
func oracleTopKUnion(c *Catalog, queries []*ConjunctiveQuery, k int, prov []string) (*UnionResult, error) {
	branches := make([]Branch, len(queries))
	for i, q := range queries {
		rs, err := executeOracle(c, q)
		if err != nil {
			return nil, err
		}
		branches[i] = Branch{Result: rs, Cost: q.Cost, Provenance: prov[i]}
	}
	full := DisjointUnion(branches)
	return &UnionResult{Columns: full.Columns, Rows: full.Rows[:min(k, len(full.Rows))]}, nil
}

// naiveJoinOrder is the unplanned spec order: traverse the join graph
// from atom 0, always joining the lowest-index atom connected to the
// already-joined set; fall back to the lowest-index remaining atom (cross
// product) for disconnected components.
func naiveJoinOrder(q *ConjunctiveQuery, atoms []planAtom) []int {
	joined := map[string]bool{atoms[0].alias: true}
	order := []int{0}
	remaining := make(map[int]bool)
	for i := 1; i < len(atoms); i++ {
		remaining[i] = true
	}
	for len(remaining) > 0 {
		next := -1
		for i := range remaining {
			if connectsTo(q.Joins, atoms[i].alias, joined) {
				if next == -1 || i < next {
					next = i
				}
			}
		}
		if next == -1 { // disconnected: take the lowest-index remaining atom
			for i := range remaining {
				if next == -1 || i < next {
					next = i
				}
			}
		}
		order = append(order, next)
		joined[atoms[next].alias] = true
		delete(remaining, next)
	}
	return order
}

func connectsTo(joins []JoinCond, alias string, joined map[string]bool) bool {
	for _, j := range joins {
		if j.LeftAlias == alias && joined[j.RightAlias] {
			return true
		}
		if j.RightAlias == alias && joined[j.LeftAlias] {
			return true
		}
	}
	return false
}

// appendLenPrefixed appends a length-prefixed encoding of vals to dst and
// returns the extended slice. Each value is encoded as uvarint(len) ‖ bytes,
// which is prefix-free per field: no choice of values can make two distinct
// tuples encode identically, unlike separator-based encodings (a "\x00"
// separator collides on values containing NUL; fmt.Sprint collides on
// embedded spaces). The oracle builds its hash-join and projection-dedup
// keys with it.
func appendLenPrefixed(dst []byte, vals ...string) []byte {
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// joinKeyLeft and joinKeyRight build the hash-join key from the two sides'
// join-column values, length-prefixed: the old "\x00"-separator encoding
// collided values containing NUL across column boundaries (["a\x00","b"] vs
// ["a","\x00b"]) and emitted wrong matches.
func joinKeyLeft(row []string, pairs []joinPair) string {
	var key []byte
	for _, p := range pairs {
		key = appendLenPrefixed(key, row[p.leftCol])
	}
	return string(key)
}

func joinKeyRight(row []string, pairs []joinPair) string {
	var key []byte
	for _, p := range pairs {
		key = appendLenPrefixed(key, row[p.rightAttrIdx])
	}
	return string(key)
}

// rowKey returns the length-prefixed identity key of a full tuple.
func rowKey(vals []string) string { return string(appendLenPrefixed(nil, vals...)) }

// ExecuteBatch executes a batch of conjunctive queries — the branches of one
// view materialisation — across at most workers goroutines, collecting
// results by query index so the output order matches a serial loop exactly.
// The batch is planned as a unit, and results must be byte-identical to
// executing each query alone, at every worker count. Validation runs in
// index order
// before anything executes, so the returned error is the one the
// lowest-indexed failing query produces, matching serial semantics. Views
// execute through the top-k-bounded BatchPlan.TopKUnion instead, which skips
// whole branches; ExecuteBatch is the full-batch form its gates compare with.
func ExecuteBatch(c *Catalog, queries []*ConjunctiveQuery, workers int) ([]*ResultSet, error) {
	bp, err := PlanBatch(c, queries)
	if err != nil {
		return nil, err
	}
	results := make([]*ResultSet, len(queries))
	if err := pool.Run(len(queries), workers, func(i int) (err error) {
		results[i], err = bp.Execute(i)
		return err
	}); err != nil {
		return nil, err
	}
	return results, nil
}
