package relstore

import (
	"fmt"
	"sort"
	"sync"

	"qint/internal/text"
)

// Table couples a relation schema with its tuples. Row values are strings;
// numeric attributes hold decimal representations.
type Table struct {
	Relation *Relation
	Rows     [][]string
}

// NewTable constructs a table after validating the schema and row widths.
func NewTable(rel *Relation, rows [][]string) (*Table, error) {
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	for i, row := range rows {
		if len(row) != len(rel.Attributes) {
			return nil, fmt.Errorf("relstore: table %s row %d has %d values, want %d",
				rel.QualifiedName(), i, len(row), len(rel.Attributes))
		}
	}
	return &Table{Relation: rel, Rows: rows}, nil
}

// Column returns the values (with duplicates) of the named attribute.
func (t *Table) Column(attr string) []string {
	i := t.Relation.AttrIndex(attr)
	if i < 0 {
		return nil
	}
	col := make([]string, len(t.Rows))
	for j, row := range t.Rows {
		col[j] = row[i]
	}
	return col
}

// Catalog is the set of registered sources and their tables, internally
// hash-partitioned into shards (see shard.go): each shard owns the tables
// whose qualified names hash to it, its own lazily built distinct-value
// cache and its own immutable value-index segments. Catalog-wide reads fan
// out per shard and merge deterministically, so the shard count never
// changes a single byte of any answer — it only sizes the fan-outs and
// write locality.
//
// Concurrency contract: the catalog is single-writer, many-reader. AddTable
// (the only mutation of tables/order — tables themselves are immutable once
// added) must be serialised against ALL other calls on the SAME Catalog
// value, as must Clone. Q publishes catalogs copy-on-write: a writer Clones
// the catalog, mutates the clone, and atomically swaps it into the published
// snapshot, so concurrent queries keep reading the frozen original. Every read method may be called
// from any number of goroutines concurrently — Q's parallel branch executor
// depends on this. The read paths that mutate internal state — the lazily
// built per-shard ValueSet caches and value-index segment caches — are
// shared across clones (tables are immutable, so an attribute's value set
// and a table's segment never change) and guarded by their own per-shard
// mutexes, so concurrent readers stay race-free.
type Catalog struct {
	shards []*catShard // hash partitions; fixed count for the catalog's lifetime
	owned  []bool      // writer-side: shard i's table map is private to this clone
	order  []string    // global insertion order of qualified names

	// execObs, when attached (InstrumentExec), counts completed branch
	// executions and their produced rows across every execution path.
	// Writer-side: set before sharing; Clone copies the pointer so all
	// generations of one engine report into the same counters.
	execObs *ExecCounters
}

// valueCache holds one shard's lazily built per-attribute distinct-value
// sets. It is shared between a catalog and its clones: sets are keyed by
// AttrRef and tables are immutable once added, so a cached set stays correct
// in every catalog generation that contains the attribute.
type valueCache struct {
	mu   sync.RWMutex
	sets map[AttrRef]map[string]struct{}
}

// NewCatalog returns an empty catalog at the default shard count
// (runtime.GOMAXPROCS(0); see NewCatalogSharded).
func NewCatalog() *Catalog { return NewCatalogSharded(0) }

// Clone returns a copy-on-write clone. Only the shard-pointer slice and the
// global order are copied: each shard's table map stays physically shared
// until the first AddTable that hashes into it (which then copies just that
// shard — see ownShard), and the per-shard value-set and value-index caches
// are shared outright, since cached sets and segments are per-table and
// immutable. A registration that clones the catalog and adds tables
// therefore touches only the shards those tables hash into, while every
// published copy-on-write generation keeps reading the same frozen shards.
// Mutating either the clone or the original with AddTable leaves the other
// untouched. Writer-side: Clone must be serialised with other mutations.
func (c *Catalog) Clone() *Catalog {
	// Both sides now share every shard: the parent too must copy-on-write
	// before its next AddTable. Readers never touch the owned flags.
	for i := range c.owned {
		c.owned[i] = false
	}
	return &Catalog{
		shards:  append([]*catShard(nil), c.shards...),
		owned:   make([]bool, len(c.shards)),
		order:   append([]string(nil), c.order...),
		execObs: c.execObs,
	}
}

// statsSegment returns the relation's value-index segment — the planner's
// statistics source (per-attribute distinct-value entries with row counts) —
// building it on first use, or nil for an unknown relation. Safe for
// concurrent use (segmentFor resolves racing builds by adoption).
func (c *Catalog) statsSegment(qualified string) *segment {
	sh := c.shardFor(qualified)
	t := sh.tables[qualified]
	if t == nil {
		return nil
	}
	return sh.index.segmentFor(t)
}

// AddTable registers a table. Registering a second table under the same
// qualified relation name is an error: sources are immutable once added.
// The write touches only the shard the table hashes into.
func (c *Catalog) AddTable(t *Table) error {
	qn := t.Relation.QualifiedName()
	si := c.shardOf(qn)
	if _, exists := c.shards[si].tables[qn]; exists {
		return fmt.Errorf("relstore: relation %s already registered", qn)
	}
	sh := c.ownShard(si)
	sh.tables[qn] = t
	sh.order = append(sh.order, qn)
	c.order = append(c.order, qn)
	return nil
}

// Table returns the table registered under the qualified name, or nil.
func (c *Catalog) Table(qualified string) *Table { return c.lookup(qualified) }

// Relation returns the schema registered under the qualified name, or nil.
func (c *Catalog) Relation(qualified string) *Relation {
	if t := c.lookup(qualified); t != nil {
		return t.Relation
	}
	return nil
}

// Relations returns all relation schemas in registration order.
func (c *Catalog) Relations() []*Relation {
	out := make([]*Relation, 0, len(c.order))
	for _, qn := range c.order {
		out = append(out, c.lookup(qn).Relation)
	}
	return out
}

// RelationNames returns all qualified relation names in registration order.
func (c *Catalog) RelationNames() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Sources returns the distinct source names, sorted.
func (c *Catalog) Sources() []string {
	set := make(map[string]struct{})
	for _, qn := range c.order {
		set[c.lookup(qn).Relation.Source] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// SourceRelations returns the relations belonging to one source, in
// registration order.
func (c *Catalog) SourceRelations(source string) []*Relation {
	var out []*Relation
	for _, qn := range c.order {
		if r := c.lookup(qn).Relation; r.Source == source {
			out = append(out, r)
		}
	}
	return out
}

// NumRelations returns the number of registered relations.
func (c *Catalog) NumRelations() int { return len(c.order) }

// NumAttributes returns the total attribute count across all relations.
func (c *Catalog) NumAttributes() int {
	n := 0
	for _, qn := range c.order {
		n += len(c.lookup(qn).Relation.Attributes)
	}
	return n
}

// ValueSet returns the distinct values of the referenced attribute. The set
// is computed once and cached in the owning shard; callers must not mutate
// it. Safe for concurrent use: losers of a racing first computation adopt
// the winner's cached set, so all callers observe one canonical map per
// attribute. When the attribute's table already has a value-index segment,
// the set derives from the segment's distinct entries instead of
// re-scanning rows.
func (c *Catalog) ValueSet(ref AttrRef) map[string]struct{} {
	sh := c.shardFor(ref.Relation)
	sh.values.mu.RLock()
	vs, ok := sh.values.sets[ref]
	sh.values.mu.RUnlock()
	if ok {
		return vs
	}
	t := sh.tables[ref.Relation]
	if t == nil {
		return nil
	}
	i := t.Relation.AttrIndex(ref.Attr)
	if i < 0 {
		return nil
	}
	if seg := sh.index.built(t); seg != nil {
		vs = seg.valueSet(i)
	} else {
		vs = make(map[string]struct{})
		for _, row := range t.Rows {
			if v := row[i]; v != "" {
				vs[v] = struct{}{}
			}
		}
	}
	sh.values.mu.Lock()
	if won, ok := sh.values.sets[ref]; ok {
		vs = won
	} else {
		sh.values.sets[ref] = vs
	}
	sh.values.mu.Unlock()
	return vs
}

// ValueOverlap returns the number of distinct values shared by two
// attributes. This powers the Value Overlap Filter of Figure 7: attribute
// pairs with zero overlap cannot join and need not be compared.
func (c *Catalog) ValueOverlap(a, b AttrRef) int {
	sa, sb := c.ValueSet(a), c.ValueSet(b)
	if len(sa) > len(sb) {
		sa, sb = sb, sa
	}
	n := 0
	for v := range sa {
		if _, ok := sb[v]; ok {
			n++
		}
	}
	return n
}

// ValueJaccard returns the Jaccard similarity of two attributes' distinct
// value sets.
func (c *Catalog) ValueJaccard(a, b AttrRef) float64 {
	return text.Jaccard(c.ValueSet(a), c.ValueSet(b))
}

// ValueHit is one tuple-level keyword match: the attribute whose value
// matched and the matching value itself.
type ValueHit struct {
	Ref   AttrRef
	Value string
	Rows  int // number of tuples carrying this value
}

// AttrRefs returns every attribute reference in the catalog, in registration
// then declaration order.
func (c *Catalog) AttrRefs() []AttrRef {
	var out []AttrRef
	for _, qn := range c.order {
		for _, a := range c.lookup(qn).Relation.Attributes {
			out = append(out, AttrRef{Relation: qn, Attr: a.Name})
		}
	}
	return out
}
