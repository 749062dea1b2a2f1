package relstore

import (
	"fmt"
	"maps"
	"slices"
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

// Catalog is the set of registered sources and their tables: one table
// map, the registration order, and two lazily filled caches — per-attribute
// distinct-value sets and per-table value-index segments (valueindex.go).
//
// Concurrency contract: the catalog is single-writer, many-reader. AddTable
// (the only mutation of tables/order — tables themselves are immutable once
// added) must be serialised against ALL other calls on the SAME Catalog
// value. Q publishes catalogs copy-on-write: a writer Clones the catalog,
// mutates the clone, and atomically swaps it into the published snapshot,
// so concurrent queries keep reading the frozen original. Every read method
// — Clone included — may be called from any number of goroutines
// concurrently: concurrent queries read one published catalog, and the
// ExecuteBatch test helper executes branches on it in parallel. The read
// paths that mutate internal state — the ValueSet cache and the
// value-index segment cache — are shared across clones (tables are
// immutable, so an attribute's value set and a table's segment never
// change) and guarded by their own mutexes, so concurrent readers stay
// race-free.
type Catalog struct {
	tables map[string]*Table // qualified name -> table
	order  []string          // registration order of qualified names
	values *valueCache       // shared across clones
	index  *valueIndex       // shared across clones

	// execObs, when attached (InstrumentExec), counts completed branch
	// executions and their produced rows across every execution path.
	// Writer-side: set before sharing; Clone copies the pointer so all
	// generations of one engine report into the same counters.
	execObs *ExecCounters
}

// valueCache holds the lazily built per-attribute distinct-value sets. It is
// shared between a catalog and its clones: sets are keyed by AttrRef and
// tables are immutable once added, so a cached set stays correct in every
// catalog generation that contains the attribute.
type valueCache struct {
	mu   sync.RWMutex
	sets map[AttrRef]map[string]struct{}
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables: make(map[string]*Table),
		values: &valueCache{sets: make(map[AttrRef]map[string]struct{})},
		index:  newValueIndex(),
	}
}

// NewCatalogSharded returns an empty catalog.
//
// Deprecated: the catalog is one partition and shards is ignored; use
// NewCatalog.
func NewCatalogSharded(shards int) *Catalog { return NewCatalog() }

// ShardCount returns 1.
//
// Deprecated: the catalog is one partition.
func (c *Catalog) ShardCount() int { return 1 }

// Clone returns a copy-on-write clone: the table map and the order are
// copied, the value-set and value-index caches are shared, since cached
// sets and segments are per-table and immutable. Mutating either the clone
// or the original with AddTable leaves the other untouched, and every
// published generation keeps reading its own frozen map. Clone only reads
// its receiver, so it is safe alongside other readers.
func (c *Catalog) Clone() *Catalog {
	return &Catalog{
		tables:  maps.Clone(c.tables),
		order:   slices.Clone(c.order),
		values:  c.values,
		index:   c.index,
		execObs: c.execObs,
	}
}

// AddTable registers a table. Registering a second table under the same
// qualified relation name is an error: sources are immutable once added.
func (c *Catalog) AddTable(t *Table) error {
	qn := t.Relation.QualifiedName()
	if _, exists := c.tables[qn]; exists {
		return fmt.Errorf("relstore: relation %s already registered", qn)
	}
	c.tables[qn] = t
	c.order = append(c.order, qn)
	return nil
}

// Table returns the table registered under the qualified name, or nil.
func (c *Catalog) Table(qualified string) *Table { return c.tables[qualified] }

// Relation returns the schema registered under the qualified name, or nil.
func (c *Catalog) Relation(qualified string) *Relation {
	if t := c.tables[qualified]; t != nil {
		return t.Relation
	}
	return nil
}

// Relations returns all relation schemas in registration order.
func (c *Catalog) Relations() []*Relation {
	out := make([]*Relation, 0, len(c.order))
	for _, qn := range c.order {
		out = append(out, c.tables[qn].Relation)
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
		set[c.tables[qn].Relation.Source] = struct{}{}
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
		if r := c.tables[qn].Relation; r.Source == source {
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
		n += len(c.tables[qn].Relation.Attributes)
	}
	return n
}

// ValueSet returns the distinct values of the referenced attribute. The set
// is computed once and cached; callers must not mutate
// it. Safe for concurrent use: losers of a racing first computation adopt
// the winner's cached set, so all callers observe one canonical map per
// attribute. When the attribute's table already has a value-index segment,
// the set derives from the segment's distinct entries instead of
// re-scanning rows.
func (c *Catalog) ValueSet(ref AttrRef) map[string]struct{} {
	c.values.mu.RLock()
	vs, ok := c.values.sets[ref]
	c.values.mu.RUnlock()
	if ok {
		return vs
	}
	t := c.tables[ref.Relation]
	if t == nil {
		return nil
	}
	i := t.Relation.AttrIndex(ref.Attr)
	if i < 0 {
		return nil
	}
	if seg := c.index.built(t); seg != nil {
		vs = seg.valueSet(i)
	} else {
		vs = make(map[string]struct{})
		for _, row := range t.Rows {
			if v := row[i]; v != "" {
				vs[v] = struct{}{}
			}
		}
	}
	c.values.mu.Lock()
	if won, ok := c.values.sets[ref]; ok {
		vs = won
	} else {
		c.values.sets[ref] = vs
	}
	c.values.mu.Unlock()
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

// OverlappingAttrPairs returns the attribute pairs between two relations
// that share at least one distinct value — the Value Overlap Filter of
// Figure 7, used to prune alignment comparisons at registration time.
func (c *Catalog) OverlappingAttrPairs(a, b *Relation) map[[2]AttrRef]bool {
	aq, bq := a.QualifiedName(), b.QualifiedName()
	out := make(map[[2]AttrRef]bool)
	for _, aa := range a.Attributes {
		ra := AttrRef{Relation: aq, Attr: aa.Name}
		for _, bb := range b.Attributes {
			rb := AttrRef{Relation: bq, Attr: bb.Name}
			if c.ValueOverlap(ra, rb) > 0 {
				out[[2]AttrRef{ra, rb}] = true
			}
		}
	}
	return out
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
		for _, a := range c.tables[qn].Relation.Attributes {
			out = append(out, AttrRef{Relation: qn, Attr: a.Name})
		}
	}
	return out
}
