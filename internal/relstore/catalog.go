package relstore

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
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

// Column returns the values (with duplicates) of the named attribute. Only
// tests call it: core's TestRestoreRebuildsRetiredSegments reads columns
// with it to write a retired segments section.
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
// map, the registration order, and the value-index segment (valueindex.go)
// of every indexed table.
//
// Concurrency contract: a catalog is plain copy-on-write data. Only the
// writers — AddTable, BuildValueIndex and LoadSegments — write it, and they
// must be serialised against ALL other calls on the SAME Catalog value. Q
// publishes catalogs copy-on-write: a writer Clones the catalog, mutates
// the clone, and atomically swaps it into the published snapshot, so
// concurrent queries keep reading the frozen original. Every other method —
// Clone included — only reads, so any number of goroutines may call it
// concurrently: concurrent queries read one published catalog, and the
// ExecuteBatch test helper executes branches on it in parallel. A read that
// needs the segment of an unindexed table builds a throwaway one and keeps
// nothing.
type Catalog struct {
	tables map[string]*Table   // qualified name -> table
	order  []string            // registration order of qualified names
	segs   map[string]*segment // qualified name -> its table's immutable segment
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables: make(map[string]*Table),
		segs:   make(map[string]*segment),
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

// Clone returns a copy-on-write clone: the table map, the order and the
// segment map are copied, and tables and segments, immutable both, are
// shared. A writer on either the clone or the original leaves the other
// untouched, and every published generation keeps reading its own frozen
// maps. Clone only reads its receiver, so it is safe alongside other
// readers.
func (c *Catalog) Clone() *Catalog {
	return &Catalog{
		tables: maps.Clone(c.tables),
		order:  slices.Clone(c.order),
		segs:   maps.Clone(c.segs),
	}
}

// AddTable registers a table without indexing it (BuildValueIndex does).
// Registering a second table under the same qualified relation name is an
// error: sources are immutable once added.
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

// span returns the referenced attribute's value-index entries, ascending by
// value, or nil for an unknown relation or attribute.
func (c *Catalog) span(ref AttrRef) []indexEntry {
	t := c.tables[ref.Relation]
	if t == nil {
		return nil
	}
	i := t.Relation.AttrIndex(ref.Attr)
	if i < 0 {
		return nil
	}
	return c.segment(ref.Relation).span(i)
}

// Values returns the distinct non-empty values of the referenced attribute
// in ascending order, or nil for an unknown relation or attribute. The
// slice is the caller's.
func (c *Catalog) Values(ref AttrRef) []string {
	span := c.span(ref)
	if span == nil {
		return nil
	}
	out := make([]string, len(span))
	for i, e := range span {
		out[i] = e.val
	}
	return out
}

// ValueOverlap returns the number of distinct values shared by two
// attributes. This powers the Value Overlap Filter of Figure 7: attribute
// pairs with zero overlap cannot join and need not be compared. Only tests
// call it (OverlappingAttrPairs merges the spans itself): datasets'
// TestInterProGOGoldEdgesHaveValueOverlap checks the gold edges with it.
func (c *Catalog) ValueOverlap(a, b AttrRef) int {
	return overlap(c.span(a), c.span(b))
}

// overlap counts the values two ascending entry spans share, merging them.
func overlap(a, b []indexEntry) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch cmp := strings.Compare(a[i].val, b[j].val); {
		case cmp < 0:
			i++
		case cmp > 0:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// OverlappingAttrPairs returns the attribute pairs between two relations
// that share at least one distinct value — the Value Overlap Filter of
// Figure 7, used to prune alignment comparisons at registration time.
func (c *Catalog) OverlappingAttrPairs(a, b *Relation) map[[2]AttrRef]bool {
	out := make(map[[2]AttrRef]bool)
	aq, bq := a.QualifiedName(), b.QualifiedName()
	ta, tb := c.tables[aq], c.tables[bq]
	if ta == nil || tb == nil {
		return out
	}
	sa, sb := c.segment(aq), c.segment(bq)
	for i, aa := range ta.Relation.Attributes {
		for j, bb := range tb.Relation.Attributes {
			if overlap(sa.span(i), sb.span(j)) > 0 {
				out[[2]AttrRef{{Relation: aq, Attr: aa.Name}, {Relation: bq, Attr: bb.Name}}] = true
			}
		}
	}
	return out
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
