// Package relstore is the relational substrate underneath Q: an in-memory
// catalog of data sources, each holding relations with typed attributes,
// declared key–foreign-key relationships, and tuple data. It provides the
// conjunctive-query executor, the disjoint ("outer") union used to merge
// per-query result schemas, an inverted keyword index over data values, and
// per-attribute distinct-value indexes used by the value-overlap filter and
// by the MAD matcher's column-value graph.
//
// The paper runs over JDBC-accessible relational sources; relstore is the
// in-process equivalent, exercising the same query shapes (select-project-
// join plus ranked outer union) without an external DBMS.
package relstore

import (
	"fmt"
	"strings"
)

// Type classifies attribute values. Values are stored as strings; Type
// records the inferred or declared domain, which matchers use for
// compatibility checks.
type Type int

const (
	// TypeString is the default attribute type.
	TypeString Type = iota
	// TypeInt marks integer-valued attributes.
	TypeInt
	// TypeFloat marks real-valued attributes.
	TypeFloat
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "REAL"
	default:
		return "TEXT"
	}
}

// Attribute describes one column of a relation.
type Attribute struct {
	Name string
	Type Type
}

// ForeignKey declares that FromAttr of the owning relation references
// ToAttr of relation ToRelation (a qualified "source.relation" name).
// Foreign keys seed the initial search graph with default-cost join edges
// (paper §2.1).
type ForeignKey struct {
	FromAttr   string
	ToRelation string
	ToAttr     string
}

// Relation is the schema of one table within a source.
type Relation struct {
	Source      string
	Name        string
	Attributes  []Attribute
	ForeignKeys []ForeignKey
}

// QualifiedName returns "source.name", the catalog-wide identifier.
func (r *Relation) QualifiedName() string {
	return r.Source + "." + r.Name
}

// AttrIndex returns the position of the named attribute, or -1.
func (r *Relation) AttrIndex(name string) int {
	for i, a := range r.Attributes {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// HasAttr reports whether the relation has an attribute with the given name.
func (r *Relation) HasAttr(name string) bool { return r.AttrIndex(name) >= 0 }

// AttrNames returns the attribute names in declaration order.
func (r *Relation) AttrNames() []string {
	names := make([]string, len(r.Attributes))
	for i, a := range r.Attributes {
		names[i] = a.Name
	}
	return names
}

// Validate checks structural well-formedness: non-empty names, no duplicate
// attributes, and foreign keys referring to declared attributes.
func (r *Relation) Validate() error {
	if r.Source == "" || r.Name == "" {
		return fmt.Errorf("relstore: relation %q.%q: empty source or name", r.Source, r.Name)
	}
	seen := make(map[string]struct{}, len(r.Attributes))
	for _, a := range r.Attributes {
		if a.Name == "" {
			return fmt.Errorf("relstore: relation %s: empty attribute name", r.QualifiedName())
		}
		if _, dup := seen[a.Name]; dup {
			return fmt.Errorf("relstore: relation %s: duplicate attribute %q", r.QualifiedName(), a.Name)
		}
		seen[a.Name] = struct{}{}
	}
	for _, fk := range r.ForeignKeys {
		if !r.HasAttr(fk.FromAttr) {
			return fmt.Errorf("relstore: relation %s: foreign key from unknown attribute %q", r.QualifiedName(), fk.FromAttr)
		}
		if fk.ToRelation == "" || fk.ToAttr == "" {
			return fmt.Errorf("relstore: relation %s: incomplete foreign key from %q", r.QualifiedName(), fk.FromAttr)
		}
	}
	return nil
}

// AttrRef identifies one attribute of one relation, catalog-wide.
type AttrRef struct {
	Relation string // qualified "source.relation"
	Attr     string
}

// String returns "source.relation.attr".
func (a AttrRef) String() string { return a.Relation + "." + a.Attr }

// CanonicalPair renders an unordered attribute pair as "a~b", the two
// String forms in sorted order: the key of gold-standard sets and of
// registration reports.
func CanonicalPair(a, b AttrRef) string {
	sa, sb := a.String(), b.String()
	if sb < sa {
		sa, sb = sb, sa
	}
	return sa + "~" + sb
}

// ParseAttrRef parses "source.relation.attr" back into an AttrRef. The
// relation part may itself contain no dots beyond the source separator.
func ParseAttrRef(s string) (AttrRef, error) {
	i := strings.LastIndex(s, ".")
	if i <= 0 || i == len(s)-1 {
		return AttrRef{}, fmt.Errorf("relstore: malformed attribute reference %q", s)
	}
	rel, attr := s[:i], s[i+1:]
	j := strings.Index(rel, ".")
	if j <= 0 || j == len(rel)-1 {
		return AttrRef{}, fmt.Errorf("relstore: attribute reference %q lacks a source qualifier", s)
	}
	return AttrRef{Relation: rel, Attr: attr}, nil
}
