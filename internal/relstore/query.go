package relstore

import (
	"fmt"
	"sort"
	"strings"
)

// Atom is one relation occurrence in a conjunctive query, bound to an alias.
type Atom struct {
	Relation string // qualified name
	Alias    string
}

// JoinCond is an equi-join of two aliased attributes. When both sides name
// the same alias it is a per-row filter on that atom (a self-filter).
type JoinCond struct {
	LeftAlias  string
	LeftAttr   string
	RightAlias string
	RightAttr  string
}

// SelCond selects the rows whose aliased attribute equals the literal
// exactly.
type SelCond struct {
	Alias string
	Attr  string
	Value string
}

// ProjCol names one output column: the aliased attribute to project and the
// output label it appears under (after the paper's outer-union renaming).
type ProjCol struct {
	Alias string
	Attr  string
	As    string
}

// ConjunctiveQuery is one select-project-join query generated from a Steiner
// tree. Cost is the tree cost; it ranks this query's tuples in the unioned
// view output.
type ConjunctiveQuery struct {
	Atoms   []Atom
	Joins   []JoinCond
	Selects []SelCond
	Project []ProjCol
	Cost    float64
}

// Validate checks that aliases are unique, conditions refer to declared
// aliases and attributes, and every atom's relation exists in the catalog.
func (q *ConjunctiveQuery) Validate(c *Catalog) error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("relstore: query has no atoms")
	}
	byAlias := make(map[string]*Relation, len(q.Atoms))
	for _, a := range q.Atoms {
		if a.Alias == "" {
			return fmt.Errorf("relstore: atom %q has empty alias", a.Relation)
		}
		if _, dup := byAlias[a.Alias]; dup {
			return fmt.Errorf("relstore: duplicate alias %q", a.Alias)
		}
		rel := c.Relation(a.Relation)
		if rel == nil {
			return fmt.Errorf("relstore: unknown relation %q", a.Relation)
		}
		byAlias[a.Alias] = rel
	}
	check := func(alias, attr string) error {
		rel, ok := byAlias[alias]
		if !ok {
			return fmt.Errorf("relstore: condition refers to unknown alias %q", alias)
		}
		if !rel.HasAttr(attr) {
			return fmt.Errorf("relstore: relation %s has no attribute %q", rel.QualifiedName(), attr)
		}
		return nil
	}
	for _, j := range q.Joins {
		if err := check(j.LeftAlias, j.LeftAttr); err != nil {
			return err
		}
		if err := check(j.RightAlias, j.RightAttr); err != nil {
			return err
		}
	}
	for _, s := range q.Selects {
		if err := check(s.Alias, s.Attr); err != nil {
			return err
		}
	}
	for _, p := range q.Project {
		if err := check(p.Alias, p.Attr); err != nil {
			return err
		}
	}
	return nil
}

// SQL renders the query as a SQL SELECT statement with the cost emitted as a
// constant column, matching the paper's per-branch "e term" (§2.2). The
// output is deterministic and intended for logging, provenance display and
// tests; execution happens natively via Execute.
func (q *ConjunctiveQuery) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if len(q.Project) == 0 {
		b.WriteString("*")
	} else {
		for i, p := range q.Project {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s.%s AS %q", p.Alias, p.Attr, p.As)
		}
	}
	fmt.Fprintf(&b, ", %.4f AS _cost FROM ", q.Cost)
	for i, a := range q.Atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q %s", a.Relation, a.Alias)
	}
	var conds []string
	for _, j := range q.Joins {
		conds = append(conds, fmt.Sprintf("%s.%s = %s.%s", j.LeftAlias, j.LeftAttr, j.RightAlias, j.RightAttr))
	}
	for _, s := range q.Selects {
		conds = append(conds, fmt.Sprintf("%s.%s = '%s'", s.Alias, s.Attr, escapeSQL(s.Value)))
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	return b.String()
}

func escapeSQL(s string) string { return strings.ReplaceAll(s, "'", "''") }

// Signature returns a canonical string identifying the query's structure
// (atoms, joins, selections) independent of alias naming order. Views use it
// to deduplicate queries produced by distinct but equivalent Steiner trees.
func (q *ConjunctiveQuery) Signature() string {
	rels := make([]string, len(q.Atoms))
	aliasRel := make(map[string]string, len(q.Atoms))
	for i, a := range q.Atoms {
		rels[i] = a.Relation
		aliasRel[a.Alias] = a.Relation
	}
	sort.Strings(rels)
	joins := make([]string, 0, len(q.Joins))
	for _, j := range q.Joins {
		l := aliasRel[j.LeftAlias] + "." + j.LeftAttr
		r := aliasRel[j.RightAlias] + "." + j.RightAttr
		if r < l {
			l, r = r, l
		}
		joins = append(joins, l+"="+r)
	}
	sort.Strings(joins)
	sels := make([]string, 0, len(q.Selects))
	for _, s := range q.Selects {
		// "~0~" is the code the equality operator had when selections carried
		// one; it stays so that signatures, the provenance of every served
		// row, keep their bytes.
		sels = append(sels, aliasRel[s.Alias]+"."+s.Attr+"~0~"+s.Value)
	}
	sort.Strings(sels)
	return strings.Join(rels, "|") + "//" + strings.Join(joins, "|") + "//" + strings.Join(sels, "|")
}
