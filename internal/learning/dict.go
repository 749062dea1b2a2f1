package learning

import (
	"cmp"
	"slices"
)

// Dict is an append-only dictionary of feature names. Intern gives each
// name it has not seen the next id, so ids follow first sight, not name
// order. A search-graph builder owns one and interns each learnable edge's
// features into it once, when the edge is made; a name is never removed.
// The zero Dict is empty and ready to use.
type Dict struct {
	names []string
	ids   map[string]int32
}

// Len returns the number of interned names; ids run from 0 to Len()-1.
func (d *Dict) Len() int { return len(d.names) }

// Name returns the feature name of an id.
func (d *Dict) Name(id int32) string { return d.names[id] }

// Intern returns v interned over d, adding the names d lacks.
func (d *Dict) Intern(v Vector) *Interned { return intern(v, d.ID) }

// ID returns k's id, adding k if d lacks it.
func (d *Dict) ID(k string) int32 {
	id, ok := d.ids[k]
	if !ok {
		if d.ids == nil {
			d.ids = make(map[string]int32)
		}
		id = int32(len(d.names))
		d.names = append(d.names, k)
		d.ids[k] = id
	}
	return id
}

// Dense writes w into buf as a dense vector over d (buf[id] is the weight
// of d.Name(id), 0 where w has none) and returns it, grown to d.Len().
func (d *Dict) Dense(w Vector, buf []float64) []float64 {
	buf = slices.Grow(buf[:0], len(d.names))[:len(d.names)]
	clear(buf)
	for k, x := range w {
		if id, ok := d.ids[k]; ok {
			buf[id] = x
		}
	}
	return buf
}

// Interned is one feature vector over a Dict: its (id, value) entries in
// ascending feature-name order, zero values included, and ‖f‖² summed in
// that order. It is immutable once made.
type Interned struct {
	Entries []Entry
	Norm2   float64
}

// Entry is one feature of an Interned vector: its dictionary id and value.
type Entry struct {
	ID int32
	X  float64
}

// Dot returns f · w for w dense over f's dictionary (Dict.Dense), adding
// the terms in f's name order.
func (f *Interned) Dot(w []float64) float64 {
	s := 0.0
	for _, e := range f.Entries {
		s += w[e.ID] * e.X
	}
	return s
}

// DotVector is Dot for a sparse w, read by name through f's dictionary d:
// the same terms added in the same order, so the same float64.
func (f *Interned) DotVector(d *Dict, w Vector) float64 {
	s := 0.0
	for _, e := range f.Entries {
		s += w[d.names[e.ID]] * e.X
	}
	return s
}

// intern builds v's entries in name order with the ids id assigns.
func intern(v Vector, id func(string) int32) *Interned {
	type kv struct {
		k string
		x float64
	}
	var small [8]kv // an edge's features fit, so they are sorted on the stack
	kvs := small[:0]
	if len(v) > len(small) {
		kvs = make([]kv, 0, len(v))
	}
	for k, x := range v {
		kvs = append(kvs, kv{k, x})
	}
	slices.SortFunc(kvs, func(a, b kv) int { return cmp.Compare(a.k, b.k) })
	f := &Interned{Entries: make([]Entry, len(kvs))}
	for i, e := range kvs {
		f.Entries[i] = Entry{id(e.k), e.x}
		f.Norm2 += e.x * e.x
	}
	return f
}
