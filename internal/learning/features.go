// Package learning implements Q's association-cost learner: sparse feature
// vectors over search-graph edges, binning of real-valued matcher
// confidences into indicator features, and the MIRA online update
// (Algorithm 4 of the paper) that turns user feedback on query answers into
// new edge-cost weights.
//
// A Vector is a map, the form features are built, merged and persisted in.
// Code that reads the same vectors over and over interns them once over a
// Dict: an Interned vector is its (id, value) entries in feature-name order
// with ‖f‖², and a dot product against a dense weight slice adds its terms
// in that order. The search-graph builder interns each learnable edge when
// it makes the edge, and MIRA's positivity constraints (Positivity) and the
// builder's edge pricing read those entries; one update interns only its
// margin differences and the per-query keyword edges.
package learning

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Vector is a sparse feature (or weight) vector keyed by feature name.
// Feature names follow the conventions of paper §3.4:
//
//	"default"            shared by every learnable edge (value 1); its weight
//	                     is the uniform cost offset keeping edge costs positive
//	"matcher:<name>"     a schema matcher's confidence (real-valued, usually
//	                     replaced by bin indicators, see Binner)
//	"rel:<qualified>"    indicator for each relation an association touches;
//	                     its weight is -log(authoritativeness)
//	"edge:<key>"         indicator unique to one edge
//	"fk"                 indicator on key–foreign-key edges
//	"kw"                 indicator on keyword match edges
type Vector map[string]float64

// Dot returns v · w.
func (v Vector) Dot(w Vector) float64 {
	a, b := v, w
	if len(a) > len(b) {
		a, b = b, a
	}
	s := 0.0
	for k, va := range a {
		if vb, ok := b[k]; ok {
			s += va * vb
		}
	}
	return s
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	for k, x := range v {
		out[k] = x
	}
	return out
}

// AddScaled sets v += scale * w in place.
func (v Vector) AddScaled(w Vector, scale float64) {
	for k, x := range w {
		v[k] += scale * x
		if v[k] == 0 {
			delete(v, k)
		}
	}
}

// Sub returns v - w as a new vector.
func (v Vector) Sub(w Vector) Vector {
	out := v.Clone()
	out.AddScaled(w, -1)
	return out
}

// String renders the vector deterministically (sorted keys) for logs/tests.
func (v Vector) String() string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.4g", k, v[k])
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Binner converts a real-valued confidence in [0,1] into a one-hot indicator
// feature naming its bin. The paper (§4) bins real-valued features because
// mixing raw reals with binary indicators destabilises MIRA's margin
// updates.
type Binner struct {
	// Edges are the ascending upper bounds of each bin except the last,
	// which is implicit at +Inf. Empirically determined; the defaults carve
	// [0,1] into five bands.
	Edges []float64
}

// DefaultBinner carves confidence scores into five empirically-spaced bins.
func DefaultBinner() Binner { return Binner{Edges: []float64{0.2, 0.4, 0.6, 0.8}} }

// Bin returns the bin index for x.
func (b Binner) Bin(x float64) int {
	for i, e := range b.Edges {
		if x < e {
			return i
		}
	}
	return len(b.Edges)
}

// NumBins returns the total number of bins.
func (b Binner) NumBins() int { return len(b.Edges) + 1 }

// Feature returns the indicator feature name for a confidence produced by
// the named matcher, e.g. "matcher:mad:bin3".
func (b Binner) Feature(matcher string, confidence float64) string {
	if math.IsNaN(confidence) {
		confidence = 0
	}
	return fmt.Sprintf("matcher:%s:bin%d", matcher, b.Bin(confidence))
}
