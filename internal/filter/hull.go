package filter

import (
	"repro/internal/geom"
	"repro/internal/sweep"
)

// HullSet is the geometric filter of Brinkhoff et al. ([5] in the paper,
// the first row of its Table 1): pre-computed convex-hull approximations
// of every object in a layer. The hull is a conservative superset of its
// polygon, so hull disjointness proves polygon disjointness and removes
// false hits before the expensive refinement step. As the paper notes,
// this is a *pre-processing* technique: the hulls cost up-front work and
// storage, and must be maintained under updates — the trade-off the
// paper's runtime hardware filter avoids.
type HullSet struct {
	hulls []*geom.Polygon // nil where the object is degenerate
}

// NewHullSet computes hulls for every object.
func NewHullSet(objects []*geom.Polygon) *HullSet {
	hs := &HullSet{hulls: make([]*geom.Polygon, len(objects))}
	for i, p := range objects {
		hs.hulls[i] = p.Hull()
	}
	return hs
}

// Len returns the number of objects covered.
func (hs *HullSet) Len() int { return len(hs.hulls) }

// Hull returns object i's hull, or nil when unavailable.
func (hs *HullSet) Hull(i int) *geom.Polygon { return hs.hulls[i] }

// PairMayIntersect applies the hull test between object i of hs and object
// j of other.
func PairMayIntersect(a *HullSet, i int, b *HullSet, j int) bool {
	ha := a.Hull(i)
	hb := b.Hull(j)
	if ha == nil || hb == nil {
		return true
	}
	return sweep.PolygonsIntersect(ha, hb, sweep.Options{})
}
