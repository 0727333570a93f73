package filter

import (
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/sweep"
)

// EdgeTree is the TR*-tree refinement technique of Brinkhoff et al. (the
// second row of the paper's Table 1): a pre-built spatial index over one
// object's edges, so that the segment-intersection test between two
// objects becomes a synchronized traversal of their edge trees with early
// exit, instead of a per-pair plane sweep. Like the geometric filter it is
// a pre-processing technique — the edge trees must be built, stored and
// maintained — which is the cost the paper's runtime hardware filter
// avoids. (The original TR*-tree stores trapezoid decompositions; indexing
// the edge MBRs keeps the same access structure and asymptotics on the
// boundary-test workload this library needs.)
type EdgeTree struct {
	poly *geom.Polygon
	tree *rtree.Tree
}

// NewEdgeTree builds the edge index of p.
func NewEdgeTree(p *geom.Polygon) *EdgeTree {
	entries := make([]rtree.Entry, p.NumEdges())
	for i := range p.NumEdges() {
		entries[i] = rtree.Entry{Bounds: p.Edge(i).Bounds(), ID: i}
	}
	return &EdgeTree{poly: p, tree: rtree.NewBulk(entries)}
}

// Intersects reports whether the regions of the two indexed polygons
// intersect: the usual point-in-polygon containment step, then an edge
// tree join that stops at the first intersecting edge pair.
func (t *EdgeTree) Intersects(u *EdgeTree) bool {
	if !t.poly.Bounds().Intersects(u.poly.Bounds()) {
		return false
	}
	if sweep.ContainmentPossible(t.poly, u.poly) {
		return true
	}
	found := false
	rtree.Join(t.tree, u.tree, func(a, b rtree.Entry) bool {
		if t.poly.Edge(a.ID).Intersects(u.poly.Edge(b.ID)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// EdgeTreeSet holds pre-built edge trees for a whole layer.
type EdgeTreeSet struct {
	trees []*EdgeTree
}

// NewEdgeTreeSet indexes every object.
func NewEdgeTreeSet(objects []*geom.Polygon) *EdgeTreeSet {
	s := &EdgeTreeSet{trees: make([]*EdgeTree, len(objects))}
	for i, p := range objects {
		s.trees[i] = NewEdgeTree(p)
	}
	return s
}

// Len returns the number of indexed objects.
func (s *EdgeTreeSet) Len() int { return len(s.trees) }

// Tree returns object i's edge tree.
func (s *EdgeTreeSet) Tree(i int) *EdgeTree { return s.trees[i] }
