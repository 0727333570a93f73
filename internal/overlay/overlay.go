// Package overlay computes exact overlay measures — intersection, union
// and symmetric-difference areas — of two simple polygons, the map-overlay
// operation whose intermediate results the paper's introduction gives as a
// workload that pre-processing filters cannot serve.
//
// The method is a vertical slab decomposition: slab boundaries are placed
// at every vertex x-coordinate of both polygons and at every crossing
// between their boundaries. Inside an open slab no two edges cross, so
// each polygon's interior over the slab is a stack of trapezoids bounded
// by fixed edges, the pairwise overlap length is a linear function of x,
// and the overlap area integrates exactly as a trapezoid. No intersection
// geometry is ever constructed, which sidesteps the degeneracy surgery
// that clipping algorithms require. A sweep keeps each polygon's edges
// that span the current slab, so a slab costs the edges over it rather
// than every edge; the crossing search is still O(n·m) pairs behind an
// MBR test (use geom.ClipConvex for the convex fast path).
package overlay

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/geom"
)

// IntersectionArea returns the area of p ∩ q.
func IntersectionArea(p, q *geom.Polygon) float64 {
	if !p.Bounds().Intersects(q.Bounds()) {
		return 0
	}
	xs := slabBoundaries(p, q)
	ps, qs := newEdgeSweep(p), newEdgeSweep(q)
	var area float64
	var pe, qe []spanEdge
	for i := 0; i+1 < len(xs); i++ {
		x0, x1 := xs[i], xs[i+1]
		ps.advance(x0)
		qs.advance(x0)
		if x1 <= x0 {
			continue
		}
		pe = ps.spanning(x0, x1, pe[:0])
		if len(pe) == 0 {
			continue
		}
		qe = qs.spanning(x0, x1, qe[:0])
		if len(qe) == 0 {
			continue
		}
		area += slabOverlap(pe, qe, x0, x1)
	}
	return area
}

// slabBoundaries returns the sorted, deduplicated slab boundary
// x-coordinates: all vertices of both polygons plus every boundary
// crossing between them, clipped to the common x-range.
func slabBoundaries(p, q *geom.Polygon) []float64 {
	common := p.Bounds().Intersection(q.Bounds())
	var xs []float64
	add := func(x float64) {
		if x >= common.MinX && x <= common.MaxX {
			xs = append(xs, x)
		}
	}
	add(common.MinX)
	add(common.MaxX)
	for _, v := range p.Verts {
		add(v.X)
	}
	for _, v := range q.Verts {
		add(v.X)
	}
	// Boundary crossings between the polygons.
	for i := range p.NumEdges() {
		ep := p.Edge(i)
		bp := ep.Bounds()
		if !bp.Intersects(common) {
			continue
		}
		for j := range q.NumEdges() {
			eq := q.Edge(j)
			if !bp.Intersects(eq.Bounds()) {
				continue
			}
			if x, ok := crossingX(ep, eq); ok {
				add(x)
			}
		}
	}
	sort.Float64s(xs)
	// Deduplicate.
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// crossingX returns the x-coordinate of the proper crossing of a and b,
// when there is one. Endpoint touches and collinear overlaps contribute no
// extra boundary: their x-coordinates are already vertex events.
func crossingX(a, b geom.Segment) (float64, bool) {
	if !a.IntersectsProper(b) {
		return 0, false
	}
	d := a.B.Sub(a.A)
	e := b.B.Sub(b.A)
	denom := d.Cross(e)
	if denom == 0 {
		return 0, false
	}
	t := b.A.Sub(a.A).Cross(e) / denom
	return a.A.X + t*d.X, true
}

// spanEdge is one non-vertical edge spanning a slab, with its y values at
// the slab boundaries.
type spanEdge struct {
	y0, y1 float64
}

// edgeSweep walks one polygon's non-vertical edges across the slabs in
// ascending x. Because every vertex x inside the common x-range is a slab
// boundary, an edge spans the slab starting at x0 exactly when its left
// end is at or before x0 and its right end after x0; vertical edges sit
// on boundaries and never span. So each slab costs its active edges, not
// every edge of the polygon.
type edgeSweep struct {
	p      *geom.Polygon
	byLeft []int // non-vertical edge indices, by left end x
	next   int   // byLeft[next:] have not started yet
	active []int // edges started and not yet ended, by index
}

func newEdgeSweep(p *geom.Polygon) *edgeSweep {
	s := &edgeSweep{p: p}
	for i := range p.NumEdges() {
		if e := p.Edge(i); e.A.X != e.B.X {
			s.byLeft = append(s.byLeft, i)
		}
	}
	sort.SliceStable(s.byLeft, func(i, j int) bool {
		return s.left(s.byLeft[i]) < s.left(s.byLeft[j])
	})
	return s
}

func (s *edgeSweep) left(i int) float64 {
	e := s.p.Edge(i)
	return min(e.A.X, e.B.X)
}

func (s *edgeSweep) right(i int) float64 {
	e := s.p.Edge(i)
	return max(e.A.X, e.B.X)
}

// advance moves the sweep to the slab starting at x0: edges that end at
// or before x0 leave the active list, edges that start at or before it
// join, and the list stays in edge-index order.
func (s *edgeSweep) advance(x0 float64) {
	kept := s.active[:0]
	for _, i := range s.active {
		if s.right(i) > x0 {
			kept = append(kept, i)
		}
	}
	s.active = kept
	n := len(s.active)
	for ; s.next < len(s.byLeft) && s.left(s.byLeft[s.next]) <= x0; s.next++ {
		if i := s.byLeft[s.next]; s.right(i) > x0 {
			s.active = append(s.active, i)
		}
	}
	if len(s.active) > n {
		sort.Ints(s.active)
	}
}

// spanning collects the active edges' y values at the slab's boundaries,
// sorted by y at the slab midpoint. The edges are visited in index order,
// so the result is the one a scan over every edge would give.
func (s *edgeSweep) spanning(x0, x1 float64, dst []spanEdge) []spanEdge {
	for _, i := range s.active {
		dst = append(dst, spanAt(s.p.Edge(i), x0, x1))
	}
	sortSpans(dst)
	return dst
}

// spanAt is e's span over [x0, x1].
func spanAt(e geom.Segment, x0, x1 float64) spanEdge {
	m := (e.B.Y - e.A.Y) / (e.B.X - e.A.X)
	return spanEdge{
		y0: e.A.Y + m*(x0-e.A.X),
		y1: e.A.Y + m*(x1-e.A.X),
	}
}

func sortSpans(dst []spanEdge) {
	slices.SortFunc(dst, func(a, b spanEdge) int { return cmp.Compare(a.y0+a.y1, b.y0+b.y1) })
}

// slabOverlap integrates the overlap of the two polygons' interiors over
// one slab: interiors are the even–odd pairings of spanning edges, and
// each interval-pair overlap is a linear function of x (no crossings
// inside the slab), integrating to the average of its endpoint lengths.
func slabOverlap(pe, qe []spanEdge, x0, x1 float64) float64 {
	w := x1 - x0
	var sum float64
	for i := 0; i+1 < len(pe); i += 2 {
		for j := 0; j+1 < len(qe); j += 2 {
			l0 := overlapLen(pe[i].y0, pe[i+1].y0, qe[j].y0, qe[j+1].y0)
			l1 := overlapLen(pe[i].y1, pe[i+1].y1, qe[j].y1, qe[j+1].y1)
			sum += (l0 + l1) / 2
		}
	}
	return sum * w
}

func overlapLen(aLo, aHi, bLo, bHi float64) float64 {
	lo := aLo
	if bLo > lo {
		lo = bLo
	}
	hi := aHi
	if bHi < hi {
		hi = bHi
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}
