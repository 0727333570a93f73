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
// that clipping algorithms require; the cost is O(s·(n+m)) for s slabs,
// fine for analysis workloads (use geom.ClipConvex for the convex fast
// path).
package overlay

import (
	"sort"

	"repro/internal/geom"
)

// IntersectionArea returns the area of p ∩ q.
func IntersectionArea(p, q *geom.Polygon) float64 {
	if !p.Bounds().Intersects(q.Bounds()) {
		return 0
	}
	xs := slabBoundaries(p, q)
	var area float64
	var pe, qe []spanEdge
	for i := 0; i+1 < len(xs); i++ {
		x0, x1 := xs[i], xs[i+1]
		if x1 <= x0 {
			continue
		}
		pe = spanningEdges(p, x0, x1, pe[:0])
		if len(pe) == 0 {
			continue
		}
		qe = spanningEdges(q, x0, x1, qe[:0])
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

// spanningEdges collects the polygon's edges covering [x0, x1]. Because
// every vertex x is a slab boundary, an edge either covers the whole slab
// or misses its interior entirely; vertical edges sit on boundaries and
// never span. The result is sorted by y at the slab midpoint.
func spanningEdges(p *geom.Polygon, x0, x1 float64, dst []spanEdge) []spanEdge {
	for i := range p.NumEdges() {
		e := p.Edge(i)
		ax, bx := e.A.X, e.B.X
		if ax > bx {
			ax, bx = bx, ax
		}
		if ax > x0 || bx < x1 || ax == bx {
			continue
		}
		m := (e.B.Y - e.A.Y) / (e.B.X - e.A.X)
		dst = append(dst, spanEdge{
			y0: e.A.Y + m*(x0-e.A.X),
			y1: e.A.Y + m*(x1-e.A.X),
		})
	}
	sort.Slice(dst, func(i, j int) bool {
		return dst[i].y0+dst[i].y1 < dst[j].y0+dst[j].y1
	})
	return dst
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
