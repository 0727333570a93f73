// Package dist implements the software distance refinement step for
// within-distance joins (buffer queries): a version of Chan's minDist
// algorithm augmented with the two optimizations described in §4.1.1 of the
// paper:
//
//  1. early exit as soon as the running minimum drops to the query
//     distance D, and
//  2. restriction of each polygon's frontier chain to the parts that
//     intersect the other object's MBR extended by D.
//
// The frontier chain of P with respect to Q is the subset of P's edges that
// face Q: an edge whose outward normal points away from every point of
// MBR(Q) cannot contain the closest point of P to Q (the minimizer's
// separation direction lies in the boundary's outward normal cone), so
// back-facing edges are culled before any edge-pair distances are computed.
//
// The kernel works in squared space on flat arrays. Each side's clipped
// edges are gathered once (through the polygon's edge index when the
// caller has one); the frontier of the side that gathered fewer edges and
// its boxes are laid out as a structure of arrays in a reusable Scratch,
// and the other side's edges stream past it, comparing squared box gaps
// against geom.SqBound(D) with plain branches. A root is taken only where
// a distance is returned.
//
// Distances are region distances: two polygons that intersect (including
// one containing the other) are at distance zero.
package dist

import (
	"math"

	"repro/internal/edgeindex"
	"repro/internal/geom"
	"repro/internal/sweep"
)

// Options toggle the minDist optimizations, mainly for the ablation
// benchmarks; the zero value enables everything.
type Options struct {
	// NoFrontier disables back-face culling of edges.
	NoFrontier bool
	// NoClip disables restricting edges to the other MBR extended by D.
	NoClip bool
}

// WithinDistance reports whether the regions of p and q are within
// distance d of each other. It is the software distance test of the
// evaluation: polygon intersection handling, frontier-chain extraction,
// MBR-extension clipping, and early exit at d.
func WithinDistance(p, q *geom.Polygon, d float64, opt Options) bool {
	if p.Bounds().DistSq(q.Bounds()) > geom.SqBound(d) {
		return false // MBR distance lower-bounds object distance
	}
	if p.Bounds().Intersects(q.Bounds()) && sweep.PolygonsIntersect(p, q, sweep.Options{}) {
		return true // intersecting regions are at distance zero
	}
	var s Scratch
	return s.BoundaryWithin(p, q, nil, nil, d, opt)
}

// MinDist returns the region distance between p and q: zero when they
// intersect, otherwise the minimum boundary-to-boundary distance.
func MinDist(p, q *geom.Polygon, opt Options) float64 {
	if p.Bounds().Intersects(q.Bounds()) && sweep.PolygonsIntersect(p, q, sweep.Options{}) {
		return 0
	}
	var s Scratch
	return math.Sqrt(s.boundarySq(p, q, nil, nil, math.Inf(1), opt))
}

// MinDistBrute returns the region distance computed over all edge pairs
// with no pruning. The testing oracle.
//
//reach:keep reference implementation under dist's tests and fuzz target, core's kernels_test, and the filter and query distance tests
func MinDistBrute(p, q *geom.Polygon) float64 {
	if p.Bounds().Intersects(q.Bounds()) && sweep.PolygonsIntersect(p, q, sweep.Options{}) {
		return 0
	}
	best := math.Inf(1)
	for i := range p.NumEdges() {
		ei := p.Edge(i)
		for j := range q.NumEdges() {
			if d := ei.DistSq(q.Edge(j)); d < best {
				best = d
			}
		}
	}
	return math.Sqrt(best)
}

// Scratch holds the working storage of the chain-distance kernel, reused
// across calls so a refinement worker performing millions of distance
// tests does not allocate per pair. The zero value is ready to use; a
// Scratch is not safe for concurrent use.
type Scratch struct {
	// pe and qe are the sides' gathered edges: clipped to the other side's
	// reach extended by d, before frontier culling.
	pe, qe []geom.Segment
	// inner is the frontier of the side that gathered fewer edges, laid
	// out for the pair loop; the other side streams past it.
	inner edgeArrays
}

// edgeArrays is a frontier as a structure of arrays: edge i runs from
// (ax[i], ay[i]) to (bx[i], by[i]) and has the box
// [x0[i], x1[i]]×[y0[i], y1[i]]. All slices have the same length.
type edgeArrays struct {
	ax, ay, bx, by []float64
	x0, y0, x1, y1 []float64
}

// BoundaryWithin reports whether the boundary chains of p and q come
// within distance d of each other. The caller must have already excluded
// the containment case (boundaries far apart but region distance zero);
// given that, boundary distance equals region distance. Frontier culling
// further assumes the boundaries do not cross: on crossing boundaries it
// can only over-report the distance, so a true verdict is always sound and
// a false one needs the caller's crossing check. This is
// the entry point the hardware-assisted tester uses after its own
// point-in-polygon checks.
//
// pix and qix are the polygons' edge indexes, or nil: an index that
// indexes its polygon turns the clip of that side from a scan of the whole
// chain into a probe. The verdict does not depend on them.
func (s *Scratch) BoundaryWithin(p, q *geom.Polygon, pix, qix *edgeindex.Index, d float64, opt Options) bool {
	return s.boundarySq(p, q, pix, qix, d, opt) <= geom.SqBound(d)
}

// boundarySq computes the squared minimum distance between the frontier
// chains of p and q under the search radius d (+Inf for an unbounded
// minDist), stopping early once the running minimum is ≤ geom.SqBound(d).
// When clipping or frontier culling removes every candidate edge the
// distance is known to exceed d and +Inf is returned. Under a finite d a
// result above the bound is not the minimum — pairs whose boxes are
// farther apart than d are never evaluated — only a proof that the
// minimum exceeds d.
func (s *Scratch) boundarySq(p, q *geom.Polygon, pix, qix *edgeindex.Index, d float64, opt Options) float64 {
	inf := math.Inf(1)
	// limit bounds the box gaps worth evaluating; exitSq ends the search.
	// An unbounded search starts with no limit and never exits early.
	limit, exitSq := inf, -1.0
	if !math.IsInf(d, 1) {
		limit = geom.SqBound(d)
		exitSq = limit
	}
	s.pe, s.qe = s.pe[:0], s.qe[:0]
	// Every edge that can come within d of the other boundary touches the
	// other side's reach extended by d, where a side's reach is first its
	// MBR and then the tighter box of its own gathered edges: the
	// polygon with fewer vertices is clipped to the other MBR, the larger
	// one to the box of what that left, so a small neighbour gathers only
	// a thin slice of a monster polygon.
	if q.NumVerts() < p.NumVerts() {
		s.qe, s.pe = gatherPair(s.qe, s.pe, q, p, qix, pix, d, opt)
	} else {
		s.pe, s.qe = gatherPair(s.pe, s.qe, p, q, pix, qix, d, opt)
	}
	if len(s.pe) == 0 || len(s.qe) == 0 {
		return inf
	}
	// The side with fewer gathered edges is laid out once; each edge of
	// the other side is culled, boxed and run past it in turn, so a pair
	// that is within d stops before the rest of the long side is touched.
	in, out, inPoly, outPoly := s.pe, s.qe, p, q
	if len(out) < len(in) {
		in, out, inPoly, outPoly = out, in, outPoly, inPoly
	}
	frontier := !opt.NoFrontier
	s.inner.set(in, frontier, frontier && inPoly.CCW(), outPoly.Bounds())
	outCCW, corners := frontier && outPoly.CCW(), inPoly.Bounds().Corners()
	best := inf
	for _, e := range out {
		if frontier && backFacing(e, outCCW, corners) {
			continue
		}
		if dd := s.inner.distSq(e, limit, exitSq); dd < best {
			best = dd
			if best <= exitSq {
				return best
			}
			// Only an unbounded search gets here with best < limit.
			limit = min(limit, best)
		}
	}
	return best
}

// gatherPair gathers the edges of a (the polygon with fewer vertices) and
// b that can come within d of the other polygon; be is left as it is when
// ae comes back empty.
func gatherPair(ae, be []geom.Segment, a, b *geom.Polygon, aix, bix *edgeindex.Index, d float64, opt Options) (_, _ []geom.Segment) {
	if opt.NoClip || math.IsInf(d, 1) {
		return appendEdges(ae, a), appendEdges(be, b)
	}
	if ae = gather(ae, a, aix, b.Bounds().Expand(d)); len(ae) == 0 {
		return ae, be
	}
	return ae, gather(be, b, bix, segmentsBounds(ae).Expand(d))
}

// gather appends to dst the edges of p that have a point in clip, through
// ix when it indexes p, else by scanning the chain. Both routes share
// sweep.AppendEdgesInRange as the selection predicate and keep chain order.
func gather(dst []geom.Segment, p *geom.Polygon, ix *edgeindex.Index, clip geom.Rect) []geom.Segment {
	if ix != nil && ix.Polygon() == p {
		dst, _ = ix.AppendEdgesInRect(dst, clip)
		return dst
	}
	if !clip.Intersects(p.Bounds()) {
		return dst
	}
	return sweep.AppendEdgesInRange(dst, p, clip, 0, p.NumEdges())
}

func appendEdges(dst []geom.Segment, p *geom.Polygon) []geom.Segment {
	for i := range p.NumEdges() {
		dst = append(dst, p.Edge(i))
	}
	return dst
}

// segmentsBounds returns the box of segs.
func segmentsBounds(segs []geom.Segment) geom.Rect {
	r := geom.EmptyRect()
	for _, sg := range segs {
		r = r.Union(sg.Bounds())
	}
	return r
}

// set loads the edges of segs: all of them, or under frontier culling
// those that are not back-facing with respect to the target MBR, where ccw
// is the winding of the polygon segs come from.
func (e *edgeArrays) set(segs []geom.Segment, frontier, ccw bool, target geom.Rect) {
	e.resize(len(segs))
	corners := target.Corners()
	n := 0
	for _, sg := range segs {
		if frontier && backFacing(sg, ccw, corners) {
			continue
		}
		e.ax[n], e.ay[n], e.bx[n], e.by[n] = sg.A.X, sg.A.Y, sg.B.X, sg.B.Y
		e.x0[n], e.x1[n] = min(sg.A.X, sg.B.X), max(sg.A.X, sg.B.X)
		e.y0[n], e.y1[n] = min(sg.A.Y, sg.B.Y), max(sg.A.Y, sg.B.Y)
		n++
	}
	e.resize(n)
}

// resize sets the length of every array to n, reallocating all eight as
// one block when n exceeds their capacity (contents are not kept).
func (e *edgeArrays) resize(n int) {
	if c := cap(e.ax); c < n {
		c = max(n, 2*c)
		buf := make([]float64, 8*c)
		col := func(i int) []float64 { return buf[i*c : (i+1)*c : (i+1)*c] }
		e.ax, e.ay, e.bx, e.by = col(0), col(1), col(2), col(3)
		e.x0, e.y0, e.x1, e.y1 = col(4), col(5), col(6), col(7)
	}
	e.ax, e.ay, e.bx, e.by = e.ax[:n], e.ay[:n], e.bx[:n], e.by[:n]
	e.x0, e.y0, e.x1, e.y1 = e.x0[:n], e.y0[:n], e.x1[:n], e.y1[:n]
}

func (e *edgeArrays) segment(i int) geom.Segment {
	return geom.Segment{A: geom.Point{X: e.ax[i], Y: e.ay[i]}, B: geom.Point{X: e.bx[i], Y: e.by[i]}}
}

// distSq returns the squared distance from sg to the nearest edge of e,
// looking only at edges whose box is within limit (squared) of sg's — the
// box gap lower-bounds the edge distance, so an edge farther than that
// cannot be within limit itself — and stopping at the first distance
// ≤ exitSq. +Inf when no edge qualifies.
func (e *edgeArrays) distSq(sg geom.Segment, limit, exitSq float64) float64 {
	box := sg.Bounds()
	x0, y0, x1, y1 := e.x0, e.y0[:len(e.x0)], e.x1[:len(e.x0)], e.y1[:len(e.x0)]
	best := math.Inf(1)
	for j := range x0 {
		var dx, dy float64
		if v := x0[j] - box.MaxX; v > 0 {
			dx = v
		} else if v := box.MinX - x1[j]; v > 0 {
			dx = v
		}
		if v := y0[j] - box.MaxY; v > 0 {
			dy = v
		} else if v := box.MinY - y1[j]; v > 0 {
			dy = v
		}
		if dx*dx+dy*dy > limit {
			continue
		}
		if dd := sg.DistSq(e.segment(j)); dd < best {
			if dd <= exitSq {
				return dd
			}
			best, limit = dd, min(limit, dd)
		}
	}
	return best
}

// backFacing reports whether edge e faces away from every corner of the
// target MBR: dot(n, c-x) ≤ 0 for the outward normal n, both endpoints x,
// and all corners c. Dot products are linear, so checking the extreme
// points covers every point of the edge and of the MBR.
func backFacing(e geom.Segment, ccw bool, corners [4]geom.Point) bool {
	dir := e.B.Sub(e.A)
	// For a CCW polygon the interior is to the left of each directed edge,
	// so the outward normal is the right normal (dy, -dx).
	n := geom.Pt(dir.Y, -dir.X)
	if !ccw {
		n = geom.Pt(-dir.Y, dir.X)
	}
	for _, c := range corners {
		if n.Dot(c.Sub(e.A)) > 0 || n.Dot(c.Sub(e.B)) > 0 {
			return false
		}
	}
	return true
}
