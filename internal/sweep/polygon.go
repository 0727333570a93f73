package sweep

import "repro/internal/geom"

// Algorithm selects the segment-intersection detection algorithm used by
// PolygonsIntersect.
type Algorithm int

// Available detection algorithms.
const (
	// PlaneSweep is the paper's red-black-tree plane sweep.
	PlaneSweep Algorithm = iota
	// ForwardScan is the sort + forward-scan sweep.
	ForwardScan
	// BruteForce tests all edge pairs; for testing and tiny inputs.
	BruteForce
)

// Options configure the software polygon intersection test.
type Options struct {
	// Algorithm picks the segment detection algorithm. Default PlaneSweep.
	Algorithm Algorithm
	// NoRestrictSearch disables the restricted-search-space optimization
	// (clipping candidate edges to the intersection of the two MBRs, §4.1.1
	// of the paper, worth 30–40% there). On by default; the flag exists for
	// the ablation benchmark.
	NoRestrictSearch bool
}

// PolygonsIntersect is the software intersection test of the paper (§3.1):
// a linear point-in-polygon containment check in both directions, followed
// by a segment intersection test between the boundary chains. Boundary
// touches count as intersection (closed-region semantics).
func PolygonsIntersect(p, q *geom.Polygon, opt Options) bool {
	if !p.Bounds().Intersects(q.Bounds()) {
		return false
	}
	if ContainmentPossible(p, q) {
		return true
	}
	return BoundariesIntersect(p, q, opt)
}

// ContainmentPossible runs step 1 of the software test: it reports true
// when a vertex of one polygon lies inside (or on) the other, which covers
// full containment either way and many overlap cases. A false result rules
// out containment but not boundary intersection.
func ContainmentPossible(p, q *geom.Polygon) bool {
	return q.ContainsPoint(p.Verts[0]) || p.ContainsPoint(q.Verts[0])
}

// BoundariesIntersect runs step 2 of the software test: whether the edge
// chains of p and q share a point.
func BoundariesIntersect(p, q *geom.Polygon, opt Options) bool {
	var red, blue []geom.Segment
	if opt.NoRestrictSearch {
		red = edges(p, nil)
		blue = edges(q, nil)
	} else {
		// Restricted search space: any boundary intersection point lies in
		// both MBRs, so only edges touching the common region can matter.
		common := p.Bounds().Intersection(q.Bounds())
		red = edgesInRect(p, common)
		if len(red) == 0 {
			return false
		}
		blue = edgesInRect(q, common)
		if len(blue) == 0 {
			return false
		}
	}
	switch opt.Algorithm {
	case ForwardScan:
		return CrossIntersectsForwardScan(red, blue)
	case BruteForce:
		return CrossIntersectsBrute(red, blue)
	default:
		return CrossIntersects(red, blue)
	}
}

// edges appends all edges of p to dst and returns it.
func edges(p *geom.Polygon, dst []geom.Segment) []geom.Segment {
	for i := range p.NumEdges() {
		dst = append(dst, p.Edge(i))
	}
	return dst
}

// edgesInRect returns the edges of p that have at least one point in r.
func edgesInRect(p *geom.Polygon, r geom.Rect) []geom.Segment {
	return appendEdgesInRect(nil, p, r)
}

// appendEdgesInRect appends the edges of p that have at least one point in
// r to dst. The loop tests the edge's bounding box first so edges far from
// the common region cost four comparisons.
func appendEdgesInRect(dst []geom.Segment, p *geom.Polygon, r geom.Rect) []geom.Segment {
	return AppendEdgesInRange(dst, p, r, 0, len(p.Verts))
}

// AppendEdgesInRange appends the edges i in [lo, hi) of p that have at
// least one point in r to dst, in chain order. It is the single edge
// selection predicate shared by the linear scan and the edge index
// (internal/edgeindex), which guarantees the two produce identical edge
// sets: the index only decides which ranges to hand to this function.
func AppendEdgesInRange(dst []geom.Segment, p *geom.Polygon, r geom.Rect, lo, hi int) []geom.Segment {
	verts := p.Verts
	n := len(verts)
	for i := lo; i < hi; i++ {
		a := verts[i]
		b := verts[0]
		if i+1 < n {
			b = verts[i+1]
		}
		// Cheap bbox reject before the exact segment-rectangle test.
		if (a.X < r.MinX && b.X < r.MinX) || (a.X > r.MaxX && b.X > r.MaxX) ||
			(a.Y < r.MinY && b.Y < r.MinY) || (a.Y > r.MaxY && b.Y > r.MaxY) {
			continue
		}
		e := geom.Segment{A: a, B: b}
		if r.IntersectsSegment(e) {
			dst = append(dst, e)
		}
	}
	return dst
}

// CandidateEdgesInto is the restricted-search-space edge selection: the
// edges of p and of q that touch the intersection of their MBRs, appended
// into caller-provided backing slices (reset to length zero first; nil
// allocates), so per-pair hot paths can run allocation-free. The
// hardware-assisted test renders exactly the edge subsets the software
// test would sweep. Either result is nil when empty, in which case the
// other may be left short.
func CandidateEdgesInto(p, q *geom.Polygon, redBuf, blueBuf []geom.Segment) (red, blue []geom.Segment) {
	common := p.Bounds().Intersection(q.Bounds())
	red = appendEdgesInRect(redBuf[:0], p, common)
	if len(red) == 0 {
		return nil, nil
	}
	blue = appendEdgesInRect(blueBuf[:0], q, common)
	if len(blue) == 0 {
		return nil, nil
	}
	return red, blue
}
