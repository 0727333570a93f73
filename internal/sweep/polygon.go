package sweep

import "repro/internal/geom"

// Options is empty: the software test has one path. It stays only because
// the frozen benchmark harness passes Options{}; ROADMAP item 1 removes it.
type Options struct{}

// PolygonsIntersect is the software intersection test of the paper (§3.1):
// a linear point-in-polygon containment check in both directions, followed
// by the plane sweep between the boundary edges that touch the
// intersection of the two MBRs (the restricted search space of §4.1.1).
// Boundary touches count as intersection (closed-region semantics).
func PolygonsIntersect(p, q *geom.Polygon, _ Options) bool {
	if !p.Bounds().Intersects(q.Bounds()) {
		return false
	}
	if ContainmentPossible(p, q) {
		return true
	}
	// Any boundary intersection point lies in both MBRs, so only edges
	// touching the common region can matter.
	red, blue := CandidateEdgesInto(p, q, nil, nil)
	return CrossIntersects(red, blue)
}

// ContainmentPossible runs step 1 of the software test: it reports true
// when a vertex of one polygon lies inside (or on) the other, which covers
// full containment either way and many overlap cases. A false result rules
// out containment but not boundary intersection.
func ContainmentPossible(p, q *geom.Polygon) bool {
	return q.ContainsPoint(p.Verts[0]) || p.ContainsPoint(q.Verts[0])
}

// AppendEdgesInRange appends the edges i in [lo, hi) of p that have at
// least one point in r to dst, in chain order. The loop tests the edge's
// bounding box first so edges far from r cost four comparisons. It is the
// single edge
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
	red = AppendEdgesInRange(redBuf[:0], p, common, 0, len(p.Verts))
	if len(red) == 0 {
		return nil, nil
	}
	blue = AppendEdgesInRange(blueBuf[:0], q, common, 0, len(q.Verts))
	if len(blue) == 0 {
		return nil, nil
	}
	return red, blue
}
