package filter

import (
	"math"

	"repro/internal/geom"
)

// UpperBound0 is the 0-Object filter: an upper bound on the distance
// between two objects known only by their MBRs. Every object touches all
// four edges of its MBR, so for any pair of facing edges there is a point
// of each object somewhere on them; the distance between those unknown
// points is at most the maximum edge-to-edge distance, and the minimum of
// that quantity over all 16 edge pairs bounds the object distance.
func UpperBound0(a, b geom.Rect) float64 {
	ca, cb := a.Corners(), b.Corners()
	best := math.Inf(1)
	for i := range 4 {
		ea := geom.Segment{A: ca[i], B: ca[(i+1)%4]}
		for j := range 4 {
			eb := geom.Segment{A: cb[j], B: cb[(j+1)%4]}
			best = min(best, segMaxDistSq(ea, eb))
		}
	}
	return math.Sqrt(best)
}

// segMaxDistSq returns the squared maximum distance between any point of s
// and any point of u. Distance is convex over the two segments, so the
// maximum is attained at an endpoint pair.
func segMaxDistSq(s, u geom.Segment) float64 {
	d := s.A.DistSq(u.A)
	if v := s.A.DistSq(u.B); v > d {
		d = v
	}
	if v := s.B.DistSq(u.A); v > d {
		d = v
	}
	if v := s.B.DistSq(u.B); v > d {
		d = v
	}
	return d
}

// UpperBound1 is the 1-Object filter: an upper bound on the distance from
// polygon p (actual geometry available) to an object known only by its MBR
// other. Each vertex v of p is a point of the first object, and the second
// object is within MinMaxDist(v, other) of v, so the minimum over vertices
// bounds the pair distance. The paper applies this with the larger
// object's geometry retrieved (§4.1.1).
func UpperBound1(p *geom.Polygon, other geom.Rect) float64 {
	best := math.Inf(1)
	for _, v := range p.Verts {
		best = min(best, other.MinMaxDistSq(v))
	}
	return math.Sqrt(best)
}

// UpperBound1Within reports whether UpperBound1(p, other) <= d, stopping at
// the first vertex that proves it: a filter hit usually needs a few
// vertices, only a miss scans them all.
func UpperBound1Within(p *geom.Polygon, other geom.Rect, d float64) bool {
	dSq := geom.SqBound(d)
	for _, v := range p.Verts {
		if other.MinMaxDistSq(v) <= dSq {
			return true
		}
	}
	return false
}
