package geom

import "fmt"

// Segment is a closed line segment between two endpoints.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{a, b} }

// String implements fmt.Stringer.
func (s Segment) String() string { return fmt.Sprintf("[%v - %v]", s.A, s.B) }

// Bounds returns the MBR of s.
func (s Segment) Bounds() Rect {
	return Rect{
		MinX: min(s.A.X, s.B.X),
		MinY: min(s.A.Y, s.B.Y),
		MaxX: max(s.A.X, s.B.X),
		MaxY: max(s.A.Y, s.B.Y),
	}
}

// onSegment reports whether collinear point p lies on segment s (inclusive
// of endpoints). The caller must ensure p is collinear with s.
func onSegment(s Segment, p Point) bool {
	return min(s.A.X, s.B.X) <= p.X && p.X <= max(s.A.X, s.B.X) &&
		min(s.A.Y, s.B.Y) <= p.Y && p.Y <= max(s.A.Y, s.B.Y)
}

// Intersects reports whether segments s and t share at least one point.
// Touching endpoints and collinear overlap both count as intersection,
// matching the closed-region semantics of spatial predicates.
func (s Segment) Intersects(t Segment) bool {
	d1 := Orient(t.A, t.B, s.A)
	d2 := Orient(t.A, t.B, s.B)
	d3 := Orient(s.A, s.B, t.A)
	d4 := Orient(s.A, s.B, t.B)

	if d1 != d2 && d3 != d4 {
		return true
	}
	if d1 == Collinear && onSegment(t, s.A) {
		return true
	}
	if d2 == Collinear && onSegment(t, s.B) {
		return true
	}
	if d3 == Collinear && onSegment(s, t.A) {
		return true
	}
	if d4 == Collinear && onSegment(s, t.B) {
		return true
	}
	return false
}

// IntersectsProper reports whether s and t cross at a single interior point
// of both segments (a "proper" intersection). Endpoint touches and
// collinear overlaps are not proper.
func (s Segment) IntersectsProper(t Segment) bool {
	d1 := Orient(t.A, t.B, s.A)
	d2 := Orient(t.A, t.B, s.B)
	d3 := Orient(s.A, s.B, t.A)
	d4 := Orient(s.A, s.B, t.B)
	return d1 != Collinear && d2 != Collinear && d3 != Collinear && d4 != Collinear &&
		d1 != d2 && d3 != d4
}

// DistSqToPoint returns the squared minimum distance from p to the closed
// segment s.
func (s Segment) DistSqToPoint(p Point) float64 {
	d := s.B.Sub(s.A)
	lenSq := d.Dot(d)
	if lenSq == 0 {
		return p.DistSq(s.A)
	}
	t := p.Sub(s.A).Dot(d) / lenSq
	switch {
	case t <= 0:
		return p.DistSq(s.A)
	case t >= 1:
		return p.DistSq(s.B)
	}
	proj := Point{s.A.X + t*d.X, s.A.Y + t*d.Y}
	return p.DistSq(proj)
}

// DistSq returns the squared minimum distance between the closed segments
// s and t. It is zero when the segments intersect.
func (s Segment) DistSq(t Segment) float64 {
	if s.Intersects(t) {
		return 0
	}
	return min(s.DistSqToPoint(t.A), s.DistSqToPoint(t.B), t.DistSqToPoint(s.A), t.DistSqToPoint(s.B))
}
