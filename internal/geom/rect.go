package geom

import (
	"fmt"
	"math"
)

// Rect is a closed axis-aligned rectangle, used throughout as a minimum
// bounding rectangle (MBR).
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// R is shorthand for Rect{minX, minY, maxX, maxY}.
func R(minX, minY, maxX, maxY float64) Rect {
	return Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
}

// EmptyRect returns the identity element for Union: a rectangle that
// contains nothing and leaves any rectangle unchanged when united with it.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g | %g,%g]", r.MinX, r.MinY, r.MaxX, r.MaxY)
}

// Width returns the extent of r along the x axis.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the extent of r along the y axis.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r, or 0 for an empty rectangle.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// ContainsPoint reports whether p lies in the closed region r.
func (r Rect) ContainsPoint(p Point) bool {
	return r.MinX <= p.X && p.X <= r.MaxX && r.MinY <= p.Y && p.Y <= r.MaxY
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return r.MinX <= s.MinX && s.MaxX <= r.MaxX && r.MinY <= s.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share at least one point. Closed-region
// semantics: rectangles that merely touch count as intersecting.
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersection returns the common region of r and s, which is empty when
// they do not intersect.
func (r Rect) Intersection(s Rect) Rect {
	return Rect{
		MinX: max(r.MinX, s.MinX),
		MinY: max(r.MinY, s.MinY),
		MaxX: min(r.MaxX, s.MaxX),
		MaxY: min(r.MaxY, s.MaxY),
	}
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: min(r.MinX, s.MinX),
		MinY: min(r.MinY, s.MinY),
		MaxX: max(r.MaxX, s.MaxX),
		MaxY: max(r.MaxY, s.MaxY),
	}
}

// ExtendPoint returns the smallest rectangle containing r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return r.Union(Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
}

// Expand returns r grown by d in every direction. The paper uses this to
// turn a within-distance-D test into an intersection test on expanded
// regions and to extend MBRs for the restricted-search-space optimization.
func (r Rect) Expand(d float64) Rect {
	return Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
}

// Dist returns the minimum distance between the closed regions r and s.
// It is zero when they intersect. This is the lower bound used by MBR
// filtering for within-distance joins.
func (r Rect) Dist(s Rect) float64 {
	return math.Hypot(gap(r.MinX, r.MaxX, s.MinX, s.MaxX), gap(r.MinY, r.MaxY, s.MinY, s.MaxY))
}

// DistSq returns the squared minimum distance between r and s: the form
// to use wherever the distance is only compared (against SqBound(d)), as
// in the MBR pre-tests, the R-tree distance join and the distance kernel's
// box skip. Per axis it is gap's value (at most one of the two
// differences is positive), written so that the compiler inlines it.
func (r Rect) DistSq(s Rect) float64 {
	dx := max(r.MinX-s.MaxX, s.MinX-r.MaxX, 0)
	dy := max(r.MinY-s.MaxY, s.MinY-r.MaxY, 0)
	return dx*dx + dy*dy
}

// gap returns the distance between the intervals [lo1, hi1] and
// [lo2, hi2], zero when they overlap.
func gap(lo1, hi1, lo2, hi2 float64) float64 {
	if v := lo1 - hi2; v > 0 {
		return v
	}
	if v := lo2 - hi1; v > 0 {
		return v
	}
	return 0
}

// SqBound returns the largest s with math.Sqrt(s) <= d, so that for any
// squared distance x, x <= SqBound(d) decides exactly as math.Sqrt(x) <= d
// would: squared-space comparisons against it cannot lose a pair at
// exactly distance d to the rounding of d*d. A negative or NaN d bounds
// nothing (-1 is below every squared distance). d = 0, the intersection
// test's bound, returns 0 at once: the search would take the square root
// of a subnormal, which costs the processor a microcode assist.
func SqBound(d float64) float64 {
	if !(d > 0) {
		if d == 0 {
			return 0
		}
		return -1
	}
	s := d * d
	for !math.IsInf(s, 1) {
		next := math.Nextafter(s, math.Inf(1))
		if math.Sqrt(next) > d {
			break
		}
		s = next
	}
	return s
}

// MinMaxDistSq returns the square of the MinMaxDist bound from p to r: the
// smallest distance within which a point of any object that touches all
// four edges of its MBR r is guaranteed to be found. It is the classic
// R-tree nearest-neighbor bound, reused here for the 0-Object and 1-Object
// filters of within-distance joins; callers take a minimum over many
// points and one root at the end.
func (r Rect) MinMaxDistSq(p Point) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	// For each axis k, the object touches both the low and high edges
	// perpendicular to k somewhere; pick the nearer edge along k and the
	// farthest corner along the other axis.
	rmX := nearerEdge(p.X, r.MinX, r.MaxX)
	rMX := fartherEdge(p.X, r.MinX, r.MaxX)
	rmY := nearerEdge(p.Y, r.MinY, r.MaxY)
	rMY := fartherEdge(p.Y, r.MinY, r.MaxY)

	dx := p.X - rmX
	dyFar := p.Y - rMY
	d1 := dx*dx + dyFar*dyFar

	dy := p.Y - rmY
	dxFar := p.X - rMX
	d2 := dy*dy + dxFar*dxFar

	return min(d1, d2)
}

func nearerEdge(v, lo, hi float64) float64 {
	if v <= (lo+hi)/2 {
		return lo
	}
	return hi
}

func fartherEdge(v, lo, hi float64) float64 {
	if v >= (lo+hi)/2 {
		return lo
	}
	return hi
}

// Corners returns the four corner points of r in counter-clockwise order
// starting at (MinX, MinY).
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.MinX, r.MinY},
		{r.MaxX, r.MinY},
		{r.MaxX, r.MaxY},
		{r.MinX, r.MaxY},
	}
}

// IntersectsSegment reports whether segment s has at least one point inside
// the closed region r.
func (r Rect) IntersectsSegment(s Segment) bool {
	if r.ContainsPoint(s.A) || r.ContainsPoint(s.B) {
		return true
	}
	if !r.Intersects(s.Bounds()) {
		return false
	}
	c := r.Corners()
	for i := range 4 {
		if s.Intersects(Segment{c[i], c[(i+1)%4]}) {
			return true
		}
	}
	return false
}
