// Package geom provides the 2D geometric primitives and low-level
// computational-geometry predicates that the rest of the library is built
// on: points, line segments, axis-aligned rectangles (MBRs), and simple
// polygons, together with orientation tests, segment intersection and
// distance routines, and point-in-polygon testing.
//
// The conventions follow the spatial-database literature the reproduced
// paper builds on: polygons are simple closed vertex chains (the closing
// edge from the last vertex back to the first is implicit), rectangles are
// closed regions, and all coordinates are float64 in an arbitrary data
// space.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the 2D data space.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// IsFinite reports whether both coordinates are finite (neither NaN nor
// ±Inf). Non-finite coordinates poison every downstream predicate — MBR
// comparisons, orientation tests, the rasterizer's viewport transform — so
// input paths reject them at construction time.
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// Cross returns the z component of the cross product of p and q viewed as
// vectors.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// DistSq returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred comparison form in inner loops.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Eq reports whether p and q have exactly equal coordinates.
func (p Point) Eq(q Point) bool { return p.X == q.X && p.Y == q.Y }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Orientation classifies the turn formed by three points.
type Orientation int

// Turn directions returned by Orient.
const (
	Clockwise        Orientation = -1
	Collinear        Orientation = 0
	CounterClockwise Orientation = 1
)

// Orient returns the orientation of the ordered triple (a, b, c): whether c
// lies to the left of (counter-clockwise), to the right of (clockwise), or
// on the directed line a->b.
func Orient(a, b, c Point) Orientation {
	d := cross3(a, b, c)
	switch {
	case d > 0:
		return CounterClockwise
	case d < 0:
		return Clockwise
	default:
		return Collinear
	}
}

// cross3 returns the signed doubled area of triangle (a, b, c).
func cross3(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}
