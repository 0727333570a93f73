package geom

import (
	"errors"
	"fmt"
	"math"
)

// Polygon is a simple polygon given as a closed chain of vertices. The edge
// from the last vertex back to the first is implicit; callers must not
// repeat the first vertex at the end. Vertex order may be clockwise or
// counter-clockwise.
//
// A Polygon caches its MBR, so the zero value is not ready for use: build
// polygons with NewPolygon or call Recompute after mutating Verts.
type Polygon struct {
	Verts []Point
	mbr   Rect
}

// NewPolygon builds a polygon from verts. It returns an error when fewer
// than three vertices are supplied or when any vertex has a non-finite
// (NaN or ±Inf) coordinate. The vertex slice is used directly, not copied.
func NewPolygon(verts []Point) (*Polygon, error) {
	if len(verts) < 3 {
		return nil, fmt.Errorf("geom: polygon needs at least 3 vertices, got %d", len(verts))
	}
	for i, v := range verts {
		if !v.IsFinite() {
			return nil, fmt.Errorf("geom: vertex %d has non-finite coordinate (%v, %v)", i, v.X, v.Y)
		}
	}
	p := &Polygon{Verts: verts}
	p.Recompute()
	return p, nil
}

// RestoredPolygon builds a polygon from verts and an already-known MBR,
// skipping the O(n) Recompute pass. It exists for the snapshot loader,
// where the MBR column was persisted next to the coordinates and both are
// integrity-checked together; the caller guarantees mbr is exactly the
// bounds of verts. The vertex slice is used directly, not copied — it may
// be memory-mapped read-only storage, so the polygon must never be
// mutated.
func RestoredPolygon(verts []Point, mbr Rect) *Polygon {
	return &Polygon{Verts: verts, mbr: mbr}
}

// MustPolygon is NewPolygon that panics on error, for tests and literals.
func MustPolygon(verts ...Point) *Polygon {
	p, err := NewPolygon(verts)
	if err != nil {
		panic(err)
	}
	return p
}

// Recompute refreshes the cached MBR after the vertex slice has been
// modified in place.
func (p *Polygon) Recompute() {
	mbr := EmptyRect()
	for _, v := range p.Verts {
		mbr = mbr.ExtendPoint(v)
	}
	p.mbr = mbr
}

// NumVerts returns the number of vertices.
func (p *Polygon) NumVerts() int { return len(p.Verts) }

// Bounds returns the cached MBR of p.
func (p *Polygon) Bounds() Rect { return p.mbr }

// Edge returns the i-th edge, from vertex i to vertex (i+1) mod n.
func (p *Polygon) Edge(i int) Segment {
	j := i + 1
	if j == len(p.Verts) {
		j = 0
	}
	return Segment{p.Verts[i], p.Verts[j]}
}

// NumEdges returns the number of edges, equal to the number of vertices.
func (p *Polygon) NumEdges() int { return len(p.Verts) }

// Area returns the unsigned area enclosed by p (the shoelace formula).
func (p *Polygon) Area() float64 { return math.Abs(p.SignedArea()) }

// SignedArea returns the signed area of p: positive when the vertices are
// in counter-clockwise order.
func (p *Polygon) SignedArea() float64 {
	var sum float64
	n := len(p.Verts)
	for i := range n {
		a, b := p.Verts[i], p.Verts[(i+1)%n]
		sum += a.Cross(b)
	}
	return sum / 2
}

// ContainsPoint reports whether q lies inside or on the boundary of p,
// using the ray-crossing algorithm: a ray shot in +x from q crosses the
// boundary an odd number of times iff q is interior. This is the linear,
// cache-friendly Point-in-Polygon test of Algorithm 3.1 step 1; indexed
// polygons answer the same question through edgeindex.Index.ContainsPoint,
// which hands only the edge runs the ray can reach to RayCrossings.
func (p *Polygon) ContainsPoint(q Point) bool {
	if !p.mbr.ContainsPoint(q) {
		return false
	}
	onBoundary, odd := p.RayCrossings(q, 0, len(p.Verts))
	return onBoundary || odd
}

// RayCrossings examines edges lo..hi-1 of p against the +x ray from q: it
// reports whether q lies on one of them (the boundary counts as contained)
// and otherwise whether the ray crosses an odd number of them. Crossing
// parities of disjoint edge ranges combine by XOR, so an edge index may
// skip every run whose box misses the ray rectangle
// [q.X, +Inf)×[q.Y, q.Y]: an edge outside it neither holds q nor is
// crossed.
//
// The y-range decides first whether an edge can matter at all — for most
// edges that is two comparisons. Only an edge whose closed y-range holds
// q.Y is tested for holding q, and only one that straddles the ray line
// (half-open, so a vertex on the line counts once) for a crossing; an
// edge wholly left or right of q decides its crossing without the
// division.
func (p *Polygon) RayCrossings(q Point, lo, hi int) (onBoundary, odd bool) {
	if lo >= hi {
		return false, false
	}
	verts := p.Verts
	a := verts[lo]
	aAbove := a.Y > q.Y
	for i := lo + 1; i <= hi; i++ {
		b := verts[0]
		if i < len(verts) {
			b = verts[i]
		}
		bAbove := b.Y > q.Y
		// straddles is half-open, so a vertex on the ray line counts once;
		// an edge that only touches the line from below cannot be crossed
		// but can still hold q (at an endpoint, or along a horizontal edge).
		straddles := aAbove != bAbove
		if straddles || !aAbove && (a.Y == q.Y || b.Y == q.Y) {
			if Orient(a, b, q) == Collinear && onSegment(Segment{a, b}, q) {
				return true, false
			}
		}
		if straddles {
			switch {
			case a.X > q.X && b.X > q.X:
				odd = !odd
			case a.X <= q.X && b.X <= q.X:
				// the crossing is not right of q
			case a.X+(q.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y) > q.X:
				odd = !odd
			}
		}
		a, aAbove = b, bAbove
	}
	return false, odd
}

// IsSimple reports whether p is a simple polygon: no two non-adjacent edges
// intersect, and adjacent edges share only their common endpoint. The check
// is O(n²) and intended for validation and tests rather than query paths.
//
//reach:keep simplicity oracle for what other tests generate: data's TestGeneratedPolygonsAreSimple and TestWormShape, geom's TestConvexHullProperties, core's TestKernelsKnownDistances
func (p *Polygon) IsSimple() bool {
	n := len(p.Verts)
	if n < 3 {
		return false
	}
	for i := range n {
		ei := p.Edge(i)
		if ei.A.Eq(ei.B) {
			return false // degenerate zero-length edge
		}
		for j := i + 1; j < n; j++ {
			ej := p.Edge(j)
			adjacent := j == i+1 || (i == 0 && j == n-1)
			if adjacent {
				// Adjacent edges share exactly one endpoint; any other
				// contact (e.g. a spike folding back) makes p non-simple.
				shared := ei.B
				if i == 0 && j == n-1 {
					shared = ei.A
				}
				if ei.IntersectsProper(ej) {
					return false
				}
				if other := otherOverlapPoint(ei, ej, shared); other {
					return false
				}
				continue
			}
			if ei.Intersects(ej) {
				return false
			}
		}
	}
	return true
}

// otherOverlapPoint reports whether adjacent edges ei and ej touch at any
// point other than their shared endpoint.
func otherOverlapPoint(ei, ej Segment, shared Point) bool {
	// Collinear adjacent edges overlap iff the non-shared endpoint of one
	// lies on the other.
	for _, q := range []Point{ei.A, ei.B} {
		if !q.Eq(shared) && Orient(ej.A, ej.B, q) == Collinear && onSegment(ej, q) {
			return true
		}
	}
	for _, q := range []Point{ej.A, ej.B} {
		if !q.Eq(shared) && Orient(ei.A, ei.B, q) == Collinear && onSegment(ei, q) {
			return true
		}
	}
	return false
}

// ErrTooFewVertices is returned by validation helpers for degenerate input.
var ErrTooFewVertices = errors.New("geom: polygon needs at least 3 vertices")

// Validate returns an error describing why p is not a usable polygon, or
// nil when it is.
func (p *Polygon) Validate() error {
	if len(p.Verts) < 3 {
		return ErrTooFewVertices
	}
	for i, v := range p.Verts {
		if !v.IsFinite() {
			return fmt.Errorf("geom: vertex %d has non-finite coordinate (%v, %v)", i, v.X, v.Y)
		}
	}
	if p.Area() == 0 {
		return errors.New("geom: polygon has zero area")
	}
	return nil
}
