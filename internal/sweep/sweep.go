package sweep

import (
	"math"

	"repro/internal/geom"
)

// CrossIntersectsBrute reports whether any red segment intersects any blue
// segment by testing every pair. O(n·m): the correctness oracle for the
// plane sweep, and the faster of the two on small inputs (see
// core.DefaultCrossCutoff).
func CrossIntersectsBrute(red, blue []geom.Segment) bool {
	for _, r := range red {
		rb := r.Bounds()
		for _, b := range blue {
			if rb.Intersects(b.Bounds()) && r.Intersects(b) {
				return true
			}
		}
	}
	return false
}

// eventKind distinguishes segment insertion from removal in the sweep.
type eventKind uint8

const (
	evInsert eventKind = iota // left endpoint reached
	evRemove                  // right endpoint reached
)

// sweepState carries the shared state of one plane-sweep run.
type sweepState struct {
	segs []geom.Segment // normalized left-to-right
	blue []bool         // class of each segment
	x    float64        // current sweep position
}

// yAt returns the y coordinate of segment i at sweep position x. Vertical
// segments report their minimum y.
func (st *sweepState) yAt(i int) float64 {
	s := st.segs[i]
	if s.A.X == s.B.X {
		return s.A.Y
	}
	t := (st.x - s.A.X) / (s.B.X - s.A.X)
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return s.A.Y + t*(s.B.Y-s.A.Y)
}

// slope returns dy/dx of segment i, with +Inf for vertical segments so that
// at a shared point verticals order above everything else.
func (st *sweepState) slope(i int) float64 {
	s := st.segs[i]
	if s.A.X == s.B.X {
		return math.Inf(1)
	}
	return (s.B.Y - s.A.Y) / (s.B.X - s.A.X)
}

// compare orders two status items at the current sweep position: by y, then
// by slope (the order just right of a shared point), then by index.
func (st *sweepState) compare(a, b int) int {
	if a == b {
		return 0
	}
	ya, yb := st.yAt(a), st.yAt(b)
	switch {
	case ya < yb:
		return -1
	case ya > yb:
		return 1
	}
	sa, sb := st.slope(a), st.slope(b)
	switch {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	}
	switch {
	case a < b:
		return -1
	default:
		return 1
	}
}

// CrossIntersects reports whether any red segment intersects any blue
// segment using the plane-sweep algorithm with a red-black status tree, as
// in the paper's software segment intersection test. It assumes the red set
// and the blue set are each internally non-crossing (true for the edge
// chains of simple polygons), which is what makes neighbor checks
// sufficient; intersections *between* the classes are detected exactly.
//
// This convenience wrapper allocates fresh working storage; batch callers
// should hold a Sweeper and call its method of the same name.
func CrossIntersects(red, blue []geom.Segment) bool {
	var sw Sweeper
	return sw.CrossIntersects(red, blue)
}

// normalize orients s left to right, and bottom to top when vertical, so
// that A is the insert endpoint of the sweep.
func normalize(s geom.Segment) geom.Segment {
	if s.A.X > s.B.X || (s.A.X == s.B.X && s.A.Y > s.B.Y) {
		s.A, s.B = s.B, s.A
	}
	return s
}
