package raster

import (
	"math"

	"repro/internal/geom"
)

// DrawSegment rasterizes the data-space segment s into plane pl as an
// anti-aliased line of the default width with blending disabled: every
// pixel whose cell overlaps the width-w capsule around the segment is
// covered. This is the conservative coverage guarantee of paper §2.2.2:
// with anti-aliasing on, a pixel touched by the segment is always colored,
// so two intersecting segments always share a colored pixel.
func (c *Context) DrawSegment(pl *Plane, s geom.Segment) {
	c.walk(pl, c.Project(s.A), c.Project(s.B), lineWidth/2, false)
}

// DrawSegmentWidth is DrawSegment with an explicit width in pixels, for
// callers that vary width per primitive; widthPx ≤ 0 means the default
// line width, as in SegmentTouches.
func (c *Context) DrawSegmentWidth(pl *Plane, s geom.Segment, widthPx float64) {
	c.walk(pl, c.Project(s.A), c.Project(s.B), halfWidth(widthPx), false)
}

// DrawEdges rasterizes a batch of data-space segments into pl.
func (c *Context) DrawEdges(pl *Plane, segs []geom.Segment) {
	for _, s := range segs {
		c.DrawSegment(pl, s)
	}
}

// DrawPolygonEdges rasterizes the boundary chain of p into pl, the
// per-polygon render call of Algorithm 3.1 steps 2.3 and 2.5.
func (c *Context) DrawPolygonEdges(pl *Plane, p *geom.Polygon) {
	for i := range p.NumEdges() {
		c.DrawSegment(pl, p.Edge(i))
	}
}

// SegmentTouches reports whether any cell the data-space segment s covers
// (at the given width, ≤ 0 meaning the default line width) is already
// covered in pl. It is the overlap search run fragment by fragment: after
// the first polygon's edges are rendered into a plane, the second
// polygon's edges are tested against it without being stored, and the
// search stops at the first shared cell. The cell walk is DrawSegment's,
// so the answer is exactly "would the two renderings overlap".
func (c *Context) SegmentTouches(pl *Plane, s geom.Segment, widthPx float64) bool {
	return c.walk(pl, c.Project(s.A), c.Project(s.B), halfWidth(widthPx), true)
}

// halfWidth is the walk's half-width for a width in pixels: a width ≤ 0
// means the default line width, so walk never runs at half-width 0.
func halfWidth(widthPx float64) float64 {
	if widthPx > 0 {
		return widthPx / 2
	}
	return lineWidth / 2
}

// walk visits a conservative superset of the cells that the capsule of
// half-width hw around the window-space segment a-b reaches, by walking
// columns along the segment's major axis and taking the segment's
// per-column y-extent widened by the slope-corrected margin hw·√(1+m²)
// (the band's vertical half-extent). With the major-axis transpose the
// margin is at most √2·hw, so the over-coverage relative to the exact
// capsule stays well under one cell — the same order as real hardware's
// anti-aliased coverage — while the inner loop is a handful of flops per
// column. Cells are half-open, [x, x+1)×[y, y+1): a capsule that only
// touches a cell's max border does not cover it. hw is always positive
// (halfWidth), so the capsule of a segment on the window's max edge still
// reaches into the last row or column.
//
// With test false the cells are ORed into pl and the result is false; with
// test true nothing is stored and walk returns true at the first cell
// already covered in pl. This is the simulated card's one fill path; the
// exact-coverage reference drawCapsuleExact backs the tests.
func (c *Context) walk(pl *Plane, a, b geom.Point, hw float64, test bool) bool {
	if c.Hook != nil {
		c.Hook("raster.draw")
	}
	w, h := c.w, c.h

	// Trivial reject against the window.
	if math.Max(a.X, b.X)+hw < 0 || math.Max(a.Y, b.Y)+hw < 0 ||
		math.Min(a.X, b.X)-hw > float64(w) || math.Min(a.Y, b.Y)-hw > float64(h) {
		return false
	}

	dx, dy := b.X-a.X, b.Y-a.Y
	transposed := math.Abs(dy) > math.Abs(dx)
	if transposed {
		a.X, a.Y = a.Y, a.X
		b.X, b.Y = b.Y, b.X
		dx, dy = dy, dx
		w, h = h, w
	}
	if a.X > b.X {
		a, b = b, a
		dx, dy = -dx, -dy
	}
	var m float64 // |slope| ≤ 1 along the major axis
	if dx != 0 {
		m = dy / dx
	}
	// Vertical half-extent of the width-2·hw band around the line within
	// any column: the perpendicular half-width projected onto y. With the
	// major-axis transpose |m| ≤ 1, so the band over-covers the exact
	// capsule by at most √2·hw − hw ≈ 0.41·hw.
	margin := hw * math.Sqrt(1+m*m)

	// All clamped indices are non-negative, so int() truncation is floor.
	x0, x1 := 0, w-1
	if v := a.X - hw; v > 0 {
		if v >= float64(w) {
			return false
		}
		x0 = int(v)
	}
	if v := b.X + hw; v < float64(w-1) {
		if v < 0 {
			return false
		}
		x1 = int(v)
	}
	fh := float64(h)
	for cx := x0; cx <= x1; cx++ {
		// Segment y-extent over the column's x-interval clamped to the
		// segment's x-range; cap columns clamp to the nearest endpoint.
		lo, hi := float64(cx), float64(cx)+1
		if lo < a.X {
			lo = a.X
		}
		if hi > b.X {
			hi = b.X
		}
		if lo > hi {
			// Column beyond an endpoint: the cap. Clamp to that endpoint.
			if float64(cx) < a.X {
				lo, hi = a.X, a.X
			} else {
				lo, hi = b.X, b.X
			}
		}
		yl := a.Y + m*(lo-a.X)
		yh := a.Y + m*(hi-a.X)
		if yl > yh {
			yl, yh = yh, yl
		}
		yl -= margin
		yh += margin
		if yh < 0 || yl >= fh {
			continue // column's covered band lies outside the window
		}
		cy0, cy1 := 0, h-1
		if yl > 0 {
			cy0 = int(yl)
		}
		if yh < float64(h-1) {
			cy1 = int(yh)
		}
		if transposed {
			// Walking the window's y axis: the span cy0..cy1 runs along x
			// in row cx, one mask of cy1-cy0+1 bits.
			span := ^uint64(0) >> uint(63-(cy1-cy0)) << uint(cy0)
			if !test {
				pl[cx] |= span
			} else if pl[cx]&span != 0 {
				return true
			}
			continue
		}
		bit := uint64(1) << uint(cx)
		for cy := cy0; cy <= cy1; cy++ {
			if !test {
				pl[cy] |= bit
			} else if pl[cy]&bit != 0 {
				return true
			}
		}
	}
	return false
}

// DrawSegmentExact is DrawSegmentWidth using the exact-coverage reference
// rasterizer; tests use it to pin down the fast path's conservative
// contract.
//
//reach:keep reference rasterizer (drawCapsuleExact) behind raster_test's assertSuperset and FuzzCoverageSuperset
func (c *Context) DrawSegmentExact(pl *Plane, s geom.Segment, widthPx float64) {
	c.drawCapsuleExact(pl, c.Project(s.A), c.Project(s.B), widthPx/2)
}

// drawCapsuleExact covers in pl exactly the cells whose closed unit square
// intersects the capsule of half-width hw around the window-space segment
// a-b. It is the reference implementation that defines the coverage
// contract; the fast path walk must cover a superset of these cells.
func (c *Context) drawCapsuleExact(pl *Plane, a, b geom.Point, hw float64) {
	w, h := c.w, c.h
	seg := geom.Segment{A: a, B: b}

	minX := math.Min(a.X, b.X) - hw
	maxX := math.Max(a.X, b.X) + hw
	minY := math.Min(a.Y, b.Y) - hw
	maxY := math.Max(a.Y, b.Y) + hw
	if maxX < 0 || maxY < 0 || minX > float64(w) || minY > float64(h) {
		return
	}
	x0 := clampInt(int(math.Floor(minX))-1, 0, w-1)
	x1 := clampInt(int(math.Floor(maxX))+1, 0, w-1)
	y0 := clampInt(int(math.Floor(minY))-1, 0, h-1)
	y1 := clampInt(int(math.Floor(maxY))+1, 0, h-1)

	accept := hw + 0.5          // cell inradius
	reject := hw + math.Sqrt2/2 // cell circumradius
	acceptSq := accept * accept
	rejectSq := reject * reject
	hwSq := hw * hw

	for cy := y0; cy <= y1; cy++ {
		fy := float64(cy)
		for cx := x0; cx <= x1; cx++ {
			center := geom.Pt(float64(cx)+0.5, fy+0.5)
			d2 := seg.DistSqToPoint(center)
			switch {
			case d2 <= acceptSq:
				// The inscribed disk reaches the capsule: overlap certain.
			case d2 > rejectSq:
				continue // whole cell is outside the capsule
			default:
				// Ambiguous ring: exact box-to-segment distance.
				if boxSegDistSq(float64(cx), fy, seg) > hwSq {
					continue
				}
			}
			pl[cy] |= 1 << uint(cx)
		}
	}
}

// boxSegDistSq returns the squared distance between the closed unit square
// with lower-left corner (bx, by) and segment s; zero when they intersect.
func boxSegDistSq(bx, by float64, s geom.Segment) float64 {
	// Segment endpoint inside the box covers the fully-contained case.
	if bx <= s.A.X && s.A.X <= bx+1 && by <= s.A.Y && s.A.Y <= by+1 {
		return 0
	}
	corners := [4]geom.Point{
		{X: bx, Y: by}, {X: bx + 1, Y: by}, {X: bx + 1, Y: by + 1}, {X: bx, Y: by + 1},
	}
	best := math.Inf(1)
	for i := range 4 {
		edge := geom.Segment{A: corners[i], B: corners[(i+1)%4]}
		if d := s.DistSq(edge); d < best {
			best = d
			if best == 0 {
				break
			}
		}
	}
	return best
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// DrawSegmentBasic rasterizes s into pl with the *basic*
// (non-anti-aliased) OpenGL rule: a pixel is colored iff the segment exits
// its diamond region R_f = {|x-x_f| + |y-y_f| < 1/2} (the diamond-exit
// rule, paper §2.2.2). Segments can disappear entirely under this rule,
// which is exactly why the paper's algorithms require anti-aliased lines;
// the method exists to demonstrate and test that behaviour.
func (c *Context) DrawSegmentBasic(pl *Plane, s geom.Segment) {
	a, b := c.Project(s.A), c.Project(s.B)
	w, h := c.w, c.h
	x0 := clampInt(int(math.Floor(math.Min(a.X, b.X)))-1, 0, w-1)
	x1 := clampInt(int(math.Floor(math.Max(a.X, b.X)))+1, 0, w-1)
	y0 := clampInt(int(math.Floor(math.Min(a.Y, b.Y)))-1, 0, h-1)
	y1 := clampInt(int(math.Floor(math.Max(a.Y, b.Y)))+1, 0, h-1)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			center := geom.Pt(float64(cx)+0.5, float64(cy)+0.5)
			enters, exits := diamondCrossing(a, b, center)
			if enters && exits {
				pl[cy] |= 1 << uint(cx)
			}
		}
	}
}

// diamondCrossing reports whether the segment a-b intersects the open
// diamond of L1-radius 1/2 around ct (enters), and whether it also leaves
// it, i.e. the segment's endpoint b does not lie inside (exits).
func diamondCrossing(a, b, ct geom.Point) (enters, exits bool) {
	// Work in diamond-centered coordinates.
	ax, ay := a.X-ct.X, a.Y-ct.Y
	bx, by := b.X-ct.X, b.Y-ct.Y
	// Clip the parametric segment a + t(b-a), t in [0,1], against the four
	// half-planes ±x ± y < 1/2 (Liang–Barsky).
	t0, t1 := 0.0, 1.0
	dx, dy := bx-ax, by-ay
	for _, hp := range [4][3]float64{
		{+1, +1, 0.5}, {+1, -1, 0.5}, {-1, +1, 0.5}, {-1, -1, 0.5},
	} {
		p := hp[0]*dx + hp[1]*dy
		q := hp[2] - (hp[0]*ax + hp[1]*ay)
		if p == 0 {
			if q <= 0 {
				return false, false // parallel and outside
			}
			continue
		}
		t := q / p
		if p > 0 {
			if t < t1 {
				t1 = t
			}
		} else {
			if t > t0 {
				t0 = t
			}
		}
	}
	if t0 >= t1 {
		return false, false
	}
	enters = true
	// b inside the open diamond means the segment never exits.
	exits = math.Abs(bx)+math.Abs(by) >= 0.5
	return enters, exits
}
