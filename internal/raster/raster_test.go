package raster

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestBufferBasics: the framebuffer is two bit planes of one window.
func TestBufferBasics(t *testing.T) {
	c := NewContext(4, 3)
	c.A[1] |= 1 << 2
	c.B[1] |= 1 << 3
	if !c.A.At(2, 1) || c.A.At(0, 0) || c.A.At(3, 1) {
		t.Error("At wrong")
	}
	if c.A.Count() != 1 || c.A.Overlaps(&c.B) {
		t.Error("disjoint planes: Count/Overlaps wrong")
	}
	c.B[1] |= 1 << 2
	if !c.A.Overlaps(&c.B) || !c.B.Overlaps(&c.A) {
		t.Error("shared pixel not found")
	}
	c.Clear()
	if c.A.Count() != 0 || c.B.Count() != 0 {
		t.Error("Clear failed")
	}
	for _, dims := range [][2]int{{0, 8}, {8, 0}, {MaxResolution + 1, 8}, {8, MaxResolution + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewContext(%d, %d) did not panic", dims[0], dims[1])
				}
			}()
			NewContext(dims[0], dims[1])
		}()
	}
}

func TestProjectViewport(t *testing.T) {
	c := NewContext(10, 10)
	c.SetViewport(geom.R(100, 200, 120, 240))
	got := c.Project(geom.Pt(100, 200))
	if got != geom.Pt(0, 0) {
		t.Errorf("Project(min) = %v", got)
	}
	got = c.Project(geom.Pt(120, 240))
	if got != geom.Pt(10, 10) {
		t.Errorf("Project(max) = %v", got)
	}
	got = c.Project(geom.Pt(110, 220))
	if got != geom.Pt(5, 5) {
		t.Errorf("Project(center) = %v", got)
	}
}

func TestViewportUniform(t *testing.T) {
	c := NewContext(10, 10)
	s := c.SetViewportUniform(geom.R(0, 0, 20, 10))
	if s != 0.5 {
		t.Errorf("uniform scale = %v, want 0.5", s)
	}
	if c.sx != c.sy {
		t.Errorf("non-uniform scale %v, %v", c.sx, c.sy)
	}
	// Degenerate viewport must not produce Inf/NaN.
	c.SetViewportUniform(geom.R(5, 5, 5, 5))
	p := c.Project(geom.Pt(5, 5))
	if math.IsNaN(p.X) || math.IsInf(p.X, 0) {
		t.Errorf("degenerate projection = %v", p)
	}
}

// TestSegmentCoverageConservative: every closed cell the segment passes
// through must be colored, for any line width.
func TestSegmentCoverageConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c := NewContext(16, 16)
	for _, width := range []float64{0, math.Sqrt2, 4} {
		for range 300 {
			c.Clear()
			s := geom.Seg(
				geom.Pt(rng.Float64()*16, rng.Float64()*16),
				geom.Pt(rng.Float64()*16, rng.Float64()*16),
			)
			c.DrawSegmentWidth(&c.A, s, width) // identity viewport
			for cy := range 16 {
				for cx := range 16 {
					touches := boxSegDistSq(float64(cx), float64(cy), s) == 0
					colored := c.A.At(cx, cy)
					if touches && !colored {
						t.Fatalf("width %v: cell (%d,%d) touched by %v but not colored", width, cx, cy, s)
					}
				}
			}
		}
	}
}

// TestSegmentCoverageTight: the fast rasterizer over-covers the exact
// capsule by at most its slope-corrected margin, so no colored cell's
// center may be farther than width + circumradius from the segment.
func TestSegmentCoverageTight(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := NewContext(16, 16)
	for range 300 {
		c.Clear()
		width := rng.Float64() * 6
		s := geom.Seg(
			geom.Pt(rng.Float64()*16, rng.Float64()*16),
			geom.Pt(rng.Float64()*16, rng.Float64()*16),
		)
		c.DrawSegmentWidth(&c.A, s, width)
		limit := width + math.Sqrt2 // 2·hw margin + cell diagonal
		for cy := range 16 {
			for cx := range 16 {
				if !c.A.At(cx, cy) {
					continue
				}
				center := geom.Pt(float64(cx)+0.5, float64(cy)+0.5)
				if d := math.Sqrt(s.DistSqToPoint(center)); d > limit+1e-9 {
					t.Fatalf("cell (%d,%d) colored at distance %v > %v", cx, cy, d, limit)
				}
			}
		}
	}
}

// allResolutions is every window size the conservativeness tests run at:
// the paper's 1–32 sweep plus the plane's word width.
var allResolutions = []int{1, 2, 4, 8, 16, 32, MaxResolution}

// adversarialSegments are the window-space inputs where a conservative
// cell walk usually breaks, for a res×res window: edges exactly on cell
// boundaries, on the window's max edge, entirely outside the window,
// zero-length, and slivers thinner than a pixel.
func adversarialSegments(res int) []geom.Segment {
	r := float64(res)
	mid := math.Floor(r / 2)
	return []geom.Segment{
		// On cell boundaries: axis-parallel along a grid line, and a
		// diagonal through cell corners.
		geom.Seg(geom.Pt(0, mid), geom.Pt(r, mid)),
		geom.Seg(geom.Pt(mid, 0), geom.Pt(mid, r)),
		geom.Seg(geom.Pt(0, 0), geom.Pt(r, r)),
		geom.Seg(geom.Pt(0, r), geom.Pt(r, 0)),
		// On the window's max edge and its min edge.
		geom.Seg(geom.Pt(0, r), geom.Pt(r, r)),
		geom.Seg(geom.Pt(r, 0), geom.Pt(r, r)),
		geom.Seg(geom.Pt(0, 0), geom.Pt(r, 0)),
		geom.Seg(geom.Pt(0, 0), geom.Pt(0, r)),
		geom.Seg(geom.Pt(r, r), geom.Pt(r, r)),
		// Entirely outside: beyond each side, and just past a corner.
		geom.Seg(geom.Pt(-3, -2), geom.Pt(-1, r+2)),
		geom.Seg(geom.Pt(r+1, -2), geom.Pt(r+3, r+2)),
		geom.Seg(geom.Pt(-2, r+1), geom.Pt(r+2, r+4)),
		geom.Seg(geom.Pt(r+0.5, r+0.5), geom.Pt(r+6, r+0.75)),
		// Reaching in from outside.
		geom.Seg(geom.Pt(-5, mid+0.3), geom.Pt(0.2, mid+0.3)),
		// Zero-length: on a cell corner, at a cell center, on an edge.
		geom.Seg(geom.Pt(mid, mid), geom.Pt(mid, mid)),
		geom.Seg(geom.Pt(mid+0.5, mid+0.5), geom.Pt(mid+0.5, mid+0.5)),
		geom.Seg(geom.Pt(0, mid+0.5), geom.Pt(0, mid+0.5)),
		// Slivers: far shorter than a pixel, straddling a cell corner, and
		// the two almost-coincident long sides of a thin polygon.
		geom.Seg(geom.Pt(mid-1e-9, mid-1e-9), geom.Pt(mid+1e-9, mid+1e-9)),
		geom.Seg(geom.Pt(mid+0.25, mid+0.25), geom.Pt(mid+0.25+1e-7, mid+0.25)),
		geom.Seg(geom.Pt(0, mid+0.5), geom.Pt(r, mid+0.5+1e-9)),
		geom.Seg(geom.Pt(r, mid+0.5+2e-9), geom.Pt(0, mid+0.5+1e-9)),
		geom.Seg(geom.Pt(mid+1e-12, 0), geom.Pt(mid, r)),
	}
}

// testWidths spans the line widths the card accepts, 0 (the default
// width) …MaxLineWidth.
var testWidths = []float64{0, 1e-9, 0.5, 1, math.Sqrt2, 2, 3.7, MaxLineWidth}

// entersCell reports whether the capsule of half-width hw around the
// window-space segment s reaches more than slack inside cell (cx, cy): the
// reference's closed-cell test on the cell shrunk by slack from every
// side.
func entersCell(cx, cy int, s geom.Segment, hw, slack float64) bool {
	k := 1 / (1 - 2*slack)
	rel := func(p geom.Point) geom.Point {
		return geom.Pt((p.X-float64(cx)-slack)*k, (p.Y-float64(cy)-slack)*k)
	}
	return boxSegDistSq(0, 0, geom.Seg(rel(s.A), rel(s.B))) <= hw*k*hw*k
}

// assertSuperset fails when the walker's coverage of s misses a cell the
// exact capsule reference covers, on c's window and viewport. The one
// licence is a cell the capsule enters by no more than a hair: the
// reference's cells are closed and its distances exact, the walker's
// cells are half-open and its per-column extent is interpolated, so
// contact on a cell's border or within rounding of it (a few ulps of the
// largest projected coordinate; the hair is a million times that) can go
// either way. The filter's widths — √2, or padded above the query
// distance — leave no verdict hanging on such a cell. A width ≤ 0 draws
// the default width, so the reference is held to that width too.
func assertSuperset(t *testing.T, c *Context, s geom.Segment, width float64) {
	t.Helper()
	c.Clear()
	c.DrawSegmentWidth(&c.A, s, width)
	if width <= 0 {
		width = lineWidth
	}
	c.DrawSegmentExact(&c.B, s, width)
	win := geom.Seg(c.Project(s.A), c.Project(s.B))
	slack := 1e-9 * (1 + maxAbsCoord(win))
	for y := range c.h {
		for missed := c.B[y] &^ c.A[y]; missed != 0; missed &= missed - 1 {
			if x := bits.TrailingZeros64(missed); entersCell(x, y, win, width/2, slack) {
				t.Fatalf("%dx%d width %v: walker missed cell (%d,%d) of the exact coverage of %v",
					c.w, c.h, width, x, y, s)
			}
		}
	}
}

func maxAbsCoord(s geom.Segment) float64 {
	return max(math.Abs(s.A.X), math.Abs(s.A.Y), math.Abs(s.B.X), math.Abs(s.B.Y))
}

// TestFastCoverageSupersetOfExact pins the contract between the fast
// column-walking rasterizer and the exact capsule reference: the fast path
// must cover every cell the exact path covers — at every resolution, every
// width the card accepts, on random segments reaching past the window and
// on the adversarial family.
func TestFastCoverageSupersetOfExact(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, res := range allResolutions {
		c := NewContext(res, res)
		r := float64(res)
		for range 200 {
			width := rng.Float64() * MaxLineWidth
			s := geom.Seg(
				geom.Pt(rng.Float64()*(r+4)-2, rng.Float64()*(r+4)-2),
				geom.Pt(rng.Float64()*(r+4)-2, rng.Float64()*(r+4)-2),
			)
			assertSuperset(t, c, s, width)
		}
		for _, s := range adversarialSegments(res) {
			for _, width := range testWidths {
				assertSuperset(t, c, s, width)
			}
		}
	}
}

// TestIntersectionAlwaysDetected is the paper's correctness guarantee:
// render two intersecting segments into the two planes and some pixel must
// be covered in both — at any resolution, any viewport. The adversarial
// family is crossed with itself: any two of its members that share a
// point must share a pixel, at every width the card accepts.
func TestIntersectionAlwaysDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, res := range allResolutions {
		c := NewContext(res, res)
		for range 400 {
			s1 := geom.Seg(
				geom.Pt(rng.Float64()*100, rng.Float64()*100),
				geom.Pt(rng.Float64()*100, rng.Float64()*100),
			)
			// Force an intersection: s2 crosses s1's midpoint.
			mid := geom.Pt((s1.A.X+s1.B.X)/2, (s1.A.Y+s1.B.Y)/2)
			dx, dy := rng.Float64()*50-25, rng.Float64()*50-25
			s2 := geom.Seg(
				geom.Pt(mid.X-dx, mid.Y-dy),
				geom.Pt(mid.X+dx, mid.Y+dy),
			)
			region := s1.Bounds().Union(s2.Bounds())
			c.SetViewport(region)
			c.Clear()
			c.DrawSegment(&c.A, s1)
			c.DrawSegment(&c.B, s2)
			if !c.A.Overlaps(&c.B) {
				t.Fatalf("res %d: intersection missed for %v, %v", res, s1, s2)
			}
		}

		window := geom.R(0, 0, float64(res), float64(res))
		c.SetViewport(window)
		segs := adversarialSegments(res)
		for _, width := range testWidths {
			for i, s1 := range segs {
				for _, s2 := range segs[i:] {
					// A shared point lies in both bounding boxes; only one
					// inside the window has a pixel to be found in
					// (Algorithm 3.1 projects the common MBR region, so
					// that is where it is).
					if !s1.Intersects(s2) || !window.ContainsRect(s1.Bounds().Intersection(s2.Bounds())) {
						continue
					}
					c.Clear()
					c.DrawSegmentWidth(&c.A, s1, width)
					c.DrawSegmentWidth(&c.B, s2, width)
					if !c.A.Overlaps(&c.B) || !c.SegmentTouches(&c.A, s2, width) {
						t.Fatalf("res %d width %v: intersection missed for %v, %v", res, width, s1, s2)
					}
				}
			}
		}
	}
}

// TestWithinDistanceAlwaysDetected: two segments within data distance D,
// rendered with line width D·scale under a uniform viewport, must overlap
// — at every resolution, for random pairs and for the adversarial family
// (points, slivers, edges on the viewport's border) at distance exactly D.
func TestWithinDistanceAlwaysDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, res := range allResolutions {
		c := NewContext(res, res)
		check := func(s1, s2 geom.Segment, d float64) {
			t.Helper()
			region := s1.Bounds().Union(s2.Bounds()).Expand(d)
			scale := c.SetViewportUniform(region)
			// Padded as core.RefineWithin pads it, so a pair at exactly
			// distance d stays inside the conservative coverage.
			widthPx := d * scale
			widthPx += 1e-9 * (1 + widthPx)
			if widthPx > MaxLineWidth {
				return // hardware limit: the algorithm falls back to software
			}
			c.Clear()
			c.DrawSegmentWidth(&c.A, s1, widthPx)
			c.DrawSegmentWidth(&c.B, s2, widthPx)
			if !c.A.Overlaps(&c.B) {
				t.Fatalf("res %d: within-distance pair missed: %v, %v, dist %v, D %v, width %v px",
					res, s1, s2, math.Sqrt(s1.DistSq(s2)), d, widthPx)
			}
		}
		for range 400 {
			s1 := geom.Seg(
				geom.Pt(rng.Float64()*100, rng.Float64()*100),
				geom.Pt(rng.Float64()*100, rng.Float64()*100),
			)
			s2 := geom.Seg(
				geom.Pt(rng.Float64()*100, rng.Float64()*100),
				geom.Pt(rng.Float64()*100, rng.Float64()*100),
			)
			trueDist := math.Sqrt(s1.DistSq(s2))
			if trueDist == 0 {
				continue
			}
			check(s1, s2, trueDist*(1+rng.Float64())) // any D >= the true distance
		}
		segs := adversarialSegments(res)
		for i, s1 := range segs {
			for _, s2 := range segs[i+1:] {
				if d := math.Sqrt(s1.DistSq(s2)); d > 0 {
					check(s1, s2, d)
				}
			}
		}
	}
}

// TestDrawPoint: a zero-length segment is the round widened point of the
// paper's distance test (Figure 6), a disk of the line width's diameter.
func TestDrawPoint(t *testing.T) {
	c := NewContext(8, 8)
	point := func(x, y float64) geom.Segment { return geom.Seg(geom.Pt(x, y), geom.Pt(x, y)) }
	c.DrawSegmentWidth(&c.A, point(4.2, 4.7), 1)
	if !c.A.At(4, 4) {
		t.Error("point's own cell not colored")
	}
	// A 1px point must not reach cells more than a cell away.
	if c.A.At(0, 0) || c.A.At(7, 7) {
		t.Error("1px point colored distant cells")
	}
	c.Clear()
	c.DrawSegmentWidth(&c.A, point(4, 4), 6)
	if count := c.A.Count(); count < 9 {
		t.Errorf("6px point colored only %d cells", count)
	}
}

// TestDiamondExitDisappearingSegment reproduces paper Figure 3(d): short
// segments that never exit a pixel's diamond are not rasterized under the
// basic rule but are under the anti-aliased rule.
func TestDiamondExitDisappearingSegment(t *testing.T) {
	c := NewContext(3, 3)
	// Segment fully inside the center pixel's diamond.
	s := geom.Seg(geom.Pt(1.4, 1.5), geom.Pt(1.6, 1.5))
	c.DrawSegmentBasic(&c.A, s)
	if n := c.A.Count(); n != 0 {
		t.Errorf("basic rule colored %d pixels for a non-exiting segment", n)
	}
	c.Clear()
	c.DrawSegment(&c.A, s) // anti-aliased: must color the cell
	if !c.A.At(1, 1) {
		t.Error("anti-aliased rule missed the segment")
	}
}

func TestDiamondExitLongSegment(t *testing.T) {
	c := NewContext(5, 1)
	// Horizontal segment through all diamonds, ending inside the last one.
	s := geom.Seg(geom.Pt(0, 0.5), geom.Pt(4.5, 0.5))
	c.DrawSegmentBasic(&c.A, s)
	for cx := range 4 {
		if !c.A.At(cx, 0) {
			t.Errorf("pixel %d not colored", cx)
		}
	}
	if c.A.At(4, 0) {
		t.Error("diamond-exit rule: final pixel should not be colored")
	}
}
