package raster

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestSegmentTouchesMatchesDraw: the fragment test must answer exactly
// what "draw the segment into the other plane and AND the two planes"
// answers, since both walk the same cells.
func TestSegmentTouchesMatchesDraw(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	c := NewContext(16, 16)
	for trial := range 600 {
		width := rng.Float64() * 6
		c.Clear()
		// Random pre-rendered content.
		s1 := geom.Seg(
			geom.Pt(rng.Float64()*16, rng.Float64()*16),
			geom.Pt(rng.Float64()*16, rng.Float64()*16),
		)
		c.DrawSegmentWidth(&c.A, s1, width)

		s2 := geom.Seg(
			geom.Pt(rng.Float64()*16, rng.Float64()*16),
			geom.Pt(rng.Float64()*16, rng.Float64()*16),
		)
		got := c.SegmentTouches(&c.A, s2, width)

		// Oracle: render s2 into the other plane and compare the planes.
		c.DrawSegmentWidth(&c.B, s2, width)
		if want := c.A.Overlaps(&c.B); got != want {
			t.Fatalf("trial %d: SegmentTouches = %v, plane overlap = %v (s1=%v s2=%v w=%v)",
				trial, got, want, s1, s2, width)
		}
	}
}

func TestSegmentTouchesUsesContextWidth(t *testing.T) {
	c := NewContext(8, 8)
	c.DrawSegmentWidth(&c.A, geom.Seg(geom.Pt(0, 4.5), geom.Pt(8, 4.5)), 1e-9) // row 4 alone
	// widthPx 0 must fall back to the default √2 line: a segment half a
	// cell above row 4 reaches into it, the hairline segment does not.
	above := geom.Seg(geom.Pt(0, 5.5), geom.Pt(8, 5.5))
	if !c.SegmentTouches(&c.A, above, 0) {
		t.Error("default width not honored")
	}
	if c.SegmentTouches(&c.A, above, 1e-9) {
		t.Error("an explicit hairline width was widened")
	}
	// Drawing reads width 0 the same way.
	c.DrawSegmentWidth(&c.B, above, 0)
	c.A = Plane{}
	c.DrawSegment(&c.A, above)
	if c.A != c.B {
		t.Error("DrawSegmentWidth at width 0 is not the default-width DrawSegment")
	}
}

func TestSegmentTouchesOffscreen(t *testing.T) {
	c := NewContext(8, 8)
	c.DrawSegment(&c.A, geom.Seg(geom.Pt(0, 0), geom.Pt(8, 8)))
	if c.SegmentTouches(&c.A, geom.Seg(geom.Pt(100, 100), geom.Pt(200, 200)), 1) {
		t.Error("offscreen segment reported touching")
	}
}

// TestDrawEdgesAndPolygonEdges also pins the fault hook's contract: it
// fires once per rasterized primitive, whether the primitive is stored
// into a plane or tested against one.
func TestDrawEdgesAndPolygonEdges(t *testing.T) {
	c := NewContext(8, 8)
	calls := 0
	c.Hook = func(site string) {
		if site != "raster.draw" {
			t.Errorf("hook site %q", site)
		}
		calls++
	}
	square := geom.MustPolygon(geom.Pt(1, 1), geom.Pt(7, 1), geom.Pt(7, 7), geom.Pt(1, 7))
	c.DrawPolygonEdges(&c.A, square)
	if calls != 4 {
		t.Errorf("hook fired %d times for 4 edges", calls)
	}
	if c.A.Count() == 0 {
		t.Fatal("no coverage")
	}
	// Interior cell untouched by edges.
	if c.A.At(4, 4) {
		t.Error("edge rendering filled the interior")
	}

	c.Clear()
	calls = 0
	segs := []geom.Segment{
		geom.Seg(geom.Pt(0, 0), geom.Pt(8, 8)),
		geom.Seg(geom.Pt(0, 8), geom.Pt(8, 0)),
	}
	c.DrawEdges(&c.A, segs)
	// Three tested after two drawn, one of them off the window and one
	// that stops at its first shared cell: n + m calls all the same.
	c.SegmentTouches(&c.A, geom.Seg(geom.Pt(0, 4), geom.Pt(8, 4)), 0)
	c.SegmentTouches(&c.A, geom.Seg(geom.Pt(100, 100), geom.Pt(200, 200)), 1)
	c.SegmentTouches(&c.A, geom.Seg(geom.Pt(7, 0), geom.Pt(7.5, 0.5)), 0)
	if calls != 2+3 {
		t.Errorf("hook fired %d times for 2 drawn + 3 tested segments", calls)
	}
}
