package raster

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func benchSegs(n int, span float64) []geom.Segment {
	rng := rand.New(rand.NewSource(1))
	segs := make([]geom.Segment, n)
	for i := range segs {
		a := geom.Pt(rng.Float64()*span, rng.Float64()*span)
		segs[i] = geom.Seg(a, geom.Pt(a.X+rng.Float64()*span/20, a.Y+rng.Float64()*span/20))
	}
	return segs
}

func BenchmarkDrawSegment8(b *testing.B) {
	c := NewContext(8, 8)
	c.SetViewport(geom.R(0, 0, 100, 100))
	segs := benchSegs(512, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DrawSegment(&c.A, segs[i&511])
	}
}

func BenchmarkDrawSegment32(b *testing.B) {
	c := NewContext(32, 32)
	c.SetViewport(geom.R(0, 0, 100, 100))
	segs := benchSegs(512, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DrawSegment(&c.A, segs[i&511])
	}
}

func BenchmarkHWTestCycle8(b *testing.B) {
	// Full per-pair hardware test cycle at 8×8: viewport, clear, render
	// 200 edges into a plane, test 200 against it.
	c := NewContext(8, 8)
	segs := benchSegs(400, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SetViewport(geom.R(0, 0, 100, 100))
		c.Clear()
		c.DrawEdges(&c.A, segs[:200])
		for _, s := range segs[200:] {
			c.SegmentTouches(&c.A, s, 0)
		}
	}
}
