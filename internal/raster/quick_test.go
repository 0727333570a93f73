package raster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// TestQuickIntersectionNeverMissed is the conservativeness guarantee as a
// quick property: for any seed, resolution in 1..64, and forced-to-cross
// segment pair, the two-layer rendering shares a pixel.
func TestQuickIntersectionNeverMissed(t *testing.T) {
	prop := func(seed int64, resRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		res := 1 + int(resRaw)%MaxResolution
		c := NewContext(res, res)
		s1 := geom.Seg(
			geom.Pt(rng.Float64()*100, rng.Float64()*100),
			geom.Pt(rng.Float64()*100, rng.Float64()*100),
		)
		mid := geom.Pt((s1.A.X+s1.B.X)/2, (s1.A.Y+s1.B.Y)/2)
		dx, dy := rng.Float64()*40-20, rng.Float64()*40-20
		s2 := geom.Seg(geom.Pt(mid.X-dx, mid.Y-dy), geom.Pt(mid.X+dx, mid.Y+dy))
		c.SetViewport(s1.Bounds().Union(s2.Bounds()))
		c.Clear()
		c.DrawSegment(&c.A, s1)
		return c.SegmentTouches(&c.A, s2, 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
