package raster

import (
	"math"
	"testing"

	"repro/internal/geom"
)

// FuzzCoverageSuperset: for an arbitrary finite segment, width and
// viewport, at any window size, the walker covers every cell the exact
// capsule reference covers (see assertSuperset for the one licence).
func FuzzCoverageSuperset(f *testing.F) {
	f.Add(uint8(8), uint8(8), 0.0, 0.0, 8.0, 8.0, 1.0, 1.0, 7.0, 7.0, math.Sqrt2)
	f.Add(uint8(64), uint8(1), -1.0, -1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(5), uint8(3), 0.0, 0.0, 5.0, 3.0, 5.0, 0.0, 5.0, 3.0, MaxLineWidth)
	f.Add(uint8(16), uint8(16), 100.0, 200.0, 100.0, 200.0, 100.0, 200.0, 100.0, 200.0, 2.0)
	f.Add(uint8(32), uint8(32), 0.0, 0.0, 1e-3, 1e9, 5e-4, -1e12, 5e-4, 1e12, 0.5)
	// An endpoint exactly on a cell corner, reached by interpolating from
	// 871 pixels away at a hairline width: the walker lands an ulp short
	// of it.
	f.Add(uint8(31), uint8(12), -1.0, -1.0, 1.0, 1.0, 29.6, -135.0, 0.0, -1.0, 1e-9)
	f.Fuzz(func(t *testing.T, wRaw, hRaw uint8, vx0, vy0, vx1, vy1, ax, ay, bx, by, width float64) {
		c := NewContext(1+int(wRaw)%MaxResolution, 1+int(hRaw)%MaxResolution)
		c.SetViewport(geom.R(math.Min(vx0, vx1), math.Min(vy0, vy1), math.Max(vx0, vx1), math.Max(vy0, vy1)))
		s := geom.Seg(geom.Pt(ax, ay), geom.Pt(bx, by))
		if !(width >= 0 && width <= MaxLineWidth) {
			t.Skip("a width the card rejects")
		}
		// Past a million pixels from the window the interpolation's
		// rounding is no longer small against a cell (and no candidate
		// edge of a pair test projects there).
		if win := geom.Seg(c.Project(s.A), c.Project(s.B)); !(maxAbsCoord(win) < 1e6) {
			t.Skip("projection out of range")
		}
		assertSuperset(t, c, s, width)
	})
}
