package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/geom"
	"repro/internal/raster"
	"repro/internal/sweep"
)

// star builds a random star-shaped polygon (always simple).
func star(rng *rand.Rand, cx, cy, rMax float64, n int) *geom.Polygon {
	step := 2 * math.Pi / float64(n)
	pts := make([]geom.Point, n)
	for i := range pts {
		a := float64(i)*step + rng.Float64()*step*0.9
		r := rMax * (0.2 + 0.8*rng.Float64())
		pts[i] = geom.Pt(cx+r*math.Cos(a), cy+r*math.Sin(a))
	}
	return geom.MustPolygon(pts...)
}

func square(x, y, side float64) *geom.Polygon {
	return geom.MustPolygon(
		geom.Pt(x, y), geom.Pt(x+side, y), geom.Pt(x+side, y+side), geom.Pt(x, y+side),
	)
}

func TestIntersectsBasic(t *testing.T) {
	for _, res := range []int{1, 4, 8, 16, 32} {
		tester := NewTester(Config{Resolution: res})
		a := square(0, 0, 4)
		cases := []struct {
			name string
			q    *geom.Polygon
			want bool
		}{
			{"overlap", square(2, 2, 4), true},
			{"contained", square(1, 1, 1), true},
			{"containing", square(-5, -5, 20), true},
			{"disjoint far", square(10, 10, 1), false},
			{"disjoint near", square(4.5, 0, 1), false},
			{"edge touch", square(4, 0, 2), true},
			{"corner touch", square(4, 4, 2), true},
		}
		for _, tc := range cases {
			if got := tester.Intersects(a, tc.q); got != tc.want {
				t.Errorf("res %d, %s: Intersects = %v, want %v", res, tc.name, got, tc.want)
			}
		}
	}
}

// TestIntersectsMatchesSoftware is the headline exactness guarantee: the
// hardware-assisted test equals the software test on every input, for
// every resolution and threshold.
func TestIntersectsMatchesSoftware(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	sw := NewTester(Config{DisableHardware: true})
	testers := []*Tester{
		NewTester(Config{Resolution: 1}),
		NewTester(Config{Resolution: 8}),
		NewTester(Config{Resolution: 8, SWThreshold: 20}),
		NewTester(Config{Resolution: 32}),
	}
	for trial := range 600 {
		p := star(rng, rng.Float64()*10, rng.Float64()*10, 0.5+rng.Float64()*4, 3+rng.Intn(30))
		q := star(rng, rng.Float64()*10, rng.Float64()*10, 0.5+rng.Float64()*4, 3+rng.Intn(30))
		want := sw.Intersects(p, q)
		for _, hw := range testers {
			if got := hw.Intersects(p, q); got != want {
				t.Fatalf("trial %d res %d: hw = %v, sw = %v", trial, hw.Config().Resolution, got, want)
			}
		}
	}
}

func TestWithinDistanceBasic(t *testing.T) {
	tester := NewTester(Config{Resolution: 8})
	a := square(0, 0, 1)
	b := square(3, 0, 1)
	if tester.WithinDistance(a, b, 1.9) {
		t.Error("d=1.9 reported within")
	}
	if !tester.WithinDistance(a, b, 2.0) {
		t.Error("d=2.0 not within")
	}
	if !tester.WithinDistance(a, b, 3.5) {
		t.Error("d=3.5 not within")
	}
	// Containment: region distance zero despite distant boundaries.
	outer := square(-10, -10, 30)
	if !tester.WithinDistance(a, outer, 0.1) {
		t.Error("contained pair not within small distance")
	}
	// Intersecting pair.
	if !tester.WithinDistance(a, square(0.5, 0.5, 2), 0) {
		t.Error("intersecting pair not within distance 0")
	}
}

func TestWithinDistanceMatchesSoftware(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	sw := NewTester(Config{DisableHardware: true})
	testers := []*Tester{
		NewTester(Config{Resolution: 4}),
		NewTester(Config{Resolution: 8}),
		NewTester(Config{Resolution: 16, SWThreshold: 15}),
	}
	for trial := range 600 {
		p := star(rng, rng.Float64()*20, rng.Float64()*20, 0.5+rng.Float64()*3, 3+rng.Intn(25))
		q := star(rng, rng.Float64()*20, rng.Float64()*20, 0.5+rng.Float64()*3, 3+rng.Intn(25))
		d := rng.Float64() * 8
		want := sw.WithinDistance(p, q, d)
		if wantOracle := dist.MinDistBrute(p, q) <= d; want != wantOracle {
			t.Fatalf("trial %d: software tester %v disagrees with brute oracle %v", trial, want, wantOracle)
		}
		for _, hw := range testers {
			if got := hw.WithinDistance(p, q, d); got != want {
				t.Fatalf("trial %d res %d d=%v: hw = %v, sw = %v",
					trial, hw.Config().Resolution, d, got, want)
			}
		}
	}
}

func TestWithinDistanceLargeDFallback(t *testing.T) {
	// At high resolution, a distance large relative to the smaller object
	// needs a line width beyond the 10 px hardware cap: the tester must
	// fall back to software and still be correct. (At 8×8 the width
	// d·res/(side+2d) is bounded by res/2 = 4 px and the cap can never
	// trigger — see EXPERIMENTS.md.)
	tester := NewTester(Config{Resolution: 32})
	a := square(0, 0, 1)
	b := square(5, 0, 1)
	if !tester.WithinDistance(a, b, 4.5) {
		t.Error("fallback path returned wrong answer")
	}
	if tester.Stats.HWFallbacks == 0 {
		t.Error("expected a hardware fallback for huge width")
	}
	if tester.WithinDistance(a, b, 3.9) {
		t.Error("fallback path accepted an out-of-range pair")
	}
}

func TestStatsAccounting(t *testing.T) {
	tester := NewTester(Config{Resolution: 8})
	a := square(0, 0, 4)
	tester.Intersects(a, square(10, 10, 1)) // MBR reject
	tester.Intersects(a, square(1, 1, 1))   // PiP hit
	tester.Intersects(a, square(4.5, 0, 1)) // hw reject (MBRs touch? no: gap 0.5 -> MBR reject)
	s := tester.Stats
	if s.Tests != 3 || s.MBRRejects != 2 || s.PIPHits != 1 {
		t.Errorf("stats = %+v", s)
	}
	tester.ResetStats()
	if tester.Stats.Tests != 0 {
		t.Error("ResetStats failed")
	}

	// Threshold routing: a tiny pair whose first vertices are mutually
	// outside (so PiP cannot decide) goes straight to software.
	tr := NewTester(Config{Resolution: 8, SWThreshold: 100})
	tr.Intersects(square(0, 0, 2), square(1.5, -0.5, 2))
	if tr.Stats.SWDirect != 1 {
		t.Errorf("SWDirect = %d, want 1 (stats %+v)", tr.Stats.SWDirect, tr.Stats)
	}

	// Hardware reject for near-miss complex pair.
	hw := NewTester(Config{Resolution: 32})
	p := star(rand.New(rand.NewSource(53)), 0, 0, 1, 40)
	q := star(rand.New(rand.NewSource(53)), 1.5, 0, 1, 40) // the same star, 1.5 to the right
	hw.Intersects(p, q)
	if hw.Stats.HWRejects+hw.Stats.HWPassed+hw.Stats.PIPHits+hw.Stats.MBRRejects != 1 {
		t.Errorf("stats did not account for the test: %+v", hw.Stats)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Tests: 1, MBRRejects: 2, PIPHits: 3, SWDirect: 4, HWRejects: 5, HWPassed: 6, HWFallbacks: 7}
	b := a
	b.Add(a)
	if b.Tests != 2 || b.HWFallbacks != 14 || b.HWRejects != 10 {
		t.Errorf("Add wrong: %+v", b)
	}
}

// TestSoftwareAlgorithmsAgreeUnderTester holds the tester's one software
// choice — the all-pairs scan at or below DefaultCrossCutoff, the plane
// sweep above it — to sweep.CrossIntersectsBrute over every edge of both
// polygons, on pairs whose restricted edge product falls on both sides of
// the cutoff, through the software-only and the hardware tester.
func TestSoftwareAlgorithmsAgreeUnderTester(t *testing.T) {
	allEdges := func(p *geom.Polygon) []geom.Segment {
		var out []geom.Segment
		for i := range p.NumEdges() {
			out = append(out, p.Edge(i))
		}
		return out
	}
	verts := func(rng *rand.Rand, large bool) int {
		if large {
			return 200 + rng.Intn(200)
		}
		return 3 + rng.Intn(40)
	}
	rng := rand.New(rand.NewSource(54))
	testers := []*Tester{NewTester(Config{DisableHardware: true}), NewTester(Config{Resolution: 8})}
	var below, above int
	for trial := range 600 {
		p := star(rng, 0, 0, 3, verts(rng, trial%2 == 0))
		q := star(rng, 2+rng.Float64()*2, rng.Float64(), 3, verts(rng, trial%2 == 0))
		contained := sweep.ContainmentPossible(p, q)
		if red, blue := sweep.CandidateEdgesInto(p, q, nil, nil); !contained && len(red)*len(blue) <= DefaultCrossCutoff {
			below++
		} else if !contained {
			above++
		}
		want := contained || sweep.CrossIntersectsBrute(allEdges(p), allEdges(q))
		for _, tr := range testers {
			if got := tr.Intersects(p, q); got != want {
				t.Fatalf("trial %d (%d×%d vertices, hardware %v): Intersects = %v, brute = %v",
					trial, p.NumVerts(), q.NumVerts(), tr.ctx != nil, got, want)
			}
		}
	}
	if below < 20 || above < 20 {
		t.Fatalf("restricted edge products: %d at or below the cutoff, %d above; want ≥ 20 each", below, above)
	}
}

func TestHardwareFilterActuallyFilters(t *testing.T) {
	// Complex near-miss pairs should be rejected by the hardware filter at
	// a reasonable resolution, not passed to software.
	rng := rand.New(rand.NewSource(55))
	tester := NewTester(Config{Resolution: 16})
	for range 100 {
		p := star(rng, 0, 0, 1, 50)
		q := star(rng, 1.9, 0, 1, 50) // MBRs overlap in a sliver, geometry rarely does
		if p.Bounds().Intersects(q.Bounds()) {
			tester.Intersects(p, q)
		}
	}
	if tester.Stats.HWRejects == 0 {
		t.Errorf("hardware filter never rejected a near-miss pair (stats %+v)", tester.Stats)
	}
}

func TestNewTesterDefaults(t *testing.T) {
	tr := NewTester(Config{})
	if tr.Config().Resolution != DefaultResolution {
		t.Errorf("default resolution = %d", tr.Config().Resolution)
	}
	if tr.ctx == nil {
		t.Error("hardware context missing")
	}
	swOnly := NewTester(Config{DisableHardware: true})
	if swOnly.ctx != nil {
		t.Error("software-only tester has a context")
	}
	// A resolution beyond the window's word width gets capped, not
	// rejected (and allocates no 100000² window on the way).
	fine := NewTester(Config{Resolution: 100000})
	if got := fine.Config().Resolution; got != raster.MaxResolution || fine.ctx.Width() != got {
		t.Errorf("resolution not capped: config %d, window %d", got, fine.ctx.Width())
	}
}
