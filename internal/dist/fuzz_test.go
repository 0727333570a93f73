package dist

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/edgeindex"
	"repro/internal/sweep"
)

// FuzzBoundaryWithin checks the kernel against the brute-force oracle on
// fuzzer-chosen star polygons, offsets, distances and options: the region
// test must equal the thresholded brute distance, the raw kernel must
// equal it on disjoint pairs and never report a false positive, and edge
// indexes must not change either.
func FuzzBoundaryWithin(f *testing.F) {
	f.Add(int64(1), uint16(8), uint16(12), 5.0, 0.0, 1.0, uint8(0))
	f.Add(int64(2), uint16(200), uint16(300), 3.0, 1.0, 0.25, uint8(1))
	f.Add(int64(3), uint16(40), uint16(700), 0.5, 0.5, 0.0, uint8(2))
	f.Add(int64(4), uint16(3), uint16(3), 8.0, 8.0, 11.3, uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n1, n2 uint16, dx, dy, d float64, flags uint8) {
		if math.IsNaN(dx) || math.IsNaN(dy) || math.Abs(dx) > 1e6 || math.Abs(dy) > 1e6 || math.IsNaN(d) || math.IsInf(d, 0) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		p := star(rng, 0, 0, 1+rng.Float64()*3, 3+int(n1%800))
		q := star(rng, dx, dy, 1+rng.Float64()*3, 3+int(n2%800))
		opt := Options{NoFrontier: flags&1 != 0, NoClip: flags&2 != 0}
		d0 := MinDistBrute(p, q)
		want := d0 <= d
		if got := WithinDistance(p, q, d, opt); got != want {
			t.Fatalf("WithinDistance(d=%v, %+v) = %v, brute distance %v", d, opt, got, d0)
		}
		disjoint := !(p.Bounds().Intersects(q.Bounds()) && sweep.PolygonsIntersect(p, q, sweep.Options{}))
		var s Scratch
		plain := s.BoundaryWithin(p, q, nil, nil, d, opt)
		indexed := s.BoundaryWithin(p, q, edgeindex.New(p), edgeindex.New(q), d, opt)
		if plain != indexed {
			t.Fatalf("BoundaryWithin(d=%v, %+v): %v without indexes, %v with", d, opt, plain, indexed)
		}
		if plain && !want || disjoint && plain != want {
			t.Fatalf("BoundaryWithin(d=%v, %+v) = %v, brute distance %v (disjoint %v)", d, opt, plain, d0, disjoint)
		}
	})
}

// TestBoundaryWithinSteadyStateAllocFree pins the kernel's allocation
// contract on its own: once the Scratch has grown to the largest pair —
// small and large sides, indexed and linear gathers — a pair test allocates
// nothing.
func TestBoundaryWithinSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type pair struct {
		pix, qix *edgeindex.Index
		indexed  bool
		distance float64
	}
	var pairs []pair
	for _, sz := range [][2]int{{6, 9}, {30, 300}, {500, 400}, {800, 12}} {
		p := star(rng, 0, 0, 3, sz[0])
		q := star(rng, 4+rng.Float64()*3, rng.Float64(), 3, sz[1])
		for _, indexed := range []bool{false, true} {
			pairs = append(pairs, pair{edgeindex.New(p), edgeindex.New(q), indexed, MinDistBrute(p, q)})
		}
	}
	var s Scratch
	run := func() {
		for _, pr := range pairs {
			pix, qix := pr.pix, pr.qix
			if !pr.indexed {
				pix, qix = nil, nil
			}
			for _, d := range []float64{0, pr.distance / 2, pr.distance, pr.distance + 1} {
				s.BoundaryWithin(pr.pix.Polygon(), pr.qix.Polygon(), pix, qix, d, Options{})
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("steady-state BoundaryWithin allocates %.1f times per round, want 0", allocs)
	}
}
