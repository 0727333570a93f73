package dist

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/edgeindex"
	"repro/internal/geom"
	"repro/internal/sweep"
)

// FuzzBoundaryWithin checks the kernel against the brute-force oracle on
// fuzzer-chosen star polygons, offsets, distances and index
// configurations: the region test must equal the thresholded brute
// distance, and the raw kernel the thresholded brute boundary distance,
// whichever index each side comes with — none, edgeindex.New, one rebuilt
// from its flattened boxes, or another polygon's, which must be ignored
// (flags bits 0–1 pick p's, bits 2–3 q's). At a squared bound of 0 the
// kernel asks the intersection predicate, so there the oracles are the
// all-pairs cross test, after WithinDistance's region step for the
// region test.
func FuzzBoundaryWithin(f *testing.F) {
	f.Add(int64(1), uint16(8), uint16(12), 5.0, 0.0, 1.0, uint8(0))
	f.Add(int64(2), uint16(200), uint16(300), 3.0, 1.0, 0.25, uint8(5))
	f.Add(int64(3), uint16(40), uint16(700), 0.5, 0.5, 0.0, uint8(10))
	f.Add(int64(4), uint16(3), uint16(3), 8.0, 8.0, 11.3, uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, n1, n2 uint16, dx, dy, d float64, flags uint8) {
		if math.IsNaN(dx) || math.IsNaN(dy) || math.Abs(dx) > 1e6 || math.Abs(dy) > 1e6 || math.IsNaN(d) || math.IsInf(d, 0) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		p := star(rng, 0, 0, 1+rng.Float64()*3, 3+int(n1%800))
		q := star(rng, dx, dy, 1+rng.Float64()*3, 3+int(n2%800))
		d0, b0 := MinDistBrute(p, q), boundaryDistBrute(p, q)
		region, boundary := d0 <= d, b0 <= d
		if geom.SqBound(d) == 0 {
			boundary = crossBrute(p, q)
			region = sweep.PolygonsIntersect(p, q, sweep.Options{}) || boundary
		}
		if got := WithinDistance(p, q, d, Options{}); got != region {
			t.Fatalf("WithinDistance(d=%v) = %v, brute distance %v", d, got, d0)
		}
		pix, qix := indexFor(p, q, flags), indexFor(q, p, flags>>2)
		var s Scratch
		if got := s.BoundaryWithin(p, q, pix, qix, d, Options{}); got != boundary {
			t.Fatalf("BoundaryWithin(d=%v, flags %d) = %v, brute boundary distance %v", d, flags, got, b0)
		}
	})
}

// FuzzMinDist checks the unbounded descent against the brute-force oracle,
// bit for bit.
func FuzzMinDist(f *testing.F) {
	f.Add(int64(1), uint16(8), uint16(12), 5.0, 0.0)
	f.Add(int64(2), uint16(200), uint16(300), 3.0, 1.0)
	f.Add(int64(3), uint16(40), uint16(700), 9.5, 0.5)
	f.Add(int64(4), uint16(3), uint16(3), 8.0, 8.0)
	f.Fuzz(func(t *testing.T, seed int64, n1, n2 uint16, dx, dy float64) {
		if math.IsNaN(dx) || math.IsNaN(dy) || math.Abs(dx) > 1e6 || math.Abs(dy) > 1e6 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		p := star(rng, 0, 0, 1+rng.Float64()*3, 3+int(n1%800))
		q := star(rng, dx, dy, 1+rng.Float64()*3, 3+int(n2%800))
		if got, want := MinDist(p, q), MinDistBrute(p, q); got != want {
			t.Fatalf("MinDist = %v, brute %v", got, want)
		}
	})
}

// indexFor returns the index configuration flags&3 names for p: none, New,
// New rebuilt through its flattened boxes, or other's index.
func indexFor(p, other *geom.Polygon, flags uint8) *edgeindex.Index {
	switch flags & 3 {
	case 1:
		return edgeindex.New(p)
	case 2:
		ix, ok := edgeindex.FromFlatBoxes(p, edgeindex.New(p).FlatBoxes())
		if !ok {
			panic("FromFlatBoxes rejected FlatBoxes")
		}
		return ix
	case 3:
		return edgeindex.New(other)
	}
	return nil
}

// boundaryDistBrute is the distance between the boundaries of p and q over
// all edge pairs: what the raw kernel measures, and MinDistBrute without
// its region step.
func boundaryDistBrute(p, q *geom.Polygon) float64 {
	best := math.Inf(1)
	for i := range p.NumEdges() {
		for j := range q.NumEdges() {
			best = min(best, p.Edge(i).DistSq(q.Edge(j)))
		}
	}
	return math.Sqrt(best)
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
