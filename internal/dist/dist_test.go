package dist

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func square(x, y, side float64) *geom.Polygon {
	return geom.MustPolygon(
		geom.Pt(x, y), geom.Pt(x+side, y), geom.Pt(x+side, y+side), geom.Pt(x, y+side),
	)
}

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

func TestMinDistKnown(t *testing.T) {
	a := square(0, 0, 1)
	b := square(3, 0, 1) // gap of 2 along x
	for _, opt := range []Options{{}, {NoFrontier: true}, {NoClip: true}, {NoFrontier: true, NoClip: true}} {
		if got := MinDist(a, b, opt); math.Abs(got-2) > 1e-12 {
			t.Errorf("opt %+v: MinDist = %v, want 2", opt, got)
		}
	}
	diag := square(3, 3, 1) // corner gap sqrt(8)
	if got := MinDist(a, diag, Options{}); math.Abs(got-2*math.Sqrt2) > 1e-12 {
		t.Errorf("diagonal MinDist = %v", got)
	}
}

func TestMinDistIntersecting(t *testing.T) {
	a := square(0, 0, 2)
	overlapping := square(1, 1, 2)
	contained := square(0.5, 0.5, 0.5)
	touching := square(2, 0, 1)
	for _, q := range []*geom.Polygon{overlapping, contained, touching} {
		if got := MinDist(a, q, Options{}); got != 0 {
			t.Errorf("MinDist = %v, want 0 for intersecting polygons", got)
		}
		if got := MinDistBrute(a, q); got != 0 {
			t.Errorf("MinDistBrute = %v, want 0", got)
		}
	}
}

func TestWithinDistanceKnown(t *testing.T) {
	a := square(0, 0, 1)
	b := square(3, 0, 1)
	tests := []struct {
		d    float64
		want bool
	}{
		{1.9, false},
		{2.0, true},
		{2.5, true},
		{0, false},
	}
	for _, tc := range tests {
		if got := WithinDistance(a, b, tc.d, Options{}); got != tc.want {
			t.Errorf("WithinDistance(d=%v) = %v, want %v", tc.d, got, tc.want)
		}
	}
	if !WithinDistance(a, square(0.5, 0.5, 2), 0, Options{}) {
		t.Error("intersecting polygons should be within distance 0")
	}
}

func TestMinDistMatchesBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := range 500 {
		p := star(rng, rng.Float64()*20, rng.Float64()*20, 0.5+rng.Float64()*3, 3+rng.Intn(25))
		q := star(rng, rng.Float64()*20, rng.Float64()*20, 0.5+rng.Float64()*3, 3+rng.Intn(25))
		want := MinDistBrute(p, q)
		for _, opt := range []Options{{}, {NoFrontier: true}, {NoClip: true}} {
			if got := MinDist(p, q, opt); math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d opt %+v: MinDist = %v, brute = %v", trial, opt, got, want)
			}
		}
	}
}

func TestWithinDistanceMatchesBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := range 500 {
		p := star(rng, rng.Float64()*20, rng.Float64()*20, 0.5+rng.Float64()*3, 3+rng.Intn(25))
		q := star(rng, rng.Float64()*20, rng.Float64()*20, 0.5+rng.Float64()*3, 3+rng.Intn(25))
		d := rng.Float64() * 10
		want := MinDistBrute(p, q) <= d
		for _, opt := range []Options{{}, {NoFrontier: true}, {NoClip: true}} {
			if got := WithinDistance(p, q, d, opt); got != want {
				t.Fatalf("trial %d opt %+v d=%v: got %v, want %v (brute dist %v)",
					trial, opt, d, got, want, MinDistBrute(p, q))
			}
		}
	}
}

func TestFrontierEdgesCulls(t *testing.T) {
	// Two squares side by side: the frontier of the left square w.r.t. the
	// right square must drop the left (back-facing) edge.
	a := square(0, 0, 1)
	b := square(5, 0, 1)
	var s Scratch
	s.boundarySq(a, b, nil, nil, math.Inf(1), Options{})
	if n := len(s.inner.ax); n >= a.NumEdges() {
		t.Errorf("frontier did not cull any edge: %d of %d kept", n, a.NumEdges())
	}
	// The right edge (x=1) must be kept.
	found := false
	for i := range s.inner.ax {
		if e := s.inner.segment(i); e.A.X == 1 && e.B.X == 1 {
			found = true
		}
	}
	if !found {
		t.Error("frontier culled the facing edge")
	}
	// Clipping with a small radius removes everything (distance 4 > 1).
	if got := s.boundarySq(a, b, nil, nil, 1, Options{}); !math.IsInf(got, 1) {
		t.Errorf("expected an empty frontier under tight clip, got distance² %v", got)
	}
	if len(s.pe) != 0 {
		t.Errorf("expected no gathered edges under tight clip, got %d", len(s.pe))
	}
}

func TestFrontierNeverCullsMinimizer(t *testing.T) {
	// Property: chain distance over frontier edges equals brute distance.
	rng := rand.New(rand.NewSource(23))
	for range 300 {
		p := star(rng, 0, 0, 2, 4+rng.Intn(20))
		q := star(rng, 6+rng.Float64()*4, rng.Float64()*6-3, 2, 4+rng.Intn(20))
		want := MinDistBrute(p, q)
		got := MinDist(p, q, Options{})
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("frontier culled the minimizer: %v vs %v", got, want)
		}
	}
}

func BenchmarkMinDist(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := star(rng, 0, 0, 5, 200)
	q := star(rng, 20, 0, 5, 200)
	b.Run("optimized", func(b *testing.B) {
		for range b.N {
			MinDist(p, q, Options{})
		}
	})
	b.Run("noFrontier", func(b *testing.B) {
		for range b.N {
			MinDist(p, q, Options{NoFrontier: true})
		}
	})
	b.Run("brute", func(b *testing.B) {
		for range b.N {
			MinDistBrute(p, q)
		}
	})
}
