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
	if got := MinDist(a, b); got != 2 {
		t.Errorf("MinDist = %v, want 2", got)
	}
	diag := square(3, 3, 1) // corner gap sqrt(8)
	if got := MinDist(a, diag); math.Abs(got-2*math.Sqrt2) > 1e-12 {
		t.Errorf("diagonal MinDist = %v", got)
	}
}

func TestMinDistIntersecting(t *testing.T) {
	a := square(0, 0, 2)
	overlapping := square(1, 1, 2)
	contained := square(0.5, 0.5, 0.5)
	touching := square(2, 0, 1)
	for _, q := range []*geom.Polygon{overlapping, contained, touching} {
		if got := MinDist(a, q); got != 0 {
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
		if got, want := MinDist(p, q), MinDistBrute(p, q); got != want {
			t.Fatalf("trial %d: MinDist = %v, brute = %v", trial, got, want)
		}
	}
}

func TestWithinDistanceMatchesBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := range 500 {
		p := star(rng, rng.Float64()*20, rng.Float64()*20, 0.5+rng.Float64()*3, 3+rng.Intn(25))
		q := star(rng, rng.Float64()*20, rng.Float64()*20, 0.5+rng.Float64()*3, 3+rng.Intn(25))
		d := rng.Float64() * 10
		if got, want := WithinDistance(p, q, d, Options{}), MinDistBrute(p, q) <= d; got != want {
			t.Fatalf("trial %d d=%v: got %v, want %v (brute dist %v)", trial, d, got, want, MinDistBrute(p, q))
		}
	}
}

// TestMinDistSeparatedMatchesBrute holds the unbounded descent to the
// oracle on pairs whose boundaries are apart, where the minimum is a true
// edge-pair distance and not a region step's zero.
func TestMinDistSeparatedMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for range 300 {
		p := star(rng, 0, 0, 2, 4+rng.Intn(200))
		q := star(rng, 6+rng.Float64()*4, rng.Float64()*6-3, 2, 4+rng.Intn(200))
		if got, want := MinDist(p, q), MinDistBrute(p, q); got != want {
			t.Fatalf("MinDist = %v, brute %v (%d and %d edges)", got, want, p.NumEdges(), q.NumEdges())
		}
	}
}

func BenchmarkMinDist(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := star(rng, 0, 0, 5, 200)
	q := star(rng, 20, 0, 5, 200)
	b.Run("descent", func(b *testing.B) {
		for range b.N {
			MinDist(p, q)
		}
	})
	b.Run("brute", func(b *testing.B) {
		for range b.N {
			MinDistBrute(p, q)
		}
	})
}
