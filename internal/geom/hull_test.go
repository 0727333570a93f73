package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestConvexHullSquare(t *testing.T) {
	pts := []Point{
		{0, 0}, {4, 0}, {4, 4}, {0, 4}, // corners
		{2, 2}, {1, 3}, {2, 0}, {0, 2}, // interior and edge points
	}
	h := ConvexHull(pts)
	if h == nil {
		t.Fatal("nil hull")
	}
	if h.NumVerts() != 4 {
		t.Fatalf("hull verts = %d, want 4 (%v)", h.NumVerts(), h.Verts)
	}
	if h.SignedArea() <= 0 {
		t.Error("hull not CCW")
	}
	if h.Area() != 16 {
		t.Errorf("hull area = %v", h.Area())
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if ConvexHull([]Point{{0, 0}, {1, 1}}) != nil {
		t.Error("hull of 2 points")
	}
	if ConvexHull([]Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}}) != nil {
		t.Error("hull of collinear points")
	}
	if ConvexHull([]Point{{1, 1}, {1, 1}, {1, 1}}) != nil {
		t.Error("hull of a repeated point")
	}
}

func TestConvexHullProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for range 200 {
		n := 3 + rng.Intn(100)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(rng.Float64()*100, rng.Float64()*100)
		}
		h := ConvexHull(pts)
		if h == nil {
			continue // extremely unlikely with random floats
		}
		for i, n := 0, len(h.Verts); i < n; i++ {
			if Orient(h.Verts[i], h.Verts[(i+1)%n], h.Verts[(i+2)%n]) != CounterClockwise {
				t.Fatalf("hull not strictly convex and CCW at vertex %d: %v", i, h.Verts)
			}
		}
		if !h.IsSimple() {
			t.Fatal("hull not simple")
		}
		for _, p := range pts {
			if !h.ContainsPoint(p) {
				t.Fatalf("hull does not contain input point %v", p)
			}
		}
	}
}

func TestPolygonHullContainsPolygon(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	for range 100 {
		n := 5 + rng.Intn(40)
		pts := make([]Point, n)
		step := 2 * math.Pi / float64(n)
		for i := range pts {
			a := float64(i)*step + rng.Float64()*step*0.9
			r := 1 + 4*rng.Float64()
			pts[i] = Pt(10+r*math.Cos(a), 10+r*math.Sin(a))
		}
		p := MustPolygon(pts...)
		h := p.Hull()
		if h == nil {
			t.Fatal("nil hull of valid polygon")
		}
		// Every vertex of p (hence all of p, by convexity) is inside h.
		for _, v := range p.Verts {
			if !h.ContainsPoint(v) {
				t.Fatalf("hull misses vertex %v", v)
			}
		}
		if h.Area() < p.Area()-1e-9 {
			t.Fatalf("hull area %v below polygon area %v", h.Area(), p.Area())
		}
	}
}
