package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestClipConvexPair(t *testing.T) {
	// Two axis-aligned squares with known overlap.
	a := MustPolygon(Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4))
	b := MustPolygon(Pt(2, 2), Pt(6, 2), Pt(6, 6), Pt(2, 6))
	c := ClipConvex(a, b)
	if c == nil {
		t.Fatal("nil intersection")
	}
	if math.Abs(c.Area()-4) > 1e-12 {
		t.Errorf("area = %v, want 4", c.Area())
	}
	// Rotated square clipped by diamond.
	diamond := MustPolygon(Pt(2, 0), Pt(4, 2), Pt(2, 4), Pt(0, 2))
	c = ClipConvex(a, diamond)
	if c == nil || math.Abs(c.Area()-8) > 1e-9 {
		t.Errorf("diamond clip area = %v, want 8", area(c))
	}
	// Disjoint convex pair.
	far := MustPolygon(Pt(100, 100), Pt(101, 100), Pt(101, 101))
	if ClipConvex(a, far) != nil {
		t.Error("disjoint clip returned a polygon")
	}
}

func area(p *Polygon) float64 {
	if p == nil {
		return -1
	}
	return p.Area()
}

func TestClipConvexCommutesOnArea(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	for range 100 {
		a := randomConvex(rng, 5, 5, 4)
		b := randomConvex(rng, 7+rng.Float64()*2-1, 5+rng.Float64()*2-1, 4)
		if a == nil || b == nil {
			continue
		}
		ab, ba := ClipConvex(a, b), ClipConvex(b, a)
		areaAB, areaBA := 0.0, 0.0
		if ab != nil {
			areaAB = ab.Area()
		}
		if ba != nil {
			areaBA = ba.Area()
		}
		if math.Abs(areaAB-areaBA) > 1e-9 {
			t.Fatalf("clip areas differ: %v vs %v", areaAB, areaBA)
		}
		// Intersection area never exceeds either input.
		if areaAB > a.Area()+1e-9 || areaAB > b.Area()+1e-9 {
			t.Fatalf("intersection area %v exceeds inputs %v, %v", areaAB, a.Area(), b.Area())
		}
	}
}

func randomConvex(rng *rand.Rand, cx, cy, r float64, sizes ...int) *Polygon {
	pts := make([]Point, 16)
	for i := range pts {
		pts[i] = Pt(cx+(rng.Float64()*2-1)*r, cy+(rng.Float64()*2-1)*r)
	}
	return ConvexHull(pts)
}
