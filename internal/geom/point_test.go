package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Cross(q); got != -4-6 {
		t.Errorf("Cross = %v", got)
	}
}

func TestPointDist(t *testing.T) {
	if got := Pt(0, 0).DistSq(Pt(3, 4)); got != 25 {
		t.Errorf("DistSq = %v, want 25", got)
	}
}

func TestOrient(t *testing.T) {
	a, b := Pt(0, 0), Pt(1, 0)
	tests := []struct {
		c    Point
		want Orientation
	}{
		{Pt(0.5, 1), CounterClockwise},
		{Pt(0.5, -1), Clockwise},
		{Pt(2, 0), Collinear},
		{Pt(-3, 0), Collinear},
	}
	for _, tc := range tests {
		if got := Orient(a, b, tc.c); got != tc.want {
			t.Errorf("Orient(%v,%v,%v) = %v, want %v", a, b, tc.c, got, tc.want)
		}
	}
}

func TestOrientAntisymmetry(t *testing.T) {
	// Swapping two arguments flips the orientation.
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Pt(float64(ax), float64(ay))
		b := Pt(float64(bx), float64(by))
		c := Pt(float64(cx), float64(cy))
		return Orient(a, b, c) == -Orient(b, a, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistSymmetryAndTriangle(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		// Keep magnitudes sane so float error stays bounded.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Pt(clamp(ax), clamp(ay))
		b := Pt(clamp(bx), clamp(by))
		c := Pt(clamp(cx), clamp(cy))
		dist := func(p, q Point) float64 { return math.Sqrt(p.DistSq(q)) }
		if dist(a, b) != dist(b, a) {
			return false
		}
		return dist(a, c) <= dist(a, b)+dist(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
