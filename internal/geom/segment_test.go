package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSegmentIntersects(t *testing.T) {
	tests := []struct {
		name string
		s, u Segment
		want bool
	}{
		{"crossing", Seg(Pt(0, 0), Pt(2, 2)), Seg(Pt(0, 2), Pt(2, 0)), true},
		{"disjoint parallel", Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(0, 1), Pt(1, 1)), false},
		{"endpoint touch", Seg(Pt(0, 0), Pt(1, 1)), Seg(Pt(1, 1), Pt(2, 0)), true},
		{"T-touch", Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(1, 0), Pt(1, 1)), true},
		{"collinear overlap", Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(1, 0), Pt(3, 0)), true},
		{"collinear disjoint", Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(2, 0), Pt(3, 0)), false},
		{"collinear touch", Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(1, 0), Pt(2, 0)), true},
		{"near miss", Seg(Pt(0, 0), Pt(1, 1)), Seg(Pt(0, 0.1), Pt(-1, 5)), false},
		{"degenerate point on segment", Seg(Pt(1, 1), Pt(1, 1)), Seg(Pt(0, 0), Pt(2, 2)), true},
		{"degenerate point off segment", Seg(Pt(5, 5), Pt(5, 5)), Seg(Pt(0, 0), Pt(2, 2)), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.s.Intersects(tc.u); got != tc.want {
				t.Errorf("Intersects = %v, want %v", got, tc.want)
			}
			if got := tc.u.Intersects(tc.s); got != tc.want {
				t.Errorf("Intersects (swapped) = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestSegmentIntersectsProper(t *testing.T) {
	cross := Seg(Pt(0, 0), Pt(2, 2))
	if !cross.IntersectsProper(Seg(Pt(0, 2), Pt(2, 0))) {
		t.Error("proper crossing not detected")
	}
	if cross.IntersectsProper(Seg(Pt(2, 2), Pt(3, 0))) {
		t.Error("endpoint touch reported as proper")
	}
	if cross.IntersectsProper(Seg(Pt(1, 1), Pt(3, 3))) {
		t.Error("collinear overlap reported as proper")
	}
}

func TestSegmentDistToPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	tests := []struct {
		p    Point
		want float64
	}{
		{Pt(5, 3), 3},
		{Pt(-4, 3), 5},
		{Pt(13, 4), 5},
		{Pt(5, 0), 0},
		{Pt(0, 0), 0},
	}
	for _, tc := range tests {
		if got := s.DistSqToPoint(tc.p); math.Abs(got-tc.want*tc.want) > 1e-12 {
			t.Errorf("DistSqToPoint(%v) = %v, want %v", tc.p, got, tc.want*tc.want)
		}
	}
}

func TestSegmentDist(t *testing.T) {
	a := Seg(Pt(0, 0), Pt(1, 0))
	b := Seg(Pt(0, 2), Pt(1, 2))
	if got := math.Sqrt(a.DistSq(b)); math.Abs(got-2) > 1e-12 {
		t.Errorf("parallel Dist = %v, want 2", got)
	}
	c := Seg(Pt(0.5, -1), Pt(0.5, 1))
	if got := a.DistSq(c); got != 0 {
		t.Errorf("crossing Dist = %v, want 0", got)
	}
}

// segmentDistBrute samples the two segments densely and returns the minimum
// pairwise sample distance — an upper bound on the true distance that
// converges to it as sampling grows.
func segmentDistBrute(s, u Segment, steps int) float64 {
	best := math.Inf(1)
	for i := 0; i <= steps; i++ {
		t := float64(i) / float64(steps)
		p := Point{s.A.X + t*(s.B.X-s.A.X), s.A.Y + t*(s.B.Y-s.A.Y)}
		d := u.DistSqToPoint(p)
		if d < best {
			best = d
		}
	}
	return math.Sqrt(best)
}

func TestSegmentDistMatchesSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for range 200 {
		s := Seg(Pt(rng.Float64()*10, rng.Float64()*10), Pt(rng.Float64()*10, rng.Float64()*10))
		u := Seg(Pt(rng.Float64()*10, rng.Float64()*10), Pt(rng.Float64()*10, rng.Float64()*10))
		exact := math.Sqrt(s.DistSq(u))
		approx := segmentDistBrute(s, u, 500)
		if exact > approx+1e-9 {
			t.Fatalf("Dist %v > sampled upper bound %v for %v,%v", exact, approx, s, u)
		}
		if approx-exact > 0.05 {
			t.Fatalf("Dist %v far below sampled bound %v for %v,%v", exact, approx, s, u)
		}
	}
}

func TestSegmentIntersectImpliesZeroDist(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8) bool {
		s := Seg(Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by)))
		u := Seg(Pt(float64(cx), float64(cy)), Pt(float64(dx), float64(dy)))
		if s.Intersects(u) {
			return s.DistSq(u) == 0
		}
		return s.DistSq(u) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSegmentBounds(t *testing.T) {
	s := Seg(Pt(3, -1), Pt(1, 4))
	want := R(1, -1, 3, 4)
	if got := s.Bounds(); got != want {
		t.Errorf("Bounds = %v, want %v", got, want)
	}
	if got := s.String(); got != "[(3, -1) - (1, 4)]" {
		t.Errorf("String = %q", got)
	}
}
