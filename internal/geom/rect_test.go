package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := R(0, 0, 4, 2)
	if r.Width() != 4 || r.Height() != 2 || r.Area() != 8 {
		t.Errorf("basics wrong: %v %v %v", r.Width(), r.Height(), r.Area())
	}
	if got := r.Center(); got != Pt(2, 1) {
		t.Errorf("Center = %v", got)
	}
	if EmptyRect().Area() != 0 || !EmptyRect().IsEmpty() {
		t.Error("EmptyRect not empty")
	}
}

func TestRectContains(t *testing.T) {
	r := R(0, 0, 2, 2)
	for _, p := range []Point{Pt(1, 1), Pt(0, 0), Pt(2, 2), Pt(0, 1)} {
		if !r.ContainsPoint(p) {
			t.Errorf("ContainsPoint(%v) = false", p)
		}
	}
	for _, p := range []Point{Pt(-0.1, 1), Pt(3, 1), Pt(1, 2.5)} {
		if r.ContainsPoint(p) {
			t.Errorf("ContainsPoint(%v) = true", p)
		}
	}
	if !r.ContainsRect(R(0.5, 0.5, 1.5, 1.5)) || r.ContainsRect(R(1, 1, 3, 1.5)) {
		t.Error("ContainsRect wrong")
	}
	if !r.ContainsRect(EmptyRect()) {
		t.Error("every rect contains the empty rect")
	}
}

func TestRectIntersection(t *testing.T) {
	a, b := R(0, 0, 2, 2), R(1, 1, 3, 3)
	if !a.Intersects(b) {
		t.Fatal("Intersects = false")
	}
	if got := a.Intersection(b); got != R(1, 1, 2, 2) {
		t.Errorf("Intersection = %v", got)
	}
	// Touching rectangles intersect under closed semantics.
	if !a.Intersects(R(2, 0, 4, 2)) {
		t.Error("touching rects should intersect")
	}
	if a.Intersects(R(5, 5, 6, 6)) {
		t.Error("disjoint rects intersect")
	}
	if !a.Intersection(R(5, 5, 6, 6)).IsEmpty() {
		t.Error("disjoint intersection not empty")
	}
}

func TestRectUnionExpand(t *testing.T) {
	a, b := R(0, 0, 1, 1), R(2, -1, 3, 0.5)
	if got := a.Union(b); got != R(0, -1, 3, 1) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Union(EmptyRect()); got != a {
		t.Errorf("Union with empty = %v", got)
	}
	if got := a.Expand(0.5); got != R(-0.5, -0.5, 1.5, 1.5) {
		t.Errorf("Expand = %v", got)
	}
}

func TestRectDist(t *testing.T) {
	a := R(0, 0, 1, 1)
	tests := []struct {
		b    Rect
		want float64
	}{
		{R(2, 0, 3, 1), 1},      // side by side
		{R(0, 3, 1, 4), 2},      // stacked
		{R(4, 5, 6, 7), 5},      // diagonal: dx=3, dy=4
		{R(0.5, 0.5, 2, 2), 0},  // overlapping
		{R(1, 1, 2, 2), 0},      // corner touch
		{R(-5, -5, -4, 0.5), 4}, // left: gap from x=-4 to x=0
	}
	for _, tc := range tests {
		if got := a.Dist(tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Dist(%v) = %v, want %v", tc.b, got, tc.want)
		}
	}
}

// TestRectDistSqAtExactlyD pins the MBR pre-test's tie: boxes whose gap is
// non-zero on both axes and whose distance is exactly d are kept at d and
// dropped just below it, and x ≤ SqBound(d) decides as Sqrt(x) ≤ d does
// around the rounding of d·d.
func TestRectDistSqAtExactlyD(t *testing.T) {
	a := R(0, 0, 1, 1)
	for _, k := range []float64{1, 0.1, 1e-3, 7} { // 3-4-5 gaps, scaled off the exact grid
		b := R(1+3*k, 1+4*k, 2+3*k, 2+4*k)
		sq := a.DistSq(b)
		d := math.Sqrt(sq)
		if sq > SqBound(d) {
			t.Errorf("k=%g: DistSq %v above SqBound(%v) = %v", k, sq, d, SqBound(d))
		}
		if below := math.Nextafter(d, 0); sq <= SqBound(below) {
			t.Errorf("k=%g: DistSq %v within SqBound(%v)", k, sq, below)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for range 2000 {
		d := rng.Float64() * 100
		x := d * d
		for range 4 {
			x = math.Nextafter(x, 0)
		}
		for range 9 {
			if (x <= SqBound(d)) != (math.Sqrt(x) <= d) {
				t.Fatalf("d=%v x=%v: SqBound says %v, Sqrt says %v", d, x, x <= SqBound(d), math.Sqrt(x) <= d)
			}
			x = math.Nextafter(x, math.Inf(1))
		}
	}
}

func TestRectDistBounds(t *testing.T) {
	// Dist is symmetric and zero exactly on intersecting rectangles.
	f := func(ax, ay, aw, ah, bx, by, bw, bh uint8) bool {
		a := R(float64(ax), float64(ay), float64(ax)+float64(aw)+1, float64(ay)+float64(ah)+1)
		b := R(float64(bx), float64(by), float64(bx)+float64(bw)+1, float64(by)+float64(bh)+1)
		return a.Dist(b) == b.Dist(a) && (a.Dist(b) == 0) == a.Intersects(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMinMaxDist(t *testing.T) {
	r := R(0, 0, 2, 2)
	p := Pt(-1, 1)
	got := math.Sqrt(r.MinMaxDistSq(p))
	// Along x: nearer edge x=0, farthest y corner y=2 (p.Y=1 -> farther is
	// y=... both 2 away? fartherEdge(1,0,2) picks 0 since 1>=1): corner
	// (0,0): dist sqrt(1+1). Along y: nearer edge y=0? nearerEdge(1,0,2)=0,
	// farther x = fartherEdge(-1,0,2)=2: corner (2,0): dist sqrt(9+1).
	want := math.Sqrt(2)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("MinMaxDist = %v, want %v", got, want)
	}
	if !math.IsInf(EmptyRect().MinMaxDistSq(p), 1) {
		t.Error("MinMaxDistSq of empty rect should be +Inf")
	}
}

// TestMinMaxDistIsUpperBound verifies the defining property: for any
// "object" that touches all four edges of its MBR, the object's distance to
// p is at most MinMaxDist(p). We model such objects as 4 random points, one
// on each edge, connected arbitrarily.
func TestMinMaxDistIsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for range 2000 {
		r := R(rng.Float64()*10, rng.Float64()*10, 10+rng.Float64()*10, 10+rng.Float64()*10)
		p := Pt(rng.Float64()*40-10, rng.Float64()*40-10)
		// One point per edge.
		touch := []Point{
			{r.MinX, r.MinY + rng.Float64()*r.Height()},
			{r.MaxX, r.MinY + rng.Float64()*r.Height()},
			{r.MinX + rng.Float64()*r.Width(), r.MinY},
			{r.MinX + rng.Float64()*r.Width(), r.MaxY},
		}
		minD := math.Inf(1)
		for _, q := range touch {
			if d := math.Sqrt(p.DistSq(q)); d < minD {
				minD = d
			}
		}
		if bound := math.Sqrt(r.MinMaxDistSq(p)); minD > bound+1e-9 {
			t.Fatalf("object dist %v exceeds MinMaxDist %v (r=%v p=%v)", minD, bound, r, p)
		}
	}
}

func TestRectIntersectsSegment(t *testing.T) {
	r := R(0, 0, 2, 2)
	tests := []struct {
		s    Segment
		want bool
	}{
		{Seg(Pt(1, 1), Pt(5, 5)), true},  // endpoint inside
		{Seg(Pt(-1, 1), Pt(3, 1)), true}, // passes through
		{Seg(Pt(-1, -1), Pt(3, -1)), false},
		{Seg(Pt(-1, 3), Pt(3, -1)), true}, // cuts the corner region
		{Seg(Pt(3, 3), Pt(4, 4)), false},
		{Seg(Pt(2, 2), Pt(4, 2)), true}, // touches corner
	}
	for _, tc := range tests {
		if got := r.IntersectsSegment(tc.s); got != tc.want {
			t.Errorf("IntersectsSegment(%v) = %v, want %v", tc.s, got, tc.want)
		}
	}
}
