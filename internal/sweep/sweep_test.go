package sweep

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// randSegs generates n random segments with integer coordinates in
// [0, span), producing frequent collinear and touching configurations.
func randSegs(rng *rand.Rand, n, span int) []geom.Segment {
	out := make([]geom.Segment, n)
	for i := range out {
		out[i] = geom.Seg(
			geom.Pt(float64(rng.Intn(span)), float64(rng.Intn(span))),
			geom.Pt(float64(rng.Intn(span)), float64(rng.Intn(span))),
		)
	}
	return out
}

// randChain generates a non-self-crossing chain of n segments (consecutive
// segments share endpoints), modeling polygon boundaries.
func randChain(rng *rand.Rand, n int, span float64) []geom.Segment {
	// A star-shaped closed chain is guaranteed non-self-crossing.
	cx, cy := rng.Float64()*span, rng.Float64()*span
	angles := make([]float64, n)
	for i := range angles {
		angles[i] = rng.Float64() * 2 * math.Pi
	}
	sortFloats(angles)
	pts := make([]geom.Point, n)
	for i, a := range angles {
		r := span * (0.1 + 0.4*rng.Float64())
		pts[i] = geom.Pt(cx+r*math.Cos(a), cy+r*math.Sin(a))
	}
	segs := make([]geom.Segment, 0, n)
	for i := range n {
		s := geom.Seg(pts[i], pts[(i+1)%n])
		if !s.A.Eq(s.B) {
			segs = append(segs, s)
		}
	}
	return segs
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func TestCrossIntersectsSimpleCases(t *testing.T) {
	cross := []geom.Segment{geom.Seg(geom.Pt(0, 0), geom.Pt(2, 2))}
	hit := []geom.Segment{geom.Seg(geom.Pt(0, 2), geom.Pt(2, 0))}
	miss := []geom.Segment{geom.Seg(geom.Pt(5, 5), geom.Pt(6, 6))}
	touch := []geom.Segment{geom.Seg(geom.Pt(2, 2), geom.Pt(3, 0))}
	vertical := []geom.Segment{geom.Seg(geom.Pt(1, -1), geom.Pt(1, 3))}

	for name, fn := range map[string]func(a, b []geom.Segment) bool{
		"sweep": CrossIntersects,
		"brute": CrossIntersectsBrute,
	} {
		if !fn(cross, hit) {
			t.Errorf("%s: crossing pair missed", name)
		}
		if fn(cross, miss) {
			t.Errorf("%s: disjoint pair reported", name)
		}
		if !fn(cross, touch) {
			t.Errorf("%s: endpoint touch missed", name)
		}
		if !fn(cross, vertical) {
			t.Errorf("%s: vertical crossing missed", name)
		}
		if fn(nil, hit) || fn(cross, nil) {
			t.Errorf("%s: empty input reported intersection", name)
		}
	}
}

// TestSweepMatchesBruteOnChains compares the plane sweep against brute
// force on internally non-crossing chains, the precondition
// the plane sweep assumes (polygon boundaries).
func TestSweepMatchesBruteOnChains(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := range 500 {
		red := randChain(rng, 3+rng.Intn(20), 10)
		blue := randChain(rng, 3+rng.Intn(20), 10)
		want := CrossIntersectsBrute(red, blue)
		if got := CrossIntersects(red, blue); got != want {
			t.Fatalf("trial %d: sweep = %v, brute = %v\nred=%v\nblue=%v", trial, got, want, red, blue)
		}
	}
}

// TestSweepNeverFalsePositive: the plane sweep only reports pairs verified
// by the exact segment test, so on ANY input a positive must be real.
func TestSweepNeverFalsePositive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for range 300 {
		red := randSegs(rng, 1+rng.Intn(10), 6)
		blue := randSegs(rng, 1+rng.Intn(10), 6)
		if CrossIntersects(red, blue) && !CrossIntersectsBrute(red, blue) {
			t.Fatalf("false positive\nred=%v\nblue=%v", red, blue)
		}
	}
}

func polyFromPts(pts ...geom.Point) *geom.Polygon { return geom.MustPolygon(pts...) }

func TestPolygonsIntersectBasic(t *testing.T) {
	a := polyFromPts(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4))
	overlapping := polyFromPts(geom.Pt(2, 2), geom.Pt(6, 2), geom.Pt(6, 6), geom.Pt(2, 6))
	contained := polyFromPts(geom.Pt(1, 1), geom.Pt(2, 1), geom.Pt(2, 2), geom.Pt(1, 2))
	disjoint := polyFromPts(geom.Pt(10, 10), geom.Pt(11, 10), geom.Pt(11, 11), geom.Pt(10, 11))
	touching := polyFromPts(geom.Pt(4, 0), geom.Pt(8, 0), geom.Pt(8, 4), geom.Pt(4, 4))
	// MBRs overlap but the polygons are disjoint (diagonal neighbors around
	// a concave gap).
	lShape := polyFromPts(geom.Pt(0, 0), geom.Pt(6, 0), geom.Pt(6, 1), geom.Pt(1, 1), geom.Pt(1, 6), geom.Pt(0, 6))
	inNotch := polyFromPts(geom.Pt(3, 3), geom.Pt(5, 3), geom.Pt(5, 5), geom.Pt(3, 5))

	if !PolygonsIntersect(a, overlapping, Options{}) {
		t.Error("overlapping missed")
	}
	if !PolygonsIntersect(a, contained, Options{}) || !PolygonsIntersect(contained, a, Options{}) {
		t.Error("containment missed")
	}
	if PolygonsIntersect(a, disjoint, Options{}) {
		t.Error("disjoint reported")
	}
	if !PolygonsIntersect(a, touching, Options{}) {
		t.Error("edge touch missed")
	}
	if PolygonsIntersect(lShape, inNotch, Options{}) {
		t.Error("notch non-intersection reported")
	}
}

// star builds a random star-shaped polygon (always simple).
func star(rng *rand.Rand, cx, cy, rMax float64, n int) *geom.Polygon {
	angles := make([]float64, n)
	step := 2 * math.Pi / float64(n)
	for i := range angles {
		angles[i] = float64(i)*step + rng.Float64()*step*0.9
	}
	pts := make([]geom.Point, n)
	for i, a := range angles {
		r := rMax * (0.2 + 0.8*rng.Float64())
		pts[i] = geom.Pt(cx+r*math.Cos(a), cy+r*math.Sin(a))
	}
	return geom.MustPolygon(pts...)
}

// TestPolygonsIntersectAlgorithmsAgree holds PolygonsIntersect — the plane
// sweep over the restricted search space — to the all-pairs scan over every
// edge of both polygons, so neither the sweep nor the restriction can
// change a verdict.
func TestPolygonsIntersectAlgorithmsAgree(t *testing.T) {
	allEdges := func(p *geom.Polygon) []geom.Segment {
		var out []geom.Segment
		for i := range p.NumEdges() {
			out = append(out, p.Edge(i))
		}
		return out
	}
	rng := rand.New(rand.NewSource(77))
	for trial := range 400 {
		p := star(rng, rng.Float64()*10, rng.Float64()*10, 1+rng.Float64()*4, 3+rng.Intn(30))
		q := star(rng, rng.Float64()*10, rng.Float64()*10, 1+rng.Float64()*4, 3+rng.Intn(30))
		want := ContainmentPossible(p, q) || CrossIntersectsBrute(allEdges(p), allEdges(q))
		if got := PolygonsIntersect(p, q, Options{}); got != want {
			t.Fatalf("trial %d: sweep = %v, unrestricted brute = %v", trial, got, want)
		}
	}
}

func TestCandidateEdges(t *testing.T) {
	a := polyFromPts(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4))
	b := polyFromPts(geom.Pt(3, 3), geom.Pt(6, 3), geom.Pt(6, 6), geom.Pt(3, 6))
	red, blue := CandidateEdgesInto(a, b, nil, nil)
	if len(red) == 0 || len(blue) == 0 {
		t.Fatal("expected candidate edges for overlapping polygons")
	}
	// Common region is [3,3 - 4,4]; only a's top and right edges touch it.
	if len(red) != 2 {
		t.Errorf("len(red) = %d, want 2", len(red))
	}
	far := polyFromPts(geom.Pt(100, 100), geom.Pt(101, 100), geom.Pt(101, 101))
	red, blue = CandidateEdgesInto(a, far, nil, nil)
	if red != nil || blue != nil {
		t.Error("expected nil candidates for disjoint MBRs")
	}
}
