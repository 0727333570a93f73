package dist

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/sweep"
)

// edges returns p's edges in chain order.
func edges(p *geom.Polygon) []geom.Segment {
	out := make([]geom.Segment, p.NumEdges())
	for i := range out {
		out[i] = p.Edge(i)
	}
	return out
}

// crossBrute reports whether some edge of p intersects some edge of q,
// by the plane sweep's all-pairs oracle.
func crossBrute(p, q *geom.Polygon) bool {
	return sweep.CrossIntersectsBrute(edges(p), edges(q))
}

// roundedPair lifts a segment pair into two triangles: s from a to b, and
// t from c to the point a fraction u along s, rounded to the nearest
// float, so that t ends on, or a rounding off, s. P is (a, b) with an apex
// on the side of s's line away from c, Q is (c, its apex, the point on
// s), its apex a quarter turn from t near c. Q's first vertex, c, lies
// away from P, so containment leaves the pair to the edge test. ok is
// false when the pair degenerates (c on s's line, a point segment).
func roundedPair(a, b, c geom.Point, u float64) (p, q *geom.Polygon, ok bool) {
	on := geom.Pt(a.X+u*(b.X-a.X), a.Y+u*(b.Y-a.Y))
	side := geom.Orient(a, b, c)
	if side == geom.Collinear || a == b || on == c {
		return nil, nil, false
	}
	// n is s's normal pointing away from c.
	n := geom.Pt(b.Y-a.Y, a.X-b.X)
	if side == geom.Clockwise {
		n = geom.Pt(-n.X, -n.Y)
	}
	mid := geom.Pt((a.X+b.X)/2, (a.Y+b.Y)/2)
	apexP := geom.Pt(mid.X+n.X, mid.Y+n.Y)
	apexQ := geom.Pt(c.X+(on.Y-c.Y)/4, c.Y-(on.X-c.X)/4)
	if geom.Orient(c, apexQ, on) == geom.Collinear || geom.Orient(a, b, apexP) == geom.Collinear {
		return nil, nil, false
	}
	return geom.MustPolygon(a, b, apexP), geom.MustPolygon(c, apexQ, on), true
}

// checkZero holds the kernel at d = 0 plus containment to the all-pairs
// cross test (sweep.CrossIntersectsBrute) plus containment, and reports
// whether the pair is one the leaves' old test, Segment.DistSq ≤ 0,
// decided the other way. The plane sweep is no oracle here: on such
// pairs sweep.CrossIntersects and the all-pairs test disagree, both ways.
func checkZero(t *testing.T, s *Scratch, p, q *geom.Polygon) (rounded bool) {
	t.Helper()
	contained, cross := sweep.ContainmentPossible(p, q), crossBrute(p, q)
	if got := contained || s.BoundaryWithin(p, q, nil, nil, 0, Options{}); got != (contained || cross) {
		t.Fatalf("P %v, Q %v: kernel at 0 says %v, the cross test %v", p.Verts, q.Verts, got, contained || cross)
	}
	return !contained && (boundaryDistBrute(p, q) == 0) != cross
}

// TestBoundaryWithinZeroIsIntersection: at d = 0 the kernel decides a
// leaf pair by Segment.Intersects, the plane sweep's predicate. On pairs
// whose one endpoint is a rounded point on the other's line, with
// coordinates in ±512, Segment.DistSq's projection often rounds to 0 for
// segments Intersects calls apart; the kernel must side with Intersects
// on every pair, and the family must hold such pairs.
func TestBoundaryWithinZeroIsIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	coord := func() float64 { return (2*rng.Float64() - 1) * 512 }
	var s Scratch
	pairs, rounded := 0, 0
	for range 20000 {
		a, b, c := geom.Pt(coord(), coord()), geom.Pt(coord(), coord()), geom.Pt(coord(), coord())
		p, q, ok := roundedPair(a, b, c, 0.05+0.9*rng.Float64())
		if !ok {
			continue
		}
		pairs++
		if checkZero(t, &s, p, q) {
			rounded++
		}
	}
	t.Logf("%d pairs, %d where DistSq rounds to 0 and the segments do not intersect", pairs, rounded)
	if rounded == 0 {
		t.Fatal("no pair that DistSq and Intersects decide apart; the test is vacuous")
	}
}

// FuzzBoundaryWithinZero is TestBoundaryWithinZeroIsIntersection on
// fuzzer-chosen segment pairs.
func FuzzBoundaryWithinZero(f *testing.F) {
	f.Add(-300.5, 10.25, 411.0, -97.75, 0.3, 12.0, 250.0)
	f.Add(0.1, 0.2, 511.9, 300.3, 0.77, -500.0, 3.0)
	f.Add(-1.0, -1.0, 1.0, 1.0, 0.5, 1.0, -1.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, u, cx, cy float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy} {
			if math.IsNaN(v) || math.Abs(v) > 512 {
				t.Skip()
			}
		}
		if !(u > 0 && u < 1) {
			t.Skip()
		}
		p, q, ok := roundedPair(geom.Pt(ax, ay), geom.Pt(bx, by), geom.Pt(cx, cy), u)
		if !ok {
			t.Skip()
		}
		var s Scratch
		checkZero(t, &s, p, q)
		checkZero(t, &s, q, p)
	})
}
