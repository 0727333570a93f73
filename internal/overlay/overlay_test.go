package overlay

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/geom"
)

func square(x, y, side float64) *geom.Polygon {
	return geom.MustPolygon(
		geom.Pt(x, y), geom.Pt(x+side, y), geom.Pt(x+side, y+side), geom.Pt(x, y+side),
	)
}

func TestIntersectionAreaKnown(t *testing.T) {
	a := square(0, 0, 4)
	cases := []struct {
		name string
		q    *geom.Polygon
		want float64
	}{
		{"half overlap", square(2, 0, 4), 8},
		{"quarter", square(2, 2, 4), 4},
		{"contained", square(1, 1, 2), 4},
		{"identical", square(0, 0, 4), 16},
		{"disjoint", square(10, 10, 2), 0},
		{"edge touch", square(4, 0, 2), 0},
		{"inscribed diamond", geom.MustPolygon(geom.Pt(2, 0), geom.Pt(4, 2), geom.Pt(2, 4), geom.Pt(0, 2)), 8},
		{"containing diamond", geom.MustPolygon(geom.Pt(2, -2), geom.Pt(6, 2), geom.Pt(2, 6), geom.Pt(-2, 2)), 16},
	}
	for _, tc := range cases {
		if got := IntersectionArea(a, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: area = %v, want %v", tc.name, got, tc.want)
		}
		// Symmetry.
		if got := IntersectionArea(tc.q, a); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s (swapped): area = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestConcaveOverlay(t *testing.T) {
	// L-shape vs a square sitting exactly in its notch: zero overlap.
	l := geom.MustPolygon(
		geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 2), geom.Pt(2, 2), geom.Pt(2, 4), geom.Pt(0, 4),
	)
	notch := square(2, 2, 2)
	if got := IntersectionArea(l, notch); got != 0 {
		t.Errorf("notch overlap = %v, want 0", got)
	}
	// A square covering the L entirely.
	if got := IntersectionArea(l, square(-1, -1, 6)); math.Abs(got-l.Area()) > 1e-9 {
		t.Errorf("cover overlap = %v, want %v", got, l.Area())
	}
	// Square overlapping both arms of the L.
	got := IntersectionArea(l, square(1, 1, 2))
	// Overlap region: [1,3]x[1,2] within lower arm gives x∈[1,3]? lower arm
	// is y∈[0,2] x∈[0,4]: overlap [1,3]x[1,2] = 2; left arm x∈[0,2] y∈[2,4]:
	// overlap [1,2]x[2,3] = 1. Total 3.
	if math.Abs(got-3) > 1e-9 {
		t.Errorf("L overlap = %v, want 3", got)
	}
}

func TestOverlayMatchesConvexClip(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	for trial := range 200 {
		a := randomHull(rng, 5, 5, 4)
		b := randomHull(rng, 6+rng.Float64()*3, 5+rng.Float64()*3, 4)
		if a == nil || b == nil {
			continue
		}
		want := 0.0
		if c := geom.ClipConvex(a, b); c != nil {
			want = c.Area()
		}
		got := IntersectionArea(a, b)
		if math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("trial %d: overlay %v vs clip %v", trial, got, want)
		}
	}
}

func TestOverlayMatchesMonteCarloConcave(t *testing.T) {
	rng := rand.New(rand.NewSource(182))
	for trial := range 25 {
		a := star(rng, 10, 10, 6, 8+rng.Intn(30))
		b := star(rng, 12+rng.Float64()*4-2, 10+rng.Float64()*4-2, 6, 8+rng.Intn(30))
		got := IntersectionArea(a, b)
		region := a.Bounds().Intersection(b.Bounds())
		if region.IsEmpty() {
			if got != 0 {
				t.Fatalf("trial %d: disjoint MBRs but area %v", trial, got)
			}
			continue
		}
		mc := monteCarlo(a, b, region, rng, 60000)
		tol := 0.05*region.Area() + 0.2
		if math.Abs(got-mc) > tol {
			t.Fatalf("trial %d: overlay %v vs MC %v (tol %v)", trial, got, mc, tol)
		}
	}
}

func TestOverlayBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(183))
	for range 200 {
		a := star(rng, 10, 10, 5, 5+rng.Intn(20))
		b := star(rng, 13, 11, 5, 5+rng.Intn(20))
		inter := IntersectionArea(a, b)
		if inter < -1e-9 {
			t.Fatalf("negative intersection area %v", inter)
		}
		if inter > math.Min(a.Area(), b.Area())+1e-6 {
			t.Fatalf("intersection %v exceeds inputs %v/%v", inter, a.Area(), b.Area())
		}
	}
}

func monteCarlo(a, b *geom.Polygon, r geom.Rect, rng *rand.Rand, n int) float64 {
	hits := 0
	for range n {
		q := geom.Pt(r.MinX+rng.Float64()*r.Width(), r.MinY+rng.Float64()*r.Height())
		if a.ContainsPoint(q) && b.ContainsPoint(q) {
			hits++
		}
	}
	return r.Area() * float64(hits) / float64(n)
}

func star(rng *rand.Rand, cx, cy, rMax float64, n int) *geom.Polygon {
	step := 2 * math.Pi / float64(n)
	pts := make([]geom.Point, n)
	for i := range pts {
		ang := float64(i)*step + rng.Float64()*step*0.9
		r := rMax * (0.3 + 0.7*rng.Float64())
		pts[i] = geom.Pt(cx+r*math.Cos(ang), cy+r*math.Sin(ang))
	}
	return geom.MustPolygon(pts...)
}

func randomHull(rng *rand.Rand, cx, cy, r float64) *geom.Polygon {
	pts := make([]geom.Point, 14)
	for i := range pts {
		pts[i] = geom.Pt(cx+(rng.Float64()*2-1)*r, cy+(rng.Float64()*2-1)*r)
	}
	return geom.ConvexHull(pts)
}

// intersectionAreaScan is IntersectionArea as it was before the edge
// sweep: every slab scans every edge of both polygons. It is the oracle
// the sweep must match bit for bit.
func intersectionAreaScan(p, q *geom.Polygon) float64 {
	if !p.Bounds().Intersects(q.Bounds()) {
		return 0
	}
	xs := slabBoundaries(p, q)
	var area float64
	var pe, qe []spanEdge
	for i := 0; i+1 < len(xs); i++ {
		x0, x1 := xs[i], xs[i+1]
		if x1 <= x0 {
			continue
		}
		pe = spanningEdgesScan(p, x0, x1, pe[:0])
		if len(pe) == 0 {
			continue
		}
		qe = spanningEdgesScan(q, x0, x1, qe[:0])
		if len(qe) == 0 {
			continue
		}
		area += slabOverlap(pe, qe, x0, x1)
	}
	return area
}

// spanningEdgesScan collects the polygon's edges covering [x0, x1] by
// testing every edge.
func spanningEdgesScan(p *geom.Polygon, x0, x1 float64, dst []spanEdge) []spanEdge {
	for i := range p.NumEdges() {
		e := p.Edge(i)
		ax, bx := e.A.X, e.B.X
		if ax > bx {
			ax, bx = bx, ax
		}
		if ax > x0 || bx < x1 || ax == bx {
			continue
		}
		dst = append(dst, spanAt(e, x0, x1))
	}
	sortSpans(dst)
	return dst
}

// benchPairs returns the MBR-intersecting pairs of LANDC × LANDO at the
// given scale.
func benchPairs(scale float64) [][2]*geom.Polygon {
	a, b := data.MustLoad("LANDC", scale), data.MustLoad("LANDO", scale)
	var pairs [][2]*geom.Polygon
	for _, p := range a.Objects {
		for _, q := range b.Objects {
			if p.Bounds().Intersects(q.Bounds()) {
				pairs = append(pairs, [2]*geom.Polygon{p, q})
			}
		}
	}
	return pairs
}

// TestSweepMatchesScan holds the edge sweep to the per-slab scan it
// replaced, bit for bit, over the bench layers' MBR-intersecting pairs
// and over random stars, hulls and axis-aligned shapes (vertical edges,
// shared x-coordinates).
func TestSweepMatchesScan(t *testing.T) {
	check := func(what string, p, q *geom.Polygon) {
		t.Helper()
		got, want := IntersectionArea(p, q), intersectionAreaScan(p, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: sweep area %v, scan area %v", what, got, want)
		}
	}
	pairs := benchPairs(0.005)
	if len(pairs) == 0 {
		t.Fatal("no MBR-intersecting bench pairs")
	}
	for i, pq := range pairs {
		check(fmt.Sprintf("bench pair %d", i), pq[0], pq[1])
	}
	rng := rand.New(rand.NewSource(185))
	for trial := range 300 {
		a := star(rng, 10, 10, 6, 3+rng.Intn(40))
		b := star(rng, 10+rng.Float64()*8-4, 10+rng.Float64()*8-4, 6, 3+rng.Intn(40))
		check(fmt.Sprintf("stars %d", trial), a, b)
		if h, g := randomHull(rng, 5, 5, 4), randomHull(rng, 6, 6, 4); h != nil && g != nil {
			check(fmt.Sprintf("hulls %d", trial), h, g)
		}
		s1 := square(float64(rng.Intn(4)), float64(rng.Intn(4)), float64(1+rng.Intn(4)))
		check(fmt.Sprintf("squares %d", trial), s1, square(float64(rng.Intn(4)), float64(rng.Intn(4)), float64(1+rng.Intn(4))))
		l := geom.MustPolygon(
			geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 2), geom.Pt(2, 2), geom.Pt(2, 4), geom.Pt(0, 4),
		)
		check(fmt.Sprintf("L-shape %d", trial), l, s1)
	}
}

// areaSink keeps the benchmarked areas live.
var areaSink float64

// BenchmarkOverlay times the overlay area of every MBR-intersecting
// LANDC × LANDO pair at scale 0.01, one pass a loop — the work of the
// overlay verb's refine step over the bench layers — with the edge sweep
// and, beside it, the per-slab scan it replaced.
func BenchmarkOverlay(b *testing.B) {
	pairs := benchPairs(0.01)
	for _, bc := range []struct {
		name string
		area func(p, q *geom.Polygon) float64
	}{{"sweep", IntersectionArea}, {"scan", intersectionAreaScan}} {
		b.Run(bc.name, func(b *testing.B) {
			for range b.N {
				for _, pq := range pairs {
					areaSink += bc.area(pq[0], pq[1])
				}
			}
			b.ReportMetric(float64(len(pairs)), "pairs")
		})
	}
}

func BenchmarkIntersectionArea(b *testing.B) {
	rng := rand.New(rand.NewSource(184))
	p := star(rng, 0, 0, 10, 300)
	q := star(rng, 3, 2, 10, 300)
	b.ResetTimer()
	for range b.N {
		IntersectionArea(p, q)
	}
}
