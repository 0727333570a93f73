package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/edgeindex"
	"repro/internal/geom"
	"repro/internal/sweep"
)

// The two exact kernels every driver funnels into — the squared-space
// chain-distance kernel (internal/dist) and the ray-crossing
// point-in-polygon test (internal/geom, internal/edgeindex) — checked
// against their oracles: dist.MinDistBrute, the all-pairs distance with no
// pruning, and the linear ContainsPoint this kernel replaced, kept below
// as containsPointOracle. The inputs are seeded blobs at the sizes that
// reach each code path (un-indexed chains, indexed chains short and long)
// and an adversarial family on exactly representable
// coordinates: boundaries at exactly distance d, touching at vertices,
// sharing collinear edges, horizontal edges and vertices on the query ray.

// containsPointOracle is the linear point-in-polygon test the kernel
// replaced: orientation and on-segment first, on every edge, then the
// crossing count.
func containsPointOracle(p *geom.Polygon, q geom.Point) bool {
	if !p.Bounds().ContainsPoint(q) {
		return false
	}
	inside := false
	n := len(p.Verts)
	for i := range n {
		a, b := p.Verts[i], p.Verts[(i+1)%n]
		if geom.Orient(a, b, q) == geom.Collinear &&
			min(a.X, b.X) <= q.X && q.X <= max(a.X, b.X) && min(a.Y, b.Y) <= q.Y && q.Y <= max(a.Y, b.Y) {
			return true
		}
		if (a.Y > q.Y) != (b.Y > q.Y) {
			if xc := a.X + (q.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y); xc > q.X {
				inside = !inside
			}
		}
	}
	return inside
}

// stairs returns the staircase polygon of n unit steps scaled by unit, with
// its lower-left corner at (x, y): the region above the stair path
// (x,y)→(x+u,y)→(x+u,y+u)→…→(x+nu,y+nu), closed through (x, y+nu). Every
// edge is axis-parallel; with unit a power of two all coordinates and
// distances are exact.
func stairs(x, y, unit float64, n int) *geom.Polygon {
	pts := make([]geom.Point, 0, 2*n+2)
	for k := range n {
		f := float64(k) * unit
		pts = append(pts, geom.Pt(x+f, y+f), geom.Pt(x+f+unit, y+f))
	}
	top := float64(n) * unit
	pts = append(pts, geom.Pt(x+top, y+top), geom.Pt(x, y+top))
	return geom.MustPolygon(pts...)
}

// understairs returns the complement of stairs(x, y, unit, n) in its
// square, moved by (dx, dy): at (0, 0) the two share the whole stair path,
// at (t, -t) with 0 < t ≤ unit the stair paths run at distance exactly t
// along all 2n steps, at (unit, 0) every step corner of one touches a step
// corner of the other, and at (-t, t) they overlap.
func understairs(x, y, unit float64, n int, dx, dy float64) *geom.Polygon {
	x, y = x+dx, y+dy
	pts := make([]geom.Point, 0, 2*n)
	pts = append(pts, geom.Pt(x+unit, y), geom.Pt(x+float64(n)*unit, y))
	for k := n - 1; k > 0; k-- {
		f := float64(k) * unit
		pts = append(pts, geom.Pt(x+f+unit, y+f), geom.Pt(x+f, y+f))
	}
	return geom.MustPolygon(pts...)
}

type kernelPair struct {
	name string
	p, q *geom.Polygon
}

func adversarialPairs() []kernelPair {
	var out []kernelPair
	add := func(name string, p, q *geom.Polygon) { out = append(out, kernelPair{name, p, q}) }
	add("squares/axis-gap-2", square(0, 0, 1), square(3, 0, 1))
	add("squares/3-4-5-corner-gap", square(0, 0, 1), square(4, 5, 1))
	add("squares/touch-at-vertex", square(0, 0, 1), square(1, 1, 1))
	add("squares/share-edge", square(0, 0, 1), square(1, 0, 1))
	add("rects/collinear-edge-overlap", geom.MustPolygon(geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, 1), geom.Pt(0, 1)),
		geom.MustPolygon(geom.Pt(1, 1), geom.Pt(3, 1), geom.Pt(3, 2), geom.Pt(1, 2)))
	add("squares/contained", square(0, 0, 8), square(2, 2, 1))
	for _, n := range []int{3, 16, 48} { // 8, 34 and 98 edges: un-indexed, indexed, long
		for _, unit := range []float64{1, 0.25} {
			a := stairs(0, 0, unit, n)
			for _, t := range []float64{unit / 4, unit / 2, unit} {
				add(fmt.Sprintf("stairs/n%d/u%g/apart-%g", n, unit, t), a, understairs(0, 0, unit, n, t, -t))
			}
			add(fmt.Sprintf("stairs/n%d/u%g/shared-path", n, unit), a, understairs(0, 0, unit, n, 0, 0))
			add(fmt.Sprintf("stairs/n%d/u%g/corners-touch", n, unit), a, understairs(0, 0, unit, n, unit, 0))
			add(fmt.Sprintf("stairs/n%d/u%g/overlap", n, unit), a, understairs(0, 0, unit, n, -unit/2, unit/2))
			add(fmt.Sprintf("stairs/n%d/u%g/far", n, unit), a, understairs(0, 0, unit, n, 3*unit*float64(n), 0))
		}
	}
	return out
}

func blobPairs(t *testing.T) []kernelPair {
	rng := rand.New(rand.NewSource(14))
	var out []kernelPair
	for i, sz := range [][2]int{{8, 12}, {20, 200}, {300, 16}, {400, 500}, {120, 90}, {700, 60}} {
		for j := range 6 {
			r1, r2 := 1+rng.Float64()*3, 1+rng.Float64()*3
			// Centers from overlapping to a few radii apart.
			gap := (r1 + r2) * (0.4 + 0.4*float64(j))
			ang := rng.Float64() * 2 * math.Pi
			p, err := data.ShapedBlob(rng, geom.Pt(50, 50), r1, sz[0], 1+rng.Float64()*3)
			if err != nil {
				t.Fatal(err)
			}
			q, err := data.ShapedBlob(rng, geom.Pt(50+gap*math.Cos(ang), 50+gap*math.Sin(ang)), r2, sz[1], 1+rng.Float64()*3)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, kernelPair{fmt.Sprintf("blobs/%d-%d", i, j), p, q})
		}
	}
	return out
}

// distancesFor returns the query distances worth asking for a pair whose
// brute-force distance is d0: exactly d0 and its two float neighbours,
// zero, and clearly inside and outside.
func distancesFor(d0 float64) []float64 {
	ds := []float64{0, d0, d0 / 2, 2*d0 + 0.5}
	if d0 > 0 {
		ds = append(ds, math.Nextafter(d0, 0), math.Nextafter(d0, math.Inf(1)))
	}
	return ds
}

// indexConfigs returns the edge-index configurations a pair can arrive
// with: none, built by edgeindex.New, rebuilt from its flattened boxes as a
// snapshot does, and another polygon's index, which the kernel must ignore.
// Mixed sides are included.
func indexConfigs(p, q *geom.Polygon) []PairContext {
	pix, qix := edgeindex.New(p), edgeindex.New(q)
	flat := func(ix *edgeindex.Index) *edgeindex.Index {
		back, ok := edgeindex.FromFlatBoxes(ix.Polygon(), ix.FlatBoxes())
		if !ok {
			panic("FromFlatBoxes rejected FlatBoxes")
		}
		return back
	}
	return []PairContext{
		{},
		{PIndex: pix, QIndex: qix},
		{PIndex: flat(pix), QIndex: flat(qix)},
		{PIndex: qix, QIndex: pix},
		{PIndex: pix},
		{QIndex: flat(qix)},
		{PIndex: qix, QIndex: qix},
	}
}

func TestKernelsDistanceDifferential(t *testing.T) {
	for _, pr := range append(adversarialPairs(), blobPairs(t)...) {
		t.Run(pr.name, func(t *testing.T) {
			// Both argument orders, and clockwise chains.
			for _, sides := range [][2]*geom.Polygon{{pr.p, pr.q}, {pr.q, pr.p}, {reversed(pr.p), pr.q}, {reversed(pr.q), reversed(pr.p)}} {
				p, q := sides[0], sides[1]
				d0, b0 := dist.MinDistBrute(p, q), boundaryDistBrute(p, q)
				if got := dist.MinDist(p, q); got != d0 {
					t.Fatalf("MinDist = %v, brute %v", got, d0)
				}
				sw := NewTester(Config{DisableHardware: true})
				hw := NewTester(Config{Resolution: 8}) // SWThreshold 0: always the hardware path
				var s dist.Scratch
				ctxs := indexConfigs(p, q)
				for _, d := range append(distancesFor(d0), distancesFor(b0)...) {
					want := d0 <= d
					if got := dist.WithinDistance(p, q, d, dist.Options{}); got != want {
						t.Fatalf("d=%v: dist.WithinDistance = %v, brute distance %v", d, got, d0)
					}
					for ci, pc := range ctxs {
						if got := sw.WithinDistanceCtx(p, q, d, pc); got != want {
							t.Fatalf("d=%v ctx %d: software tester = %v, brute distance %v", d, ci, got, d0)
						}
						if got := hw.WithinDistanceCtx(p, q, d, pc); got != want {
							t.Fatalf("d=%v ctx %d: hardware tester = %v, brute distance %v", d, ci, got, d0)
						}
						// The raw kernel measures boundaries, crossings
						// included: it is the brute boundary distance
						// thresholded, which is the region verdict once
						// containment is excluded.
						if got := s.BoundaryWithin(p, q, pc.PIndex, pc.QIndex, d, dist.Options{}); got != (b0 <= d) {
							t.Fatalf("d=%v ctx %d: BoundaryWithin = %v, brute boundary distance %v", d, ci, got, b0)
						}
					}
				}
			}
		})
	}
}

// boundaryDistBrute is the distance between the boundaries of p and q over
// all edge pairs: dist.MinDistBrute without its region step.
func boundaryDistBrute(p, q *geom.Polygon) float64 {
	best := math.Inf(1)
	for i := range p.NumEdges() {
		for j := range q.NumEdges() {
			best = min(best, p.Edge(i).DistSq(q.Edge(j)))
		}
	}
	return math.Sqrt(best)
}

// TestWithinKernelOnBenchPairs holds the software tester to the oracle on
// the benchmark's own within workload: every WATER⋈PRISM candidate at MBR
// distance ≤ d, with the edge indexes and signatures loaded from
// snapshots, at four distances.
func TestWithinKernelOnBenchPairs(t *testing.T) {
	ds := []float64{0, 0.5, benchD, 5}
	pairs := benchPairs(t, ds[len(ds)-1])
	tester := NewTester(Config{DisableHardware: true})
	for i, pr := range pairs {
		d0 := dist.MinDistBrute(pr.p, pr.q)
		for _, d := range ds {
			if pr.p.Bounds().DistSq(pr.q.Bounds()) > geom.SqBound(d) {
				continue // not a candidate at d
			}
			if got := tester.WithinDistanceCtx(pr.p, pr.q, d, pr.pc); got != (d0 <= d) {
				t.Fatalf("pair %d (%d and %d vertices) d=%v: tester = %v, brute distance %v",
					i, pr.p.NumVerts(), pr.q.NumVerts(), d, got, d0)
			}
		}
	}
}

// TestKernelsKnownDistances pins the adversarial family's geometry itself,
// so the differential above cannot pass on two kernels agreeing about the
// wrong shapes.
func TestKernelsKnownDistances(t *testing.T) {
	for _, tc := range []struct {
		p, q *geom.Polygon
		want float64
	}{
		{square(0, 0, 1), square(3, 0, 1), 2},
		{square(0, 0, 1), square(4, 5, 1), 5},
		{square(0, 0, 1), square(1, 1, 1), 0},
		{stairs(0, 0, 1, 16), understairs(0, 0, 1, 16, 0.5, -0.5), 0.5},
		{stairs(0, 0, 0.25, 48), understairs(0, 0, 0.25, 48, 0.25, -0.25), 0.25},
		{stairs(0, 0, 1, 16), understairs(0, 0, 1, 16, 1, 0), 0},
		{stairs(0, 0, 1, 16), understairs(0, 0, 1, 16, 0, 0), 0},
		{stairs(0, 0, 1, 16), understairs(0, 0, 1, 16, -0.5, 0.5), 0},
	} {
		if got := dist.MinDistBrute(tc.p, tc.q); got != tc.want {
			t.Errorf("brute distance %v, want %v", got, tc.want)
		}
	}
	a, b := stairs(0, 0, 0.25, 48), understairs(0, 0, 0.25, 48, 0, 0)
	if !a.IsSimple() || !b.IsSimple() || a.Area()+b.Area() != 12*12 {
		t.Errorf("stairs and understairs do not tile their square: areas %v + %v", a.Area(), b.Area())
	}
}

func TestKernelsContainsPointDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var polys []*geom.Polygon
	for _, n := range []int{3, 16, 48} {
		polys = append(polys, stairs(0, 0, 1, n), understairs(0, 0, 1, n, 0, 0), stairs(-3, 2, 0.25, n))
	}
	// A comb: long horizontal edges on many ray lines, teeth whose tips are
	// vertices the ray passes through.
	var comb []geom.Point
	for k := range 20 {
		f := float64(2 * k)
		comb = append(comb, geom.Pt(f, 0), geom.Pt(f+1, 3), geom.Pt(f+2, 0))
	}
	comb = append(comb, geom.Pt(40, -2), geom.Pt(0, -2))
	polys = append(polys, geom.MustPolygon(dedupe(comb)...))
	for _, n := range []int{5, 23, 24, 200, 1000} {
		b, err := data.ShapedBlob(rng, geom.Pt(10, 10), 4, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		polys = append(polys, b, star(rng, 3, 3, 5, n))
	}

	for pi, p := range polys {
		ix := edgeindex.New(p)
		check := func(q geom.Point) {
			t.Helper()
			want := containsPointOracle(p, q)
			if got := p.ContainsPoint(q); got != want {
				t.Fatalf("polygon %d (%d edges) point %v: ContainsPoint = %v, oracle %v", pi, p.NumEdges(), q, got, want)
			}
			if got := ix.ContainsPoint(q); got != want {
				t.Fatalf("polygon %d (%d edges, indexed %v) point %v: Index.ContainsPoint = %v, oracle %v",
					pi, p.NumEdges(), ix.Indexed(), q, got, want)
			}
		}
		mbr := p.Bounds()
		// Every vertex and edge midpoint (on the boundary), and the points
		// level with each vertex on either side of it and of the polygon:
		// their rays run through vertices and along horizontal edges.
		for i, v := range p.Verts {
			check(v)
			e := p.Edge(i)
			check(geom.Pt((e.A.X+e.B.X)/2, (e.A.Y+e.B.Y)/2))
			for _, x := range []float64{mbr.MinX - 1, mbr.MinX, v.X - 0.125, v.X + 0.125, mbr.MaxX, mbr.MaxX + 1} {
				check(geom.Pt(x, v.Y))
			}
		}
		// A quarter-unit lattice over the MBR and one cell beyond it.
		if mbr.Width() <= 64 {
			for x := math.Floor(mbr.MinX) - 1; x <= mbr.MaxX+1; x += 0.25 {
				for y := math.Floor(mbr.MinY) - 1; y <= mbr.MaxY+1; y += 0.25 {
					check(geom.Pt(x, y))
				}
			}
		}
		for range 500 {
			check(geom.Pt(mbr.MinX+rng.Float64()*mbr.Width(), mbr.MinY+rng.Float64()*mbr.Height()))
		}
	}
}

// reversed returns p with its vertices in the opposite order.
func reversed(p *geom.Polygon) *geom.Polygon {
	rev := make([]geom.Point, len(p.Verts))
	for i, v := range p.Verts {
		rev[len(rev)-1-i] = v
	}
	return geom.MustPolygon(rev...)
}

// dedupe drops a point equal to its predecessor.
func dedupe(pts []geom.Point) []geom.Point {
	out := pts[:1]
	for _, p := range pts[1:] {
		if !p.Eq(out[len(out)-1]) {
			out = append(out, p)
		}
	}
	return out
}

// TestKernelsContainmentThroughIndex pins the filter stage: the verdict
// and the resolution counters are the same whichever sides carry an index.
func TestKernelsContainmentThroughIndex(t *testing.T) {
	for _, pr := range append(adversarialPairs(), blobPairs(t)...) {
		pix, qix := edgeindex.New(pr.p), edgeindex.New(pr.q)
		want := sweep.ContainmentPossible(pr.p, pr.q)
		for ci, pc := range []PairContext{{}, {PIndex: pix}, {QIndex: qix}, {PIndex: pix, QIndex: qix}, {PIndex: qix, QIndex: pix}} {
			if got := containmentPossible(pr.p, pr.q, pc); got != want {
				t.Fatalf("%s ctx %d: containmentPossible = %v, sweep.ContainmentPossible %v", pr.name, ci, got, want)
			}
		}
	}
}
