package interval_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/interval"
)

func TestHilbertBijection(t *testing.T) {
	for _, order := range []int{2, 3, 5} {
		n := uint32(1) << order
		seen := make([]bool, n*n)
		for y := uint32(0); y < n; y++ {
			for x := uint32(0); x < n; x++ {
				d := interval.D(order, x, y)
				if d >= n*n {
					t.Fatalf("order %d: D(%d,%d) = %d out of range", order, x, y, d)
				}
				if seen[d] {
					t.Fatalf("order %d: index %d hit twice", order, d)
				}
				seen[d] = true
				if rx, ry := interval.XY(order, d); rx != x || ry != y {
					t.Fatalf("order %d: XY(D(%d,%d)) = (%d,%d)", order, x, y, rx, ry)
				}
			}
		}
	}
}

// hilbertD and hilbertXY are the rotate-and-reflect loops D and XY
// replaced, kept as their oracle.
func hilbertD(order int, x, y uint32) uint32 {
	var d uint32
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s != 0 {
			rx = 1
		}
		if y&s != 0 {
			ry = 1
		}
		d += s * s * ((3 * rx) ^ ry)
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

func hilbertXY(order int, d uint32) (x, y uint32) {
	t := d
	for s := uint32(1); s < uint32(1)<<order; s <<= 1 {
		rx := (t / 2) & 1
		ry := (t ^ rx) & 1
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
		x += s * rx
		y += s * ry
		t /= 4
	}
	return
}

// TestHilbertMatchesOracle holds the table forms of D and XY to the loops
// on every cell of every grid of order 2–10.
func TestHilbertMatchesOracle(t *testing.T) {
	for order := 2; order <= 10; order++ {
		n := uint32(1) << order
		for y := uint32(0); y < n; y++ {
			for x := uint32(0); x < n; x++ {
				if got, want := interval.D(order, x, y), hilbertD(order, x, y); got != want {
					t.Fatalf("order %d: D(%d, %d) = %d, the loop gives %d", order, x, y, got, want)
				}
			}
		}
		for d := uint32(0); d < n*n; d++ {
			gx, gy := interval.XY(order, d)
			if wx, wy := hilbertXY(order, d); gx != wx || gy != wy {
				t.Fatalf("order %d: XY(%d) = (%d, %d), the loop gives (%d, %d)", order, d, gx, gy, wx, wy)
			}
		}
	}
}

// FuzzHilbert holds D and XY to the loops on any cell of a grid of order
// 1–15, and XY to inverting D.
func FuzzHilbert(f *testing.F) {
	f.Add(uint8(2), uint32(1), uint32(3))
	f.Add(uint8(15), uint32(1<<15-1), uint32(0))
	f.Add(uint8(12), uint32(2741), uint32(4000))
	f.Fuzz(func(t *testing.T, o uint8, x, y uint32) {
		order := 1 + int(o)%interval.MaxOrder
		mask := uint32(1)<<order - 1
		x, y = x&mask, y&mask
		d := interval.D(order, x, y)
		if want := hilbertD(order, x, y); d != want {
			t.Fatalf("order %d: D(%d, %d) = %d, the loop gives %d", order, x, y, d, want)
		}
		gx, gy := interval.XY(order, d)
		if gx != x || gy != y {
			t.Fatalf("order %d: XY(D(%d, %d)) = (%d, %d)", order, x, y, gx, gy)
		}
		if wx, wy := hilbertXY(order, d); gx != wx || gy != wy {
			t.Fatalf("order %d: XY(%d) = (%d, %d), the loop gives (%d, %d)", order, d, gx, gy, wx, wy)
		}
	})
}

func TestHilbertAdjacency(t *testing.T) {
	// Consecutive Hilbert indexes are 4-adjacent cells — the property
	// that makes compact objects collapse into few interval runs.
	const order = 4
	n := uint32(1) << order
	for d := uint32(0); d+1 < n*n; d++ {
		x0, y0 := interval.XY(order, d)
		x1, y1 := interval.XY(order, d+1)
		dx := math.Abs(float64(x0) - float64(x1))
		dy := math.Abs(float64(y0) - float64(y1))
		if dx+dy != 1 {
			t.Fatalf("indexes %d and %d map to non-adjacent cells (%d,%d) (%d,%d)", d, d+1, x0, y0, x1, y1)
		}
	}
}

func TestFitSquare(t *testing.T) {
	cases := []geom.Rect{
		geom.R(0, 0, 560, 360),
		geom.R(3.5, 1.25, 470, 358),
		geom.R(140, 0, 280, 180),
		geom.R(280, 180, 420, 360),
		geom.R(-17, -250, 9, 4),
		geom.R(5, 5, 5.25, 5.125),
	}
	for _, r := range cases {
		mnx, mny, size, ok := interval.FitSquare(r)
		if !ok {
			t.Fatalf("FitSquare(%v) failed", r)
		}
		if _, f := math.Frexp(size); f != math.Ilogb(size)+1 || size != math.Exp2(math.Floor(math.Log2(size))) {
			t.Errorf("FitSquare(%v): side %v not a power of two", r, size)
		}
		if math.Mod(mnx, size/2) != 0 || math.Mod(mny, size/2) != 0 {
			t.Errorf("FitSquare(%v): anchor (%v,%v) not on the half-side lattice of %v", r, mnx, mny, size)
		}
		if r.MinX < mnx || r.MinY < mny || r.MaxX > mnx+size || r.MaxY > mny+size {
			t.Errorf("FitSquare(%v): square (%v,%v)+%v does not contain it", r, mnx, mny, size)
		}
	}
	// Two layers over the same domain must land on the same square.
	a, _, sa, _ := interval.FitSquare(geom.R(2, 3, 551, 359))
	b, _, sb, _ := interval.FitSquare(geom.R(0.5, 1, 559, 340))
	if a != b || sa != sb {
		t.Fatalf("same-domain layers got different squares: (%v,%v) vs (%v,%v)", a, sa, b, sb)
	}
	if _, _, _, ok := interval.FitSquare(geom.Rect{MinX: 1, MaxX: 0}); ok {
		t.Fatal("FitSquare accepted an empty rect")
	}
	if _, _, _, ok := interval.FitSquare(geom.R(0, 0, math.Inf(1), 1)); ok {
		t.Fatal("FitSquare accepted a non-finite rect")
	}
}

// loadGrid builds a shared grid over two datasets the way the query
// layer does: canonical square of the union, finest preferred order.
func loadGrid(t *testing.T, da, db *data.Dataset) interval.Grid {
	t.Helper()
	ba, ea := interval.ObjectStats(da.Objects)
	bb, eb := interval.ObjectStats(db.Objects)
	mnx, mny, size, ok := interval.FitSquare(ba.Union(bb))
	if !ok {
		t.Fatal("FitSquare failed on dataset bounds")
	}
	order := max(interval.ChooseOrder(size, ea), interval.ChooseOrder(size, eb))
	return interval.Grid{MinX: mnx, MinY: mny, Size: size, Order: order}
}

// run decodes run i of s by the persisted packing Spans documents: lo in
// bits 32..63, hi in bits 1..30, the certain flag in bit 31 and the full
// flag in bit 0.
func run(s interval.Spans, i int) (lo, hi uint32, full, certain bool) {
	return uint32(s[i] >> 32), uint32(s[i]>>1) & 0x3fffffff, s[i]&1 != 0, s[i]>>31&1 != 0
}

func TestRasterizeSoundness(t *testing.T) {
	d := data.MustLoad("LANDC", 0.005)
	g, ok := interval.GridFor(d.Objects, 0)
	if !ok {
		t.Fatal("GridFor failed")
	}
	cs := g.CellSize()
	cellOf := func(pt geom.Point) (uint32, bool) {
		x := int(math.Floor((pt.X - g.MinX) / cs))
		y := int(math.Floor((pt.Y - g.MinY) / cs))
		if x < 0 || y < 0 || x >= g.Cells() || y >= g.Cells() {
			return 0, false
		}
		return interval.D(g.Order, uint32(x), uint32(y)), true
	}
	contains := func(s interval.Spans, id uint32) (bool, bool) {
		for i := range s {
			lo, hi, full, _ := run(s, i)
			if id >= lo && id <= hi {
				return true, full
			}
		}
		return false, false
	}
	fullSeen := 0
	for _, p := range d.Objects {
		s := interval.Rasterize(p, g)
		if s == nil {
			continue
		}
		if err := s.Validate(g.Order); err != nil {
			t.Fatalf("Rasterize produced invalid spans: %v", err)
		}
		// Coverage: every boundary vertex and edge midpoint must land in
		// a covered cell (points on cell borders may legitimately sit in
		// the neighbor; skip those to keep the check exact).
		for i := 0; i < p.NumEdges(); i++ {
			e := p.Edge(i)
			for _, pt := range []geom.Point{e.A, geom.Pt((e.A.X+e.B.X)/2, (e.A.Y+e.B.Y)/2)} {
				fx := (pt.X - g.MinX) / cs
				fy := (pt.Y - g.MinY) / cs
				if math.Abs(fx-math.Round(fx)) < 1e-9 || math.Abs(fy-math.Round(fy)) < 1e-9 {
					continue
				}
				id, ok := cellOf(pt)
				if !ok {
					t.Fatalf("boundary point %v off grid", pt)
				}
				if in, _ := contains(s, id); !in {
					t.Fatalf("boundary point %v (cell %d) not covered", pt, id)
				}
			}
		}
		// Full labels are exact: sampled points of every full cell lie
		// inside the polygon's closed region.
		for i := range s {
			lo, hi, full, _ := run(s, i)
			if !full {
				continue
			}
			for id := lo; id <= hi; id++ {
				x, y := interval.XY(g.Order, id)
				for _, frac := range [][2]float64{{0.5, 0.5}, {0.05, 0.05}, {0.95, 0.05}, {0.05, 0.95}, {0.95, 0.95}} {
					pt := geom.Pt(g.MinX+(float64(x)+frac[0])*cs, g.MinY+(float64(y)+frac[1])*cs)
					if !p.ContainsPoint(pt) {
						t.Fatalf("full cell %d point %v outside polygon", id, pt)
					}
				}
				fullSeen++
			}
		}
	}
	if fullSeen == 0 {
		t.Fatal("no full cells at all — interior labeling is not firing")
	}
}

func TestCompareAgainstExact(t *testing.T) {
	da := data.MustLoad("LANDC", 0.01)
	db := data.MustLoad("LANDO", 0.01)
	g := loadGrid(t, da, db)
	sa := make([]interval.Spans, len(da.Objects))
	for i, p := range da.Objects {
		sa[i] = interval.Rasterize(p, g)
	}
	sb := make([]interval.Spans, len(db.Objects))
	for i, p := range db.Objects {
		sb[i] = interval.Rasterize(p, g)
	}
	exact := core.NewTester(core.Config{DisableHardware: true})
	var hits, rejects, inconclusive, intersecting int
	for i, pa := range da.Objects {
		for j, pb := range db.Objects {
			if !pa.Bounds().Intersects(pb.Bounds()) {
				continue
			}
			truth := exact.Intersects(pa, pb)
			if truth {
				intersecting++
			}
			switch interval.Compare(sa[i], sb[j]) {
			case interval.TrueHit:
				hits++
				if !truth {
					t.Fatalf("false true-hit: LANDC %d vs LANDO %d do not intersect", i, j)
				}
			case interval.Reject:
				rejects++
				if truth {
					t.Fatalf("false reject: LANDC %d vs LANDO %d intersect", i, j)
				}
			default:
				inconclusive++
			}
		}
	}
	t.Logf("pairs: %d intersecting, %d true hits, %d rejects, %d inconclusive",
		intersecting, hits, rejects, inconclusive)
	if hits == 0 || rejects == 0 {
		t.Fatalf("filter is inert: %d hits, %d rejects", hits, rejects)
	}
	if hits*2 < intersecting {
		t.Errorf("true hits %d below half the %d intersecting pairs on the dominant workload", hits, intersecting)
	}
}

func TestCompareEdgeCases(t *testing.T) {
	mk := func(runs ...[3]uint32) interval.Spans {
		// Build via Rasterize-free path: pack through Validate round trip
		// using the exported test helper shape.
		s := make(interval.Spans, 0, len(runs))
		for _, r := range runs {
			v := uint64(r[0])<<32 | uint64(r[1])<<1
			if r[2] != 0 {
				v |= 1
			}
			s = append(s, v)
		}
		return s
	}
	if v := interval.Compare(nil, mk([3]uint32{0, 5, 1})); v != interval.Inconclusive {
		t.Fatalf("nil side: %v", v)
	}
	if v := interval.Compare(mk([3]uint32{0, 5, 0}), mk([3]uint32{6, 9, 1})); v != interval.Reject {
		t.Fatalf("disjoint: %v", v)
	}
	if v := interval.Compare(mk([3]uint32{0, 5, 0}), mk([3]uint32{5, 9, 0})); v != interval.Inconclusive {
		t.Fatalf("partial overlap: %v", v)
	}
	if v := interval.Compare(mk([3]uint32{0, 5, 1}), mk([3]uint32{5, 9, 1})); v != interval.TrueHit {
		t.Fatalf("full/full overlap: %v", v)
	}
	if v := interval.Compare(mk([3]uint32{0, 5, 1}), mk([3]uint32{5, 9, 0})); v != interval.Inconclusive {
		t.Fatalf("full/partial overlap: %v", v)
	}
	certain := func(s interval.Spans) interval.Spans {
		for i := range s {
			s[i] |= 1 << 31
		}
		return s
	}
	if v := interval.Compare(mk([3]uint32{0, 5, 1}), certain(mk([3]uint32{5, 9, 0}))); v != interval.TrueHit {
		t.Fatalf("full/certain overlap: %v", v)
	}
	if v := interval.Compare(certain(mk([3]uint32{0, 5, 0})), mk([3]uint32{5, 9, 1})); v != interval.TrueHit {
		t.Fatalf("certain/full overlap: %v", v)
	}
	if v := interval.Compare(certain(mk([3]uint32{0, 5, 0})), certain(mk([3]uint32{5, 9, 0}))); v != interval.Inconclusive {
		t.Fatalf("certain/certain overlap: %v", v)
	}
	if v := interval.Compare(mk([3]uint32{0, 4, 1}), certain(mk([3]uint32{5, 9, 0}))); v != interval.Reject {
		t.Fatalf("full beside certain: %v", v)
	}
	// Mixed: partial overlap first, then a full/full match later.
	a := mk([3]uint32{0, 3, 0}, [3]uint32{10, 12, 1})
	b := mk([3]uint32{2, 4, 0}, [3]uint32{11, 11, 1})
	if v := interval.Compare(a, b); v != interval.TrueHit {
		t.Fatalf("late full/full: %v", v)
	}
}

func TestValidate(t *testing.T) {
	pack := func(lo, hi uint32, full bool) uint64 {
		v := uint64(lo)<<32 | uint64(hi)<<1
		if full {
			v |= 1
		}
		return v
	}
	good := interval.Spans{pack(1, 4, false), pack(6, 6, true), pack(7, 9, false), pack(10, 12, false) | 1<<31, pack(13, 13, false)}
	if err := good.Validate(4); err != nil {
		t.Fatalf("valid spans rejected: %v", err)
	}
	bad := []interval.Spans{
		{pack(5, 2, false)},                    // inverted
		{pack(0, 256, false)},                  // beyond 4^4 cells
		{pack(4, 8, false), pack(2, 3, false)}, // unsorted
		{pack(0, 5, false), pack(5, 9, true)},  // overlapping
		{pack(1, 4, true) | 1<<31},             // full and certain
		{pack(1, 1<<29, false) | 1<<31},        // certain, beyond the grid
	}
	for i, s := range bad {
		if err := s.Validate(4); err == nil {
			t.Fatalf("bad spans %d accepted", i)
		}
	}
}

// spanCounts returns each object's span count, as a snapshot persists them.
func spanCounts(col *interval.Column) []uint32 {
	counts := make([]uint32, col.Len())
	for i := range counts {
		counts[i] = uint32(len(col.Spans(i)))
	}
	return counts
}

func TestColumnRoundTrip(t *testing.T) {
	d := data.MustLoad("LANDO", 0.005)
	g, ok := interval.GridFor(d.Objects, 0)
	if !ok {
		t.Fatal("GridFor failed")
	}
	col := interval.Build(d.Objects, g)
	if col.Len() != len(d.Objects) {
		t.Fatalf("column has %d objects, want %d", col.Len(), len(d.Objects))
	}
	rt, err := interval.FromParts(g, spanCounts(col), col.Data())
	if err != nil {
		t.Fatalf("FromParts rejected a built column: %v", err)
	}
	for i := range d.Objects {
		a, b := col.Spans(i), rt.Spans(i)
		if len(a) != len(b) {
			t.Fatalf("object %d: %d vs %d spans after round trip", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("object %d span %d differs", i, j)
			}
		}
	}
	// Corrupt counts must fail closed.
	counts := spanCounts(col)
	if len(counts) > 0 {
		counts[0]++
		if _, err := interval.FromParts(g, counts, col.Data()); err == nil {
			t.Fatal("FromParts accepted inconsistent counts")
		}
	}
}

// TestRasterizeFarVertices: a polygon reaching far past the grid — a
// vertex more cells out than an int holds — rasterizes, and soundly: every
// cell its in-grid boundary crosses and every cell inside is covered.
func TestRasterizeFarVertices(t *testing.T) {
	g := interval.Grid{Size: 32, Order: 5} // 1×1 cells
	covered := func(s interval.Spans, x, y uint32) bool {
		id := interval.D(g.Order, x, y)
		for i := range s {
			if lo, hi, _, _ := run(s, i); lo <= id && id <= hi {
				return true
			}
		}
		return false
	}
	for _, far := range []float64{-1e30, -7e19, 7e19, 1e300} {
		// A 10-cell-high band from x = far to x = 20.5 (or from 10.5 to far).
		lo, hi := far, 20.5
		if far > 0 {
			lo, hi = 10.5, far
		}
		p := geom.MustPolygon(geom.Pt(lo, 10.5), geom.Pt(hi, 10.5), geom.Pt(hi, 20.5), geom.Pt(lo, 20.5))
		s := interval.Rasterize(p, g)
		if err := s.Validate(g.Order); err != nil {
			t.Fatalf("far %g: %v", far, err)
		}
		for x := uint32(max(lo, 0)); x <= uint32(min(hi, 31)); x++ {
			for y := uint32(10); y <= 20; y++ {
				if !covered(s, x, y) {
					t.Fatalf("far %g: cell (%d,%d) of the band not covered", far, x, y)
				}
			}
		}
	}
	// On a fine grid both ends of an edge overflow to +Inf in cell units,
	// leaving the walk no extent to interpolate.
	g = interval.Grid{Size: 1, Order: 8}
	s := interval.Rasterize(geom.MustPolygon(geom.Pt(0.5, 0.5), geom.Pt(1e308, 0.5), geom.Pt(1e308, 1e308)), g)
	if err := s.Validate(g.Order); err != nil || !covered(s, 128, 128) {
		t.Fatalf("overflowing edge: spans %v (%v), want the vertex cell (128,128) covered", s, err)
	}
}

// TestCertainFailsOldReaders: a reader that predates the certain flag
// decodes hi from bits 1..31, so a certain run's hi reads at least 2^30,
// beyond every grid it accepts, and its Validate rejects the list.
func TestCertainFailsOldReaders(t *testing.T) {
	d := data.MustLoad("LANDC", 0.01)
	g, ok := interval.GridFor(d.Objects, 0)
	if !ok {
		t.Fatal("GridFor failed")
	}
	certain := 0
	for _, w := range interval.Build(d.Objects, g).Data() {
		if w&(1<<31) == 0 {
			continue
		}
		certain++
		if oldHi := uint32(w>>1) & 0x7fffffff; oldHi < uint32(1)<<(2*interval.MaxOrder) {
			t.Fatalf("certain word %#x reads hi %d to an older reader, inside a grid of order %d", w, oldHi, interval.MaxOrder)
		}
	}
	if certain == 0 {
		t.Fatal("LANDC 0.01 has no certain run; the test is vacuous")
	}
}

var verdictSink interval.Verdict

// BenchmarkCompare merge-scans every MBR-intersecting pair of LANDC⋈LANDO
// 0.2 on the grid both persist, the join_single candidates, with the scan
// the join's verdict runs (Compare, which is CompareWithin without the
// cell clause). One op is one pass over all 39 106 pairs; ns/pair is the
// cost of one Compare.
func BenchmarkCompare(b *testing.B) {
	da, db := data.MustLoad("LANDC", 0.2), data.MustLoad("LANDO", 0.2)
	g := mustGrid(b, da.Objects, 0)
	ca, cb := interval.Build(da.Objects, g), interval.Build(db.Objects, g)
	type pair struct{ a, b interval.Spans }
	var pairs []pair
	for i, p := range da.Objects {
		for j, q := range db.Objects {
			if p.Bounds().Intersects(q.Bounds()) {
				pairs = append(pairs, pair{ca.Spans(i), cb.Spans(j)})
			}
		}
	}
	b.ResetTimer()
	for range b.N {
		for _, p := range pairs {
			verdictSink = interval.Compare(p.a, p.b)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/pair")
}
