package interval_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/edgeindex"
	"repro/internal/geom"
	"repro/internal/interval"
	"repro/internal/raster"
)

// rasterizeByCells is the area kernel Rasterize replaced, kept as its
// oracle: every cell of the window labelled (cellCover), each labelled
// cell Hilbert-indexed, the lot sorted and run-length packed. Its cost
// follows the window's area.
func rasterizeByCells(p *geom.Polygon, g interval.Grid) interval.Spans {
	if !g.Valid() || p == nil || p.NumVerts() < 3 {
		return nil
	}
	const cellEps = 1e-6
	cs := g.CellSize()
	b := p.Bounds()
	n := g.Cells()
	clamp := func(v float64) int {
		i := int(math.Floor(v))
		if i < 0 {
			return 0
		}
		if i >= n {
			return n - 1
		}
		return i
	}
	// Outward-rounded cell window of the MBR, clamped to the grid.
	x0 := clamp((b.MinX-g.MinX)/cs - cellEps)
	x1 := clamp((b.MaxX-g.MinX)/cs + cellEps)
	y0 := clamp((b.MinY-g.MinY)/cs - cellEps)
	y1 := clamp((b.MaxY-g.MinY)/cs + cellEps)
	if b.MaxX < g.MinX || b.MaxY < g.MinY || b.MinX > g.MinX+g.Size || b.MinY > g.MinY+g.Size {
		return nil // off-grid object: no sound claim possible
	}
	if (x1-x0+1)*(y1-y0+1) > interval.MaxWindowCells {
		return nil
	}
	// Collect labeled cells as hilbert<<1|full so one sort orders them.
	cells := make([]uint64, 0, 64)
	cellCover(p, g.MinX, g.MinY, cs, x0, y0, x1, y1, func(x, y int, full bool) {
		v := uint64(interval.D(g.Order, uint32(x), uint32(y))) << 1
		if full {
			v |= 1
		}
		cells = append(cells, v)
	})
	if len(cells) == 0 {
		return nil
	}
	slices.Sort(cells)
	spans := make(interval.Spans, 0, 16)
	lo := uint32(cells[0] >> 1)
	hi := lo
	full := cells[0]&1 != 0
	for _, c := range cells[1:] {
		id := uint32(c >> 1)
		f := c&1 != 0
		if id == hi+1 && f == full {
			hi = id
			continue
		}
		spans = append(spans, packRun(lo, hi, full))
		lo, hi, full = id, id, f
	}
	return append(spans, packRun(lo, hi, full))
}

func packRun(lo, hi uint32, full bool) uint64 {
	v := uint64(lo)<<32 | uint64(hi)<<1
	if full {
		v |= 1
	}
	return v
}

// cellCover reports every cell of the inclusive window [x0,x1]×[y0,y1]
// that p's closed region touches: the boundary cells as partial, then
// each maximal row run of unmarked cells as full when one exact test of
// its first cell's centre says inside (an unmarked cell holds no boundary
// point, so the connected run lies wholly inside or wholly outside).
func cellCover(p *geom.Polygon, ox, oy, cs float64, x0, y0, x1, y1 int, fn func(x, y int, full bool)) {
	w := x1 - x0 + 1
	h := y1 - y0 + 1
	marks := raster.BoundaryMarks(nil, nil, p, ox, oy, cs, x0, y0, x1, y1)
	bit := func(lx, ly int) int { return ly*w + lx }
	for ly := 0; ly < h; ly++ {
		runStart := -1
		flushRun := func(end int) {
			if runStart < 0 {
				return
			}
			center := geom.Pt(ox+(float64(runStart+x0)+0.5)*cs, oy+(float64(ly+y0)+0.5)*cs)
			if p.ContainsPoint(center) {
				for lx := runStart; lx < end; lx++ {
					fn(lx+x0, ly+y0, true)
				}
			}
			runStart = -1
		}
		for lx := 0; lx < w; lx++ {
			if marks[bit(lx, ly)>>6]&(1<<uint(bit(lx, ly)&63)) != 0 {
				flushRun(lx)
				fn(lx+x0, ly+y0, false)
				continue
			}
			if runStart < 0 {
				runStart = lx
			}
		}
		flushRun(w)
	}
}

// benchScale is each dataset's scale in bench/ (its refScale).
var benchScale = []struct {
	name  string
	scale float64
}{{"LANDC", 0.2}, {"LANDO", 0.2}, {"WATER", 0.1}, {"PRISM", 0.1}}

// benchWindows regenerates bench/'s seeded select windows, unshuffled:
// one per cell of a 32×32 grid over the data domain, jittered inside its
// cell, every fifth 20×20 km and the rest 5×5 km.
func benchWindows(seed int64) []*geom.Polygon {
	rng := rand.New(rand.NewSource(seed))
	const side = 32
	dom := data.Domain
	cellW, cellH := dom.Width()/side, dom.Height()/side
	var out []*geom.Polygon
	for i := 0; i < side*side; i++ {
		size := 5.0
		if i%5 == 0 {
			size = 20
		}
		x := min(dom.MinX+(float64(i%side)+rng.Float64())*cellW, dom.MaxX-size)
		y := min(dom.MinY+(float64(i/side)+rng.Float64())*cellH, dom.MaxY-size)
		out = append(out, geom.MustPolygon(geom.Pt(x, y), geom.Pt(x+size, y), geom.Pt(x+size, y+size), geom.Pt(x, y+size)))
	}
	return out
}

func mustGrid(t testing.TB, objs []*geom.Polygon, order int) interval.Grid {
	t.Helper()
	g, ok := interval.GridFor(objs, order)
	if !ok {
		t.Fatalf("GridFor(order %d) failed", order)
	}
	return g
}

// assertSameSpans fails t unless Rasterize and the oracle agree on p: the
// list with its certain flags cleared and adjacent partial runs merged is
// the oracle's, every certain cell meets p's boundary at least half
// cellEps inside it, and every cell the boundary meets at least twice
// cellEps inside is certain (crossedCells; the two margins leave room for
// rounding between two ways of clipping a segment to a square).
func assertSameSpans(t *testing.T, what string, p *geom.Polygon, g interval.Grid) {
	t.Helper()
	got, want := interval.Rasterize(p, g), rasterizeByCells(p, g)
	if plain := withoutCertain(got); (got == nil) != (want == nil) || !slices.Equal(plain, want) {
		t.Fatalf("%s on grid %+v: Rasterize gives %d runs (%d without certain flags), the oracle %d (first difference at run %d)",
			what, g, len(got), len(plain), len(want), firstDiff(plain, want))
	}
	if err := got.Validate(g.Order); err != nil {
		t.Fatalf("%s on grid %+v: %v", what, g, err)
	}
	if got == nil {
		return
	}
	loose, tight := crossedCells(p, g, interval.CellEps/2), crossedCells(p, g, 2*interval.CellEps)
	for i := range got {
		lo, hi, full, certain := run(got, i)
		if full {
			continue
		}
		for c := lo; c <= hi; c++ {
			if certain && !loose[c] {
				t.Fatalf("%s on grid %+v: cell %d is certain, and the boundary meets it less than cellEps/2 inside", what, g, c)
			}
			if !certain && tight[c] {
				t.Fatalf("%s on grid %+v: the boundary meets cell %d 2·cellEps inside, and it is not certain", what, g, c)
			}
			delete(tight, c)
		}
	}
	for c := range tight {
		t.Fatalf("%s on grid %+v: the boundary meets cell %d 2·cellEps inside, and it is in no partial run", what, g, c)
	}
}

// crossedCells returns the grid cells whose square, shrunk by margin cells
// on every side, some edge of p meets, by geom's segment-rectangle test in
// cell units. Edges reaching more than 2^20 cells from the grid's origin
// are left out, as Rasterize leaves them out.
func crossedCells(p *geom.Polygon, g interval.Grid, margin float64) map[uint32]bool {
	cs, n := g.CellSize(), float64(g.Cells())
	cells := map[uint32]bool{}
	for i := range p.NumEdges() {
		e := p.Edge(i)
		a := geom.Pt((e.A.X-g.MinX)/cs, (e.A.Y-g.MinY)/cs)
		b := geom.Pt((e.B.X-g.MinX)/cs, (e.B.Y-g.MinY)/cs)
		if max(math.Abs(a.X), math.Abs(a.Y), math.Abs(b.X), math.Abs(b.Y)) > 1<<20 {
			continue
		}
		for x := max(0, math.Floor(min(a.X, b.X))); x <= min(n-1, math.Floor(max(a.X, b.X))); x++ {
			for y := max(0, math.Floor(min(a.Y, b.Y))); y <= min(n-1, math.Floor(max(a.Y, b.Y))); y++ {
				sq := geom.Rect{MinX: x + margin, MinY: y + margin, MaxX: x + 1 - margin, MaxY: y + 1 - margin}
				if sq.IntersectsSegment(geom.Segment{A: a, B: b}) {
					cells[interval.D(g.Order, uint32(x), uint32(y))] = true
				}
			}
		}
	}
	return cells
}

// withoutCertain returns s with every certain flag cleared and adjacent
// partial runs merged: the full/partial list the boundary walk labelled.
func withoutCertain(s interval.Spans) interval.Spans {
	var out interval.Spans
	for i := range s {
		lo, hi, full, _ := run(s, i)
		if k := len(out) - 1; k >= 0 && !full {
			if plo, phi, pfull, _ := run(out, k); !pfull && phi+1 == lo {
				out[k] = packRun(plo, hi, false)
				continue
			}
		}
		out = append(out, packRun(lo, hi, full))
	}
	return out
}

func firstDiff(a, b interval.Spans) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestRasterizeMatchesCellOracle pins the boundary kernel to the area
// kernel it replaced, span for span: every object of the four bench
// datasets at bench scale on grids of the auto order and two neighbours,
// the bench's select windows of three seeds, and an adversarial family.
func TestRasterizeMatchesCellOracle(t *testing.T) {
	grids := map[string]interval.Grid{}
	for _, ds := range benchScale {
		objs := data.MustLoad(ds.name, ds.scale).Objects
		auto := mustGrid(t, objs, 0)
		grids[ds.name] = auto
		for _, order := range []int{auto.Order - 2, auto.Order, auto.Order + 1} {
			g := mustGrid(t, objs, order)
			for i, p := range objs {
				assertSameSpans(t, fmt.Sprintf("%s object %d", ds.name, i), p, g)
			}
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		for i, w := range benchWindows(seed) {
			// select_wire selects on LANDC, ingest_read on LANDO.
			what := fmt.Sprintf("seed %d window %d", seed, i)
			assertSameSpans(t, what, w, grids["LANDC"])
			assertSameSpans(t, what, w, grids["LANDO"])
		}
	}

	// The adversarial family, in cell units on a 2^5 grid; each shape runs
	// on a unit grid, where every integer coordinate is exactly a cell
	// border, and on an offset grid of inexact cell size.
	const order = 5
	side := float64(int(1) << order)
	lastX, lastY := interval.XY(order, uint32(1)<<(2*order)-1)
	last := geom.Pt(float64(lastX), float64(lastY))
	comb := []geom.Point{{X: 1, Y: 1}, {X: 31, Y: 1}, {X: 31, Y: 30}}
	for x := 29.0; x > 1; x -= 4 {
		comb = append(comb, geom.Pt(x, 30), geom.Pt(x, 3), geom.Pt(x-1.5, 3), geom.Pt(x-1.5, 30))
	}
	comb = append(comb, geom.Pt(1, 30))
	shapes := []struct {
		name  string
		verts []geom.Point
	}{
		{"rect on cell borders", []geom.Point{{X: 2, Y: 2}, {X: 7, Y: 2}, {X: 7, Y: 5}, {X: 2, Y: 5}}},
		{"diamond through cell corners", []geom.Point{{X: 16, Y: 4}, {X: 28, Y: 16}, {X: 16, Y: 28}, {X: 4, Y: 16}}},
		{"L on cell borders", []geom.Point{{X: 1, Y: 1}, {X: 9, Y: 1}, {X: 9, Y: 4}, {X: 4, Y: 4}, {X: 4, Y: 12}, {X: 1, Y: 12}}},
		{"edges on Hilbert quadrant borders", []geom.Point{{X: 8, Y: 8}, {X: 24, Y: 8}, {X: 24, Y: 16}, {X: 16, Y: 16}, {X: 16, Y: 24}, {X: 8, Y: 24}}},
		{"whole grid exactly", []geom.Point{{X: 0, Y: 0}, {X: side, Y: 0}, {X: side, Y: side}, {X: 0, Y: side}}},
		{"whole grid, boundary off grid", []geom.Point{{X: -5, Y: -5}, {X: side + 5, Y: -5}, {X: side + 5, Y: side + 5}, {X: -5, Y: side + 5}}},
		{"partly off grid", []geom.Point{{X: -3, Y: 6}, {X: 10, Y: -4}, {X: side + 4, Y: 9}, {X: 7, Y: side + 6}}},
		{"clamped at the max edges", []geom.Point{{X: 20, Y: 20}, {X: side, Y: 20}, {X: side, Y: side}, {X: 20, Y: side}}},
		{"Hilbert cell 0 to the last cell", []geom.Point{{X: -0.5, Y: -0.5}, last.Add(geom.Pt(1.5, -0.5)), last.Add(geom.Pt(1.5, 3)), {X: -0.5, Y: 3}}},
		{"sliver thinner than a cell", []geom.Point{{X: 0.5, Y: 3.4}, {X: 30.5, Y: 3.45}, {X: 30.5, Y: 3.5}}},
		{"one cell exactly", []geom.Point{{X: 5, Y: 5}, {X: 6, Y: 5}, {X: 6, Y: 6}, {X: 5, Y: 6}}},
		{"inside one cell", []geom.Point{{X: 5.25, Y: 5.25}, {X: 5.75, Y: 5.25}, {X: 5.75, Y: 5.75}}},
		{"comb", comb},
		{"bow tie", []geom.Point{{X: 2, Y: 2}, {X: 30, Y: 30}, {X: 30, Y: 2}, {X: 2, Y: 30}}},
	}
	unit := interval.Grid{MinX: 0, MinY: 0, Size: side, Order: order}
	offset := interval.Grid{MinX: -3.7, MinY: 11.1, Size: 0.3 * side, Order: order}
	for _, sh := range shapes {
		for _, g := range []interval.Grid{unit, offset} {
			cs := g.CellSize()
			verts := make([]geom.Point, len(sh.verts))
			for i, v := range sh.verts {
				verts[i] = geom.Pt(g.MinX+v.X*cs, g.MinY+v.Y*cs)
			}
			p := geom.MustPolygon(verts...)
			if interval.Rasterize(p, g) == nil {
				t.Fatalf("%s: no spans", sh.name)
			}
			assertSameSpans(t, sh.name, p, g)
		}
	}

	// Windows of exactly MaxWindowCells cells (256×256) and one row more.
	big := interval.Grid{MinX: 0, MinY: 0, Size: 512, Order: 9}
	for _, tc := range []struct {
		maxY float64
		nil  bool
	}{{255.5, false}, {256.5, true}} {
		p := geom.MustPolygon(geom.Pt(0.5, 0.5), geom.Pt(255.5, 0.5), geom.Pt(255.5, tc.maxY), geom.Pt(0.5, tc.maxY))
		if got := interval.Rasterize(p, big); (got == nil) != tc.nil {
			t.Fatalf("window up to y %v: nil spans %v, want %v", tc.maxY, got == nil, tc.nil)
		}
		assertSameSpans(t, "MaxWindowCells window", p, big)
	}
}

// FuzzRasterize compares Rasterize with the oracle on an arbitrary
// polygon over a grid of order 2–6. The first byte picks the order, the
// second the coordinate lattice (quarter cells, which lands vertices on
// cell corners and edges on cell borders, or 65536 steps across the
// range) and the grid (unit cells at the origin, or an offset grid of
// inexact cell size); the rest are vertex coordinates from two cells
// before the grid to two past it.
func FuzzRasterize(f *testing.F) {
	f.Add([]byte{2, 0, 8, 8, 40, 8, 40, 40, 8, 40})
	f.Add([]byte{4, 0, 0, 0, 255, 0, 128, 255})
	f.Add([]byte{3, 1, 1, 0, 200, 0, 200, 1, 100, 200, 0, 255, 17, 3})
	f.Add([]byte{6, 0, 8, 8, 9, 8, 9, 9, 8, 9})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 8 {
			t.Skip("fewer than three vertices")
		}
		order := 2 + int(b[0])%5
		cells := float64(int(1) << order)
		fine := b[1]&1 != 0
		g := interval.Grid{MinX: 0, MinY: 0, Size: cells, Order: order}
		if b[1]&2 != 0 {
			g = interval.Grid{MinX: -1.3, MinY: 7.9, Size: 0.7 * cells, Order: order}
		}
		cs := g.CellSize()
		coord := func(raw []byte) float64 {
			if fine {
				v := float64(uint16(raw[0])<<8|uint16(raw[1])) / 65535
				return v*(cells+4) - 2
			}
			return float64(int(raw[0])%int(4*(cells+4)))/4 - 2
		}
		step := 2
		if fine {
			step = 4
		}
		var verts []geom.Point
		for i := 2; i+step <= len(b) && len(verts) < 32; i += step {
			verts = append(verts, geom.Pt(g.MinX+coord(b[i:])*cs, g.MinY+coord(b[i+step/2:])*cs))
		}
		if len(verts) < 3 {
			t.Skip("fewer than three vertices")
		}
		assertSameSpans(t, "fuzzed polygon", geom.MustPolygon(verts...), g)
	})
}

// TestRasterizeAllocs bounds what one rasterization allocates, whatever
// the window's area: the mark bitmap, the marked ids and the spans.
func TestRasterizeAllocs(t *testing.T) {
	g := mustGrid(t, data.MustLoad("LANDC", 0.2).Objects, 0)
	w := benchWindows(1)[0] // i%5 == 0: a 20 km window
	if got := testing.AllocsPerRun(100, func() { interval.Rasterize(w, g) }); got > 3 {
		t.Fatalf("rasterizing a 20 km window allocates %v times, want ≤ 3", got)
	}
}

// TestBuildDeterministic holds Build to the same column at GOMAXPROCS 1,
// 2 and 8, and every object's list to Rasterize's: the LANDC 0.2 layer
// with objects that get no spans appended (off the grid, wider than
// MaxWindowCells, nil), and an empty layer. BuildIndexed over the
// objects' own indexes gives the same column.
func TestBuildDeterministic(t *testing.T) {
	objs := data.MustLoad("LANDC", 0.2).Objects
	g := mustGrid(t, objs, 0)
	cs := g.CellSize()
	square := func(x, y, side float64) *geom.Polygon {
		return geom.MustPolygon(geom.Pt(x, y), geom.Pt(x+side, y), geom.Pt(x+side, y+side), geom.Pt(x, y+side))
	}
	offGrid := square(g.MinX-10*g.Size, g.MinY, cs)
	tooWide := square(g.MinX, g.MinY, 300*cs)
	objs = append(objs[:len(objs):len(objs)], offGrid, tooWide, nil)
	slices.Reverse(objs[len(objs)/2:]) // the empty ones mid-layer too
	for _, p := range []*geom.Polygon{offGrid, tooWide, nil} {
		if interval.Rasterize(p, g) != nil {
			t.Fatal("an object meant to get no spans got some")
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, layer := range [][]*geom.Polygon{objs, nil} {
		var want *interval.Column
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			col := interval.Build(layer, g)
			if want == nil {
				want = col
				if col.Len() != len(layer) {
					t.Fatalf("%d objects, column of %d", len(layer), col.Len())
				}
				for i, p := range layer {
					if got := col.Spans(i); !slices.Equal(got, interval.Rasterize(p, g)) {
						t.Fatalf("object %d: Build's list differs from Rasterize's", i)
					}
				}
			}
			if !slices.Equal(spanCounts(col), spanCounts(want)) || !slices.Equal(col.Data(), want.Data()) {
				t.Fatalf("%d objects at GOMAXPROCS %d: column differs from GOMAXPROCS 1", len(layer), procs)
			}
			indexed := interval.BuildIndexed(len(layer), func(id int) *edgeindex.Index {
				if layer[id] == nil {
					return nil
				}
				return edgeindex.New(layer[id])
			}, g)
			if !slices.Equal(spanCounts(indexed), spanCounts(want)) || !slices.Equal(indexed.Data(), want.Data()) {
				t.Fatalf("%d objects at GOMAXPROCS %d: BuildIndexed differs from Build", len(layer), procs)
			}
		}
	}
}

var rasterSink interval.Spans

// BenchmarkRasterize times Rasterize beside the area oracle it replaced:
// bench's 5 km and 20 km select windows (seed 1, cycled) on the LANDC 0.2
// grid, the LANDC 0.2 object of median MBR area (below
// edgeindex.MinIndexEdges, so its gap labels scan the chain) and the one
// with the most vertices (labelled through its edge index). One op is one
// rasterization.
func BenchmarkRasterize(b *testing.B) {
	objs := data.MustLoad("LANDC", 0.2).Objects
	g := mustGrid(b, objs, 0)
	var small, wide []*geom.Polygon
	for _, w := range benchWindows(1) {
		if w.Bounds().Width() > 10 {
			wide = append(wide, w)
		} else {
			small = append(small, w)
		}
	}
	byArea := slices.Clone(objs)
	slices.SortFunc(byArea, func(p, q *geom.Polygon) int { return cmp.Compare(p.Bounds().Area(), q.Bounds().Area()) })
	largest := slices.MaxFunc(objs, func(p, q *geom.Polygon) int { return cmp.Compare(p.NumVerts(), q.NumVerts()) })
	for _, tc := range []struct {
		name  string
		polys []*geom.Polygon
	}{{"window5km", small}, {"window20km", wide}, {"landc_object", byArea[len(byArea)/2 : len(byArea)/2+1]}, {"landc_largest", []*geom.Polygon{largest}}} {
		for _, k := range []struct {
			name string
			fn   func(*geom.Polygon, interval.Grid) interval.Spans
		}{{"boundary", interval.Rasterize}, {"oracle", rasterizeByCells}} {
			b.Run(tc.name+"/"+k.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := range b.N {
					rasterSink = k.fn(tc.polys[i%len(tc.polys)], g)
				}
			})
		}
	}
}

var columnSink *interval.Column

// BenchmarkColumnBuild times Build of the whole LANDC 0.2 column on its
// auto grid, on runtime.GOMAXPROCS(0) workers (set it with -cpu). One op
// is one column.
func BenchmarkColumnBuild(b *testing.B) {
	objs := data.MustLoad("LANDC", 0.2).Objects
	g := mustGrid(b, objs, 0)
	b.ReportAllocs()
	for range b.N {
		columnSink = interval.Build(objs, g)
	}
}
