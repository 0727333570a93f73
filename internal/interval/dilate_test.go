package interval_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/interval"
)

// Which cells of a list a band widens, for bandByCells.
var (
	partialCells = func(full, _ bool) bool { return !full }
	heldCells    = func(full, certain bool) bool { return full || certain }
	everyCell    = func(_, _ bool) bool { return true }
)

// bandByCells is the bands' oracle: it decodes every cell of s on the
// 2^order grid that widen selects, takes the aligned 2^m×2^m block of
// cells holding each, and returns, ascending, every cell of the blocks
// within k blocks on both axes of one of them, clipped to the grid, by
// marking the (2k+1)² blocks around each and decoding each block cell by
// cell. At m = 0 a block is a cell.
func bandByCells(s interval.Spans, order, k, m int, widen func(full, certain bool) bool) []uint32 {
	type cell struct{ x, y int }
	var blocks []cell
	for i := range s {
		lo, hi, full, certain := run(s, i)
		for c := lo; c <= hi && widen(full, certain); c++ {
			x, y := interval.XY(order, c)
			blocks = append(blocks, cell{int(x) >> m, int(y) >> m})
		}
	}
	if len(blocks) == 0 {
		return nil
	}
	last := 1<<(order-m) - 1
	x0, y0, x1, y1 := last, last, 0, 0
	for _, c := range blocks {
		x0, y0, x1, y1 = min(x0, c.x), min(y0, c.y), max(x1, c.x), max(y1, c.y)
	}
	x0, y0, x1, y1 = max(x0-k, 0), max(y0-k, 0), min(x1+k, last), min(y1+k, last)
	w := x1 - x0 + 1
	marked := make([]bool, w*(y1-y0+1))
	for _, c := range blocks {
		for y := max(c.y-k, y0); y <= min(c.y+k, y1); y++ {
			for x := max(c.x-k, x0); x <= min(c.x+k, x1); x++ {
				marked[(y-y0)*w+x-x0] = true
			}
		}
	}
	var ids []uint32
	for i, mk := range marked {
		if !mk {
			continue
		}
		bx, by := (x0+i%w)<<m, (y0+i/w)<<m
		for y := by; y < by+1<<m; y++ {
			for x := bx; x < bx+1<<m; x++ {
				ids = append(ids, interval.D(order, uint32(x), uint32(y)))
			}
		}
	}
	slices.Sort(ids)
	return ids
}

// blockLevel returns the level m and the block count a reject band for k
// cells of the 2^order grid is built at: k capped at the grid's side, m
// the least with ⌈k / 2^m⌉ ≤ MaxDilation.
func blockLevel(k, order int) (kb, m int) {
	k = min(k, 1<<order)
	for (k+1<<m-1)>>m > interval.MaxDilation {
		m++
	}
	return (k + 1<<m - 1) >> m, m
}

// cellsOf returns the cells of the lists, ascending, each once.
func cellsOf(lists ...interval.Spans) []uint32 {
	var ids []uint32
	for _, s := range lists {
		for i := range s {
			lo, hi, _, _ := run(s, i)
			for c := lo; c <= hi; c++ {
				ids = append(ids, c)
			}
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// packRuns encodes ascending cells as maximal runs, full or partial.
func packRuns(ids []uint32, full bool) interval.Spans {
	var out interval.Spans
	for i, id := range ids {
		if i > 0 && id == ids[i-1]+1 {
			out[len(out)-1] = packRun(uint32(out[len(out)-1]>>32), id, full)
			continue
		}
		out = append(out, packRun(id, id, full))
	}
	return out
}

// columnOf is a column of the given lists on g.
func columnOf(t testing.TB, g interval.Grid, lists ...interval.Spans) *interval.Column {
	t.Helper()
	var counts []uint32
	var words []uint64
	for _, s := range lists {
		counts = append(counts, uint32(len(s)))
		words = append(words, s...)
	}
	col, err := interval.FromParts(g, counts, words)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// checkDilation fails t unless col.Dilate(k) is, object by object, a
// valid list of maximal partial runs over the oracle's cells, on the
// blocks blockLevel gives past MaxDilation. With rasterized set, the
// oracle dilates every cell and the dilated list is compared with it
// joined to the object's own cover.
func checkDilation(t *testing.T, what string, col *interval.Column, k int, rasterized bool) {
	t.Helper()
	kb, m := blockLevel(k, col.Grid.Order)
	checkBand(t, fmt.Sprintf("%s k=%d", what, k), col, col.Dilate(k), func(s interval.Spans) interval.Spans {
		return packRuns(bandByCells(s, col.Grid.Order, kb, m, partialCells), false)
	})
	if !rasterized {
		return
	}
	dil := col.Dilate(k)
	for id := range col.Len() {
		s := col.Spans(id)
		if all, want := cellsOf(dil.Spans(id), s), bandByCells(s, col.Grid.Order, kb, m, everyCell); !slices.Equal(all, want) {
			t.Fatalf("%s k=%d object %d: the list and its dilation cover %d cells, every cell dilated %d",
				what, k, id, len(all), len(want))
		}
	}
}

// checkHits fails t unless col.DilateHits(j) is, object by object, a
// valid list of maximal full runs over the cells within min(j,
// MaxDilation) of a full or certain cell.
func checkHits(t *testing.T, what string, col *interval.Column, j int) {
	t.Helper()
	checkBand(t, fmt.Sprintf("%s j=%d", what, j), col, col.DilateHits(j), func(s interval.Spans) interval.Spans {
		return packRuns(bandByCells(s, col.Grid.Order, min(j, interval.MaxDilation), 0, heldCells), true)
	})
}

// checkBand fails t unless band is a column of col's objects on col's grid
// whose every list is valid and want's of the object's list.
func checkBand(t *testing.T, what string, col, band *interval.Column, want func(interval.Spans) interval.Spans) {
	t.Helper()
	if band.Len() != col.Len() || band.Grid != col.Grid {
		t.Fatalf("%s: band has %d objects on %+v, want %d on %+v", what, band.Len(), band.Grid, col.Len(), col.Grid)
	}
	for id := range col.Len() {
		got := band.Spans(id)
		if err := got.Validate(col.Grid.Order); err != nil {
			t.Fatalf("%s object %d: %v", what, id, err)
		}
		if w := want(col.Spans(id)); !slices.Equal(got, w) {
			t.Fatalf("%s object %d: the band has %d runs, the oracle %d (first difference at run %d)",
				what, id, len(got), len(w), firstDiff(got, w))
		}
	}
}

// TestDilateMatchesCellOracle holds Dilate to the oracle on rasterized
// lists: WATER and PRISM at the within_single scale on their pair grid at
// order 12 and on PRISM's own order-11 grid, and objects along, across and
// on the corners of a small grid's edges. A list joined to its dilation
// must be every cell of it dilated, which proves on these inputs that
// widening the partial cells alone dilates the whole cover.
func TestDilateMatchesCellOracle(t *testing.T) {
	water, prism := data.MustLoad("WATER", 0.1), data.MustLoad("PRISM", 0.1)
	mnx, mny, size, ok := interval.FitSquare(unionBounds(water.Objects).Union(unionBounds(prism.Objects)))
	if !ok {
		t.Fatal("FitSquare failed")
	}
	pairGrid := interval.Grid{MinX: mnx, MinY: mny, Size: size, Order: 12}
	for _, c := range []struct {
		name string
		objs []*geom.Polygon
		g    interval.Grid
		ks   []int
	}{
		{"PRISM order 12", prism.Objects, pairGrid, []int{0, 1, 2, 3, interval.MaxDilation}},
		{"WATER order 12", water.Objects[:len(water.Objects)/4], pairGrid, []int{0, 2, interval.MaxDilation}},
		{"PRISM order 11", prism.Objects, mustGrid(t, prism.Objects, 11), []int{1, 2}},
		{"grid edge", edgeObjects(), interval.Grid{Size: 64, Order: 6}, nil},
	} {
		col := interval.Build(c.objs, c.g)
		if c.ks == nil {
			for k := range interval.MaxDilation + 1 {
				c.ks = append(c.ks, k)
			}
		}
		for _, k := range c.ks {
			checkDilation(t, c.name, col, k, true)
		}
	}
}

// TestBandsMatchCellOracle holds the hit band (DilateHits, j ≥ 1) and the
// reject band past MaxDilation (Dilate on blocks) to the oracle on the
// inputs of TestDilateMatchesCellOracle: PRISM and WATER on their pair
// grid at order 12, and the grid-edge objects at every j and at k up to
// past the grid's side. On the rasterized lists the list joined to its
// block band must be every cell's block dilated, which proves on these
// inputs that widening the blocks with a partial cell alone dilates the
// whole cover.
func TestBandsMatchCellOracle(t *testing.T) {
	water, prism := data.MustLoad("WATER", 0.1), data.MustLoad("PRISM", 0.1)
	mnx, mny, size, ok := interval.FitSquare(unionBounds(water.Objects).Union(unionBounds(prism.Objects)))
	if !ok {
		t.Fatal("FitSquare failed")
	}
	pairGrid := interval.Grid{MinX: mnx, MinY: mny, Size: size, Order: 12}
	for _, c := range []struct {
		name   string
		objs   []*geom.Polygon
		g      interval.Grid
		js, ks []int
	}{
		{"PRISM order 12", prism.Objects, pairGrid, []int{1, 2, interval.MaxDilation}, []int{interval.MaxDilation + 1, 16, 17, 64}},
		{"WATER order 12", water.Objects[:len(water.Objects)/4], pairGrid, []int{1, 3}, []int{9, 32}},
		{"grid edge", edgeObjects(), interval.Grid{Size: 64, Order: 6},
			[]int{1, 2, 3, 4, 5, 6, 7, 8, 9}, []int{9, 10, 15, 16, 17, 31, 33, 63, 64, 65, 1000}},
	} {
		col := interval.Build(c.objs, c.g)
		for _, j := range c.js {
			checkHits(t, c.name, col, j)
		}
		for _, k := range c.ks {
			checkDilation(t, c.name, col, k, true)
		}
	}
}

func unionBounds(objs []*geom.Polygon) geom.Rect {
	r := objs[0].Bounds()
	for _, p := range objs[1:] {
		r = r.Union(p.Bounds())
	}
	return r
}

// edgeObjects are polygons on a 64×64 grid of unit cells at the origin:
// squares in each corner, bands along each edge, a rectangle on cell
// borders, polygons crossing the edge (clipped) and one covering the grid.
func edgeObjects() []*geom.Polygon {
	rect := func(x0, y0, x1, y1 float64) *geom.Polygon {
		return geom.MustPolygon(geom.Pt(x0, y0), geom.Pt(x1, y0), geom.Pt(x1, y1), geom.Pt(x0, y1))
	}
	return []*geom.Polygon{
		rect(0, 0, 3, 3), rect(61, 0, 64, 3), rect(0, 61, 3, 64), rect(61.5, 61.5, 64, 64),
		rect(0, 10, 64, 12.5), rect(10, 0, 11.5, 64), rect(0.25, 30, 1, 40), rect(63, 20, 63.75, 50),
		rect(8, 8, 24, 16),
		rect(-5, 50, 5, 70), rect(60, -3, 70, 2), rect(-10, -10, 74, 74),
		geom.MustPolygon(geom.Pt(32, -4), geom.Pt(68, 32), geom.Pt(32, 68), geom.Pt(-4, 32)),
		geom.MustPolygon(geom.Pt(0, 0), geom.Pt(64, 0), geom.Pt(0, 64)),
	}
}

// FuzzDilate holds Dilate to the oracle on random run lists (fuzzSpans)
// on grids of order 2–7 at every k up to MaxDilation. A random list need
// not be a rasterization — a full run's neighbours may be uncovered — so
// only the partial cells' dilation is compared.
func FuzzDilate(f *testing.F) {
	f.Add([]byte{0, 1, 0, 3, 4, 1, 0, 5, 2, 7})
	f.Add([]byte{5, 8, 1, 255, 8, 40, 2, 200, 0, 255, 6, 3, 8, 1})
	f.Add([]byte{3, 2, 9, 0, 0, 200, 1, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 2 {
			return
		}
		order := 2 + int(b[0])%6
		k := int(b[1]) % (interval.MaxDilation + 1)
		g := interval.Grid{Size: 1, Order: order}
		s := fuzzSpans(b[2:], uint32(1)<<(2*order))
		// Two objects, so the second reuses the scratch the first grew.
		checkDilation(t, fmt.Sprintf("order %d", order), columnOf(t, g, s, s[:len(s)/2]), k, false)
	})
}

// FuzzBands holds the bands Dilate and FuzzDilate leave out to the oracle
// on random run lists on grids of order 2–7: the hit band (DilateHits)
// at j from 1 to past MaxDilation when b[1] is odd, else the reject band
// at k past MaxDilation, on blocks, to past the grid's side.
func FuzzBands(f *testing.F) {
	f.Add([]byte{4, 3, 0, 3, 4, 1, 0, 5, 2, 7})
	f.Add([]byte{5, 18, 1, 255, 8, 40, 2, 200, 0, 255, 6, 3, 8, 1})
	f.Add([]byte{3, 7, 9, 0, 2, 200, 1, 1, 2, 3})
	f.Add([]byte{1, 200, 6, 30, 2, 30, 1, 255})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 2 {
			return
		}
		order := 2 + int(b[0])%6
		g := interval.Grid{Size: 1, Order: order}
		s := fuzzSpans(b[2:], uint32(1)<<(2*order))
		col := columnOf(t, g, s, s[:len(s)/2])
		what := fmt.Sprintf("order %d", order)
		if n := int(b[1] >> 1); b[1]&1 != 0 {
			checkHits(t, what, col, 1+n%(interval.MaxDilation+2))
		} else {
			checkDilation(t, what, col, interval.MaxDilation+1+n%(2<<order), false)
		}
	})
}

// TestDilateBoundsItsWindow: a list whose widened cells span more than
// MaxWindowCells cells, or blocks — two corners of an order-15 grid,
// which Validate accepts but no rasterization makes — dilates to an
// empty list, which makes no claim, without a bitmap over the grid: its
// reject band at k within MaxDilation and past it, on blocks, and its
// hit band.
func TestDilateBoundsItsWindow(t *testing.T) {
	far := uint32(1)<<interval.MaxOrder - 1
	ids := []uint32{interval.D(interval.MaxOrder, 0, 0), interval.D(interval.MaxOrder, far, far)}
	slices.Sort(ids)
	g := interval.Grid{Size: 1, Order: interval.MaxOrder}
	corners := columnOf(t, g, interval.Spans{packRun(ids[0], ids[0], false), packRun(ids[1], ids[1], false)})
	for _, k := range []int{1, interval.MaxDilation + 1, 64} {
		if got := corners.Dilate(k).Spans(0); len(got) != 0 {
			t.Fatalf("a list spanning the order-%d grid dilated by %d to %d runs, want none", interval.MaxOrder, k, len(got))
		}
	}
	held := columnOf(t, g, interval.Spans{packRun(ids[0], ids[0], true), packRun(ids[1], ids[1], false) | 1<<31})
	if got := held.DilateHits(1).Spans(0); len(got) != 0 {
		t.Fatalf("a list spanning the order-%d grid has a hit band of %d runs, want none", interval.MaxOrder, len(got))
	}
}

// TestBandDilations pins the distances at which the bands widen: the
// reject band by k cells from d = (k−1)·cell plus one ulp to k·cell, up to
// the grid's side, and the hit band by j cells from d = (j+1)·cell·√2 to
// one ulp below the next edge, up to MaxDilation, on grids with cells of
// a power of two and of none; and no band for a d that is not a number
// ≥ 0, or on an invalid grid.
func TestBandDilations(t *testing.T) {
	for _, g := range []interval.Grid{{Size: 2048, Order: 12}, {Size: 1, Order: 4}, {MinX: -3, Size: 1000, Order: 8}} {
		cell := g.CellSize()
		for k := 1; k <= g.Cells(); k++ {
			e := float64(k) * cell
			if g.RejectDilation(e) != k || g.RejectDilation(math.Nextafter(e, 0)) != k {
				t.Fatalf("grid %+v: RejectDilation(%v) = %d, one ulp below %d; want %d", g, e, g.RejectDilation(e), g.RejectDilation(math.Nextafter(e, 0)), k)
			}
			if k < g.Cells() && g.RejectDilation(math.Nextafter(e, math.Inf(1))) != k+1 {
				t.Fatalf("grid %+v: RejectDilation one ulp above %v = %d, want %d", g, e, g.RejectDilation(math.Nextafter(e, math.Inf(1))), k+1)
			}
		}
		if got := g.RejectDilation(math.Inf(1)); got != g.Cells() {
			t.Fatalf("grid %+v: RejectDilation(+Inf) = %d, want the side %d", g, got, g.Cells())
		}
		for j := 0; j <= interval.MaxDilation; j++ {
			e := float64(j+1) * (cell * math.Sqrt2)
			if got, below := g.HitDilation(e), g.HitDilation(math.Nextafter(e, 0)); got != j || below != j-1 {
				t.Fatalf("grid %+v: HitDilation at (%d+1)·cell·√2 = %d, one ulp below %d; want %d and %d", g, j, got, below, j, j-1)
			}
		}
		if got := g.HitDilation(math.Inf(1)); got != interval.MaxDilation {
			t.Fatalf("grid %+v: HitDilation(+Inf) = %d, want MaxDilation", g, got)
		}
		for _, d := range []float64{-1, math.NaN()} {
			if g.RejectDilation(d) != 0 || g.HitDilation(d) != -1 {
				t.Fatalf("grid %+v: d %v dilates by %d and %d, want 0 and -1", g, d, g.RejectDilation(d), g.HitDilation(d))
			}
		}
	}
	if got := (interval.Grid{}).HitDilation(1); got != -1 {
		t.Fatalf("the zero grid's HitDilation(1) = %d, want -1", got)
	}
}
