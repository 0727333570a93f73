package interval_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/interval"
)

// dilateByCells is Dilate's oracle: it decodes every cell of s on the
// 2^order grid and returns, ascending, the cells within k on both axes of
// a partial cell of s — of any cell of s when every is set — clipped to
// the grid, by marking the (2k+1)² block around each.
func dilateByCells(s interval.Spans, order, k int, every bool) []uint32 {
	type cell struct{ x, y int }
	var cells []cell
	for i := range s {
		lo, hi, full, _ := run(s, i)
		for c := lo; c <= hi && (every || !full); c++ {
			x, y := interval.XY(order, c)
			cells = append(cells, cell{int(x), int(y)})
		}
	}
	if len(cells) == 0 {
		return nil
	}
	last := 1<<order - 1
	x0, y0, x1, y1 := last, last, 0, 0
	for _, c := range cells {
		x0, y0, x1, y1 = min(x0, c.x), min(y0, c.y), max(x1, c.x), max(y1, c.y)
	}
	x0, y0, x1, y1 = max(x0-k, 0), max(y0-k, 0), min(x1+k, last), min(y1+k, last)
	w := x1 - x0 + 1
	marked := make([]bool, w*(y1-y0+1))
	for _, c := range cells {
		for y := max(c.y-k, y0); y <= min(c.y+k, y1); y++ {
			for x := max(c.x-k, x0); x <= min(c.x+k, x1); x++ {
				marked[(y-y0)*w+x-x0] = true
			}
		}
	}
	var ids []uint32
	for i, m := range marked {
		if m {
			ids = append(ids, interval.D(order, uint32(x0+i%w), uint32(y0+i/w)))
		}
	}
	slices.Sort(ids)
	return ids
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

// partialRuns encodes ascending cells as maximal partial runs.
func partialRuns(ids []uint32) interval.Spans {
	var out interval.Spans
	for i, id := range ids {
		if i > 0 && id == ids[i-1]+1 {
			out[len(out)-1] = packRun(uint32(out[len(out)-1]>>32), id, false)
			continue
		}
		out = append(out, packRun(id, id, false))
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
// valid list of maximal partial runs over the oracle's cells. With
// rasterized set, the oracle dilates every cell and the dilated list is
// compared with it joined to the object's own cover.
func checkDilation(t *testing.T, what string, col *interval.Column, k int, rasterized bool) {
	t.Helper()
	dil := col.Dilate(k)
	if dil.Len() != col.Len() || dil.Grid != col.Grid {
		t.Fatalf("%s k=%d: dilated column has %d objects on %+v, want %d on %+v", what, k, dil.Len(), dil.Grid, col.Len(), col.Grid)
	}
	for id := range col.Len() {
		got, s := dil.Spans(id), col.Spans(id)
		if err := got.Validate(col.Grid.Order); err != nil {
			t.Fatalf("%s k=%d object %d: %v", what, k, id, err)
		}
		if want := partialRuns(dilateByCells(s, col.Grid.Order, k, false)); !slices.Equal(got, want) {
			t.Fatalf("%s k=%d object %d: Dilate gives %d runs, the oracle %d (first difference at run %d)",
				what, k, id, len(got), len(want), firstDiff(got, want))
		}
		if !rasterized {
			continue
		}
		if all, want := cellsOf(got, s), dilateByCells(s, col.Grid.Order, k, true); !slices.Equal(all, want) {
			t.Fatalf("%s k=%d object %d: the list and its dilation cover %d cells, every cell dilated %d",
				what, k, id, len(all), len(want))
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

// TestDilateBoundsItsWindow: a list whose partial cells span more than
// MaxWindowCells cells — two corners of an order-15 grid, which Validate
// accepts but no rasterization makes — and any list at k past MaxDilation
// dilate to empty lists, which make no claim, without a bitmap over the
// grid.
func TestDilateBoundsItsWindow(t *testing.T) {
	far := uint32(1)<<interval.MaxOrder - 1
	ids := []uint32{interval.D(interval.MaxOrder, 0, 0), interval.D(interval.MaxOrder, far, far)}
	slices.Sort(ids)
	corners := interval.Spans{packRun(ids[0], ids[0], false), packRun(ids[1], ids[1], false)}
	col := columnOf(t, interval.Grid{Size: 1, Order: interval.MaxOrder}, corners)
	if got := col.Dilate(1).Spans(0); len(got) != 0 {
		t.Fatalf("a list spanning the order-%d grid dilated to %d runs, want none", interval.MaxOrder, len(got))
	}
	small := columnOf(t, interval.Grid{Size: 1, Order: 4}, interval.Spans{packRun(5, 9, false)})
	if got := small.Dilate(interval.MaxDilation + 1).Spans(0); len(got) != 0 {
		t.Fatalf("k past MaxDilation dilated to %d runs, want none", len(got))
	}
	if got := small.Dilate(interval.MaxDilation).Spans(0); len(got) == 0 {
		t.Fatal("k at MaxDilation dilated to nothing")
	}
}
