package interval_test

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/interval"
)

// TestHilbertNesting pins the fact SharedPartial's decode rests on: the
// four children of cell h at order k are 4h … 4h+3 at order k+1, so an
// index at order k+1 maps to its parent by dropping its low two bits.
func TestHilbertNesting(t *testing.T) {
	for k := 2; k <= 8; k++ {
		n := uint32(1) << (k + 1)
		for y := range n {
			for x := range n {
				if got, want := interval.D(k+1, x, y)>>2, interval.D(k, x>>1, y>>1); got != want {
					t.Fatalf("order %d: D(%d, %d, %d) >> 2 = %d, D(%d, %d, %d) = %d", k+1, k+1, x, y, got, k, x>>1, y>>1, want)
				}
			}
		}
	}
}

// TestHilbertAlignedBlocks: every aligned block of 4^j consecutive indexes
// covers exactly an aligned 2^j × 2^j square of cells.
func TestHilbertAlignedBlocks(t *testing.T) {
	for order := 2; order <= 7; order++ {
		total := uint32(1) << (2 * order)
		for j := 0; j <= order; j++ {
			size, side := uint32(1)<<(2*j), uint32(1)<<j
			for lo := uint32(0); lo < total; lo += size {
				x0, y0 := interval.XY(order, lo)
				x0, y0 = x0&^(side-1), y0&^(side-1)
				for d := lo; d < lo+size; d++ {
					if x, y := interval.XY(order, d); x-x0 >= side || y-y0 >= side {
						t.Fatalf("order %d: cell %d (%d, %d) of block %d..%d lies outside the %d-square at (%d, %d)",
							order, d, x, y, lo, lo+size-1, side, x0, y0)
					}
				}
			}
		}
	}
}

// cellBox is one cell's closed box on g, rounded outward by the
// rasterizer's slack.
func cellBox(g interval.Grid, c uint32) geom.Rect {
	x, y := interval.XY(g.Order, c)
	cs := g.CellSize()
	return geom.Rect{
		MinX: g.MinX + (float64(x)-interval.CellEps)*cs,
		MinY: g.MinY + (float64(y)-interval.CellEps)*cs,
		MaxX: g.MinX + (float64(x+1)+interval.CellEps)*cs,
		MaxY: g.MinY + (float64(y+1)+interval.CellEps)*cs,
	}
}

// fuzzSpans decodes raw into a valid run list on a grid of total cells:
// byte pairs give each run's gap after the previous one and its length
// (both scaled to an eighth of the grid), the gap byte's low bit its
// full flag.
func fuzzSpans(raw []byte, total uint32) interval.Spans {
	step := max(1, total/8)
	var s interval.Spans
	next := uint32(0)
	for i := 0; i+1 < len(raw); i += 2 {
		lo := next + uint32(raw[i]>>1)%step
		hi := lo + uint32(raw[i+1])%step
		if hi >= total {
			break
		}
		s = append(s, packRun(lo, hi, raw[i]&1 != 0))
		next = hi + 1
	}
	return s
}

// FuzzSharedPartial compares SharedPartial with brute force on two random
// run lists over a grid of order 2–6, the unit grid at the origin or an
// offset grid of inexact cell size. The first byte picks the order, the
// second the grid and where the bytes of list a end and those of list b
// begin. Each yielded box must be the union of its overlap's cell boxes,
// the overlaps those of every partial run of a with every partial run of
// b in Hilbert order, every cell partial in both must lie in a box, and a
// yield returning false must stop the walk.
func FuzzSharedPartial(f *testing.F) {
	f.Add([]byte{0, 4, 0, 3, 4, 1, 0, 5, 2, 7})
	f.Add([]byte{4, 9, 0, 255, 8, 40, 2, 200, 0, 255, 6, 3, 8, 1})
	f.Add([]byte{2, 6, 10, 20, 11, 3, 40, 2, 10, 60, 0, 9})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 2 {
			t.Skip()
		}
		order := 2 + int(b[0])%5
		total := uint32(1) << (2 * order)
		g := interval.Grid{MinX: 0, MinY: 0, Size: float64(int(1) << order), Order: order}
		if b[1]&1 != 0 {
			g = interval.Grid{MinX: -1.3, MinY: 7.9, Size: 0.7 * float64(int(1)<<order), Order: order}
		}
		raw := b[2:]
		split := min(len(raw), int(b[1]>>1))
		sa, sb := fuzzSpans(raw[:split], total), fuzzSpans(raw[split:], total)
		for _, s := range []interval.Spans{sa, sb} {
			if err := s.Validate(order); err != nil {
				t.Fatalf("generator built an invalid list: %v", err)
			}
		}

		type overlap struct{ lo, hi uint32 }
		var want []overlap
		for i := range sa {
			alo, ahi, af := run(sa, i)
			for j := range sb {
				blo, bhi, bf := run(sb, j)
				if !af && !bf && alo <= bhi && blo <= ahi {
					want = append(want, overlap{max(alo, blo), min(ahi, bhi)})
				}
			}
		}
		slices.SortFunc(want, func(x, y overlap) int { return cmp.Compare(x.lo, y.lo) })

		var got []geom.Rect
		if !interval.SharedPartial(sa, sb, g, func(r geom.Rect) bool { got = append(got, r); return true }) {
			t.Fatal("walk reported an early stop that no yield asked for")
		}
		if len(got) != len(want) {
			t.Fatalf("%d boxes, %d partial/partial overlaps", len(got), len(want))
		}
		for k, o := range want {
			box := geom.Rect{MinX: 1, MaxX: 0}
			for c := o.lo; c <= o.hi; c++ {
				box = box.Union(cellBox(g, c))
			}
			if got[k] != box {
				t.Fatalf("overlap %d..%d: box %v, union of its cells %v", o.lo, o.hi, got[k], box)
			}
			for c := o.lo; c <= o.hi; c++ {
				if !got[k].ContainsRect(cellBox(g, c)) {
					t.Fatalf("overlap %d..%d: cell %d outside its box", o.lo, o.hi, c)
				}
			}
		}
		partial := func(s interval.Spans, c uint32) bool {
			for i := range s {
				if lo, hi, full := run(s, i); lo <= c && c <= hi {
					return !full
				}
			}
			return false
		}
		for c := range total {
			if partial(sa, c) && partial(sb, c) && !slices.ContainsFunc(got, func(r geom.Rect) bool { return r.ContainsRect(cellBox(g, c)) }) {
				t.Fatalf("cell %d is partial in both lists and in no box", c)
			}
		}

		calls := 0
		done := interval.SharedPartial(sa, sb, g, func(geom.Rect) bool { calls++; return false })
		if len(want) > 0 && (done || calls != 1) {
			t.Fatalf("a yield returning false: %d calls, walk done %v", calls, done)
		}
	})
}
