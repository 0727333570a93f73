package interval_test

import (
	"bytes"
	"testing"

	"repro/internal/interval"
)

// TestHilbertNesting pins the fact the bands' block decode rests on
// (Column.Dilate): the four children of cell h at order k are 4h … 4h+3
// at order k+1, so an index at order k+1 maps to its parent by dropping
// its low two bits.
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

// fuzzSpans decodes raw into a valid run list on a grid of total cells:
// byte pairs give each run's gap after the previous one and its length
// (both scaled to an eighth of the grid), the gap byte's low bit its full
// flag and, on a partial run, the next bit its certain flag.
func fuzzSpans(raw []byte, total uint32) interval.Spans {
	step := max(1, total/8)
	var s interval.Spans
	next := uint32(0)
	for i := 0; i+1 < len(raw); i += 2 {
		lo := next + uint32(raw[i]>>2)%step
		hi := lo + uint32(raw[i+1])%step
		if hi >= total {
			break
		}
		v := packRun(lo, hi, raw[i]&1 != 0)
		if raw[i]&3 == 2 {
			v |= 1 << 31
		}
		s = append(s, v)
		next = hi + 1
	}
	return s
}

// fuzzGrid decodes a fuzz input's first two bytes into a grid of order
// 2–6, the unit grid at the origin or an offset grid of inexact cell size,
// and splits the rest into two run lists.
func fuzzGrid(b []byte) (g interval.Grid, sa, sb interval.Spans) {
	order := 2 + int(b[0])%5
	g = interval.Grid{MinX: 0, MinY: 0, Size: float64(int(1) << order), Order: order}
	if b[1]&1 != 0 {
		g = interval.Grid{MinX: -1.3, MinY: 7.9, Size: 0.7 * float64(int(1)<<order), Order: order}
	}
	raw := b[2:]
	split := min(len(raw), int(b[1]>>1))
	total := uint32(1) << (2 * order)
	return g, fuzzSpans(raw[:split], total), fuzzSpans(raw[split:], total)
}

// The labels FuzzCompare's oracle gives one cell of a list; a partial
// cell is partialCell or certainCell.
const (
	uncovered = iota
	fullCell
	partialCell
	certainCell
)

// cellLabel returns the label of cell c in s, by a scan of every run.
func cellLabel(s interval.Spans, c uint32) int {
	for i := range s {
		if lo, hi, full, certain := run(s, i); lo <= c && c <= hi {
			switch {
			case full:
				return fullCell
			case certain:
				return certainCell
			}
			return partialCell
		}
	}
	return uncovered
}

// FuzzCompare holds Compare, CompareWithin and Disjoint to a cell-by-cell
// oracle on two random run lists (fuzzGrid): each cell of the grid is
// labelled full, certain, partial or uncovered in each list; a cell full
// in one list and full or certain in the other is a true hit — for
// CompareWithin with cellWithin set, a cell full or certain in both —
// else a cell covered by both leaves the pair inconclusive, else the
// lists are disjoint. An empty list is inconclusive. Disjoint is whether
// the lists are disjoint. The last two seeds put a few runs against
// thirty, so CompareWithin gallops over most of the long list.
func FuzzCompare(f *testing.F) {
	f.Add([]byte{0, 4, 0, 3, 4, 1, 0, 5, 2, 7})
	f.Add([]byte{4, 9, 1, 255, 8, 40, 2, 200, 0, 255, 6, 3, 8, 1})
	f.Add([]byte{2, 6, 10, 20, 11, 3, 40, 2, 10, 60, 0, 9})
	f.Add([]byte{3, 8, 2, 5, 2, 3, 0, 4, 1, 2, 0, 9, 2, 6, 3, 5})
	f.Add([]byte{3, 8, 2, 5, 2, 3, 0, 4, 2, 2, 0, 9, 2, 6, 2, 5})
	long := bytes.Repeat([]byte{4, 1}, 30)
	f.Add(append(append([]byte{4, 120}, long...), 252, 0, 252, 0))
	f.Add(append(append([]byte{4, 8}, 254, 0, 7, 2), long...))
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 2 {
			t.Skip()
		}
		g, sa, sb := fuzzGrid(b)
		for _, cellWithin := range []bool{false, true} {
			want := interval.Reject
			if len(sa) == 0 || len(sb) == 0 {
				want = interval.Inconclusive
			}
			held := func(l int) bool { return l == fullCell || l == certainCell }
		cells:
			for c := range uint32(1) << (2 * g.Order) {
				switch la, lb := cellLabel(sa, c), cellLabel(sb, c); {
				case la == uncovered || lb == uncovered:
				case la == fullCell && lb != partialCell || lb == fullCell && la != partialCell,
					cellWithin && held(la) && held(lb):
					want = interval.TrueHit
					break cells
				default:
					want = interval.Inconclusive
				}
			}
			if got := interval.CompareWithin(sa, sb, cellWithin); got != want {
				t.Fatalf("CompareWithin(cellWithin %v) says %v, the cell oracle %v", cellWithin, got, want)
			}
			if got := interval.CompareWithin(sb, sa, cellWithin); got != want {
				t.Fatalf("CompareWithin(cellWithin %v) with the lists swapped says %v, the cell oracle %v", cellWithin, got, want)
			}
			if cellWithin {
				continue
			}
			if got := interval.Disjoint(sa, sb); got != (want == interval.Reject) || interval.Disjoint(sb, sa) != got {
				t.Fatalf("Disjoint says %v, the cell oracle %v", got, want)
			}
			if got := interval.Compare(sa, sb); got != want {
				t.Fatalf("Compare says %v, the cell oracle %v", got, want)
			}
			if got := interval.Compare(sb, sa); got != want {
				t.Fatalf("Compare with the lists swapped says %v, the cell oracle %v", got, want)
			}
		}
	})
}
