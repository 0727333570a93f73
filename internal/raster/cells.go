package raster

import (
	"math"

	"repro/internal/geom"
)

// CellCover rasterizes p's closed region onto a uniform square grid with
// interior/boundary labeling: cell (x, y) spans
// [ox+x·cs, ox+(x+1)·cs] × [oy+y·cs, oy+(y+1)·cs], and fn is called once
// per reported cell, restricted to the inclusive window [x0,x1]×[y0,y1]
// (which must cover p's MBR for the guarantees below to hold).
//
// The report is two-sided sound, which is what the interval filter's
// three-valued verdict rests on:
//
//   - Coverage (licenses rejects): every window cell whose closed
//     rectangle touches p's closed region is reported. Boundary cells
//     come from the conservative closed-cell walk ComputeSignature
//     also uses (markSegment: outward cellEps slack, clamped
//     attribution); interior cells from the fill below.
//
//   - Full labels are exact (licenses true hits): fn(x, y, true) is only
//     called when cell (x, y) provably lies entirely inside p's closed
//     region. An unmarked cell after the boundary walk contains no
//     boundary point at all (the walk over-marks, never under-marks), so
//     a maximal horizontal run of unmarked cells is connected and
//     boundary-free — it lies entirely inside or entirely outside p, and
//     one exact point-in-polygon test of any run point decides the whole
//     run.
//
// Boundary cells are reported with full=false even when the boundary
// only grazes them; that costs true-hit power, never soundness.
func CellCover(p *geom.Polygon, ox, oy, cs float64, x0, y0, x1, y1 int, fn func(x, y int, full bool)) {
	if p == nil || p.NumVerts() < 3 || cs <= 0 || x1 < x0 || y1 < y0 {
		return
	}
	w := x1 - x0 + 1
	h := y1 - y0 + 1
	marks := make([]uint64, (w*h+63)/64)
	bit := func(lx, ly int) int { return ly*w + lx }

	// Boundary walk, in the caller's global cell coordinates.
	for i := 0; i < p.NumEdges(); i++ {
		e := p.Edge(i)
		markSegment(marks, (e.A.X-ox)/cs, (e.A.Y-oy)/cs, (e.B.X-ox)/cs, (e.B.Y-oy)/cs, x0, y0, w, h)
	}

	// Row scan: emit boundary cells as partial; classify each maximal run
	// of unmarked cells with one exact test at the first cell's center
	// (unmarked ⇒ no boundary in the closed cell ⇒ the center is strictly
	// off-boundary and speaks for the whole connected run).
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

// markSegment is the conservative closed-cell boundary walk under both
// raster approximations (signatures and interval lists): it sets, in the
// row-major bitmap marks of a w×h cell window whose cell (0, 0) is grid
// cell (x0, y0), every cell whose closed square the segment
// (ax, ay)–(bx, by), given in cell units, may touch. The segment is swept
// column by column; each point is attributed to the closed cell holding
// it with cellEps of outward slack, and indexes are clamped into the
// window, so a segment on the window's max edge still marks the last row
// or column.
func markSegment(marks []uint64, ax, ay, bx, by float64, x0, y0, w, h int) {
	if ax > bx {
		ax, ay, bx, by = bx, by, ax, ay
	}
	cx0, cx1 := clampCell(ax-cellEps, x0, w), clampCell(bx+cellEps, x0, w)
	for cx := cx0; cx <= cx1; cx++ {
		var yl, yh float64
		if bx-ax <= cellEps {
			// (Near-)vertical in cell space: the whole y extent lands in
			// this column.
			yl, yh = math.Min(ay, by), math.Max(ay, by)
		} else {
			// y range of the segment across this column's x span.
			m := (by - ay) / (bx - ax)
			lo := math.Max(float64(cx+x0), ax)
			hi := math.Min(float64(cx+x0+1), bx)
			yl = ay + m*(lo-ax)
			yh = ay + m*(hi-ax)
			if yl > yh {
				yl, yh = yh, yl
			}
		}
		for cy, cy1 := clampCell(yl-cellEps, y0, h), clampCell(yh+cellEps, y0, h); cy <= cy1; cy++ {
			i := cy*w + cx
			marks[i>>6] |= 1 << uint(i&63)
		}
	}
}

// clampCell maps cell coordinate v to its index in a window of n cells
// starting at cell origin, clamped into the window.
func clampCell(v float64, origin, n int) int {
	i := int(math.Floor(v)) - origin
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
