package raster

import (
	"math"

	"repro/internal/geom"
)

// BoundaryMarks marks p's boundary on a uniform square grid whose cell
// (x, y) spans [ox+x·cs, ox+(x+1)·cs] × [oy+y·cs, oy+(y+1)·cs]. It returns
// the row-major bitmap of the inclusive window [x0,x1]×[y0,y1], built in
// marks' storage when it is large enough (its contents are ignored): bit
// (y−y0)·w + (x−x0), w = x1−x0+1, is set for every window cell whose
// closed square the boundary may touch (markSegment, the walk
// ComputeSignature also uses).
//
// The marking over-marks, never under-marks: a clear window cell holds no
// boundary point, so its closed square lies wholly inside or wholly
// outside p's closed region. That is what lets the interval lists label
// every clear cell with one exact point-in-polygon test per connected run
// (internal/interval).
//
// When inner is not nil it must be as long as the returned bitmap; it is
// cleared and then set, in the same layout, for every window cell an edge
// meets at least cellEps inside on both axes. Those cells certainly hold a
// boundary point (the interval lists' certain cells): the margin absorbs
// the rounding of the division into cell units and of the interpolation
// along the edge, which an edge with an endpoint beyond maxInnerCoord cells
// of the grid's origin could exceed, so such an edge sets none.
func BoundaryMarks(marks, inner []uint64, p *geom.Polygon, ox, oy, cs float64, x0, y0, x1, y1 int) []uint64 {
	w, h := x1-x0+1, y1-y0+1
	n := (w*h + 63) / 64
	if cap(marks) < n {
		marks = make([]uint64, n)
	} else {
		marks = marks[:n]
		clear(marks)
	}
	clear(inner)
	for i := 0; i < p.NumEdges(); i++ {
		e := p.Edge(i)
		markSegment(marks, inner, (e.A.X-ox)/cs, (e.A.Y-oy)/cs, (e.B.X-ox)/cs, (e.B.Y-oy)/cs, x0, y0, w, h)
	}
	return marks
}

// maxInnerCoord bounds, in cells, the segment endpoints markSegment marks
// inner cells for: within it the interpolation errs by well under cellEps.
const maxInnerCoord = 1 << 20

// markSegment is the conservative closed-cell boundary walk under both
// raster approximations (ComputeSignature and BoundaryMarks): it sets, in
// the row-major bitmap marks of a w×h cell window whose cell (0, 0) is grid
// cell (x0, y0), every cell whose closed square the segment
// (ax, ay)–(bx, by), given in cell units, may touch. The segment is swept
// column by column; each point is attributed to the closed cell holding
// it with cellEps of outward slack, and indexes are clamped into the
// window, so a segment on the window's max edge still marks the last row
// or column. When inner is not nil it also sets there every cell the
// segment meets at least cellEps inside on both axes, from the part of
// the segment at least cellEps inside each column; a (near-)vertical
// segment, whose slope is not to be trusted, counts only in a column it
// lies wholly inside.
func markSegment(marks, inner []uint64, ax, ay, bx, by float64, x0, y0, w, h int) {
	if ax > bx {
		ax, ay, bx, by = bx, by, ax, ay
	}
	if inner != nil && !(ax >= -maxInnerCoord && bx <= maxInnerCoord && ay >= -maxInnerCoord && ay <= maxInnerCoord &&
		by >= -maxInnerCoord && by <= maxInnerCoord) {
		inner = nil
	}
	cx0, cx1 := clampCell(ax-cellEps, x0, w), clampCell(bx+cellEps, x0, w)
	for cx := cx0; cx <= cx1; cx++ {
		col := float64(cx + x0)
		var yl, yh float64
		if bx-ax <= cellEps {
			// (Near-)vertical in cell space: the whole y extent lands in
			// this column.
			yl, yh = math.Min(ay, by), math.Max(ay, by)
			if inner != nil && ax >= col+cellEps && bx <= col+1-cellEps {
				markInner(inner, yl, yh, cx, y0, w, h)
			}
		} else {
			// y range of the segment across this column's x span.
			m := (by - ay) / (bx - ax)
			lo := math.Max(col, ax)
			hi := math.Min(col+1, bx)
			yl = ay + m*(lo-ax)
			yh = ay + m*(hi-ax)
			if inner != nil {
				if lo, hi := math.Max(col+cellEps, ax), math.Min(col+1-cellEps, bx); lo <= hi {
					markInner(inner, ay+m*(lo-ax), ay+m*(hi-ax), cx, y0, w, h)
				}
			}
			if yl > yh {
				yl, yh = yh, yl
			}
		}
		if yl != yl || yh != yh {
			// NaN: the edge's cell coordinates overflowed to infinities and
			// left no extent to interpolate. The whole column covers it.
			yl, yh = math.Inf(-1), math.Inf(1)
		}
		for cy, cy1 := clampCell(yl-cellEps, y0, h), clampCell(yh+cellEps, y0, h); cy <= cy1; cy++ {
			i := cy*w + cx
			marks[i>>6] |= 1 << uint(i&63)
		}
	}
}

// markInner sets, in window column cx of inner, every cell whose rows the
// y range yl..yh (either order) reaches at least cellEps into.
func markInner(inner []uint64, yl, yh float64, cx, y0, w, h int) {
	if yl > yh {
		yl, yh = yh, yl
	}
	for cy, cy1 := max(0, int(math.Ceil(yl-1+cellEps))-y0), min(h-1, int(math.Floor(yh-cellEps))-y0); cy <= cy1; cy++ {
		i := cy*w + cx
		inner[i>>6] |= 1 << uint(i&63)
	}
}

// clampCell maps cell coordinate v to its index in a window of n cells
// starting at cell origin, clamped into the window — in floating point,
// since a far vertex's cell coordinate does not fit an int.
func clampCell(v float64, origin, n int) int {
	i := math.Floor(v) - float64(origin)
	switch {
	case i < 0:
		return 0
	case i >= float64(n):
		return n - 1
	}
	return int(i)
}
