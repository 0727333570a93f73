package interval

// Hilbert-curve cell ordering. Cells of the 2^order × 2^order grid are
// numbered along the Hilbert curve so that consecutive indexes are
// spatially adjacent cells: a compact object's rasterization collapses
// into a handful of consecutive index runs, which is what makes the
// interval-list encoding small and the pair test a linear merge
// ("Raster Interval Object Approximations", PAPERS.md).

// D returns the Hilbert-curve index of cell (x, y) on the 2^order grid
// (x, y < 2^order). Indexes fit 2·order bits; with order capped at
// MaxOrder they fit comfortably in 31 bits, which the packed span
// encoding relies on.
func D(order int, x, y uint32) uint32 {
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

// XY is the inverse of D: the cell coordinates of Hilbert index d on the
// 2^order grid. Rasterize uses it to find the cell that speaks for a gap.
func XY(order int, d uint32) (x, y uint32) {
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
