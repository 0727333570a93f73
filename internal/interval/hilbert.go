package interval

// Hilbert-curve cell ordering. Cells of the 2^order × 2^order grid are
// numbered along the Hilbert curve so that consecutive indexes are
// spatially adjacent cells: a compact object's rasterization collapses
// into a handful of consecutive index runs, which is what makes the
// interval-list encoding small and the pair test a linear merge
// ("Raster Interval Object Approximations", PAPERS.md).
//
// Both directions walk the levels from the top and keep a state: the
// symmetry that maps the current sub-square onto the curve's base
// orientation, one of identity, transpose (bit 0), rotation by a half
// turn (bit 1) and both. The quadrant a level picks fixes its two-bit
// digit and the next state; the tables list them for every state, one
// lookup a level.

// hilbertEncode[state<<2|xbit<<1|ybit] holds the level's digit in bits
// 0–1 and the next state in bits 2–3.
var hilbertEncode = [16]uint8{4, 1, 15, 2, 0, 11, 5, 6, 10, 7, 9, 12, 14, 13, 3, 8}

// hilbertDecode[state<<2|digit] holds the level's x bit in bit 1, its y
// bit in bit 0 and the next state in bits 2–3.
var hilbertDecode = [16]uint8{4, 1, 3, 14, 0, 6, 7, 9, 15, 10, 8, 5, 11, 13, 12, 2}

// D returns the Hilbert-curve index of cell (x, y) on the 2^order grid
// (x, y < 2^order). Indexes fit 2·order bits; with order capped at
// MaxOrder they fit comfortably in 31 bits, which the packed span
// encoding relies on.
func D(order int, x, y uint32) uint32 {
	var d, st uint32
	for i := order - 1; i >= 0; i-- {
		e := uint32(hilbertEncode[st<<2|(x>>i&1)<<1|y>>i&1])
		d = d<<2 | e&3
		st = e >> 2
	}
	return d
}

// XY is the inverse of D: the cell coordinates of Hilbert index d on the
// 2^order grid.
func XY(order int, d uint32) (x, y uint32) {
	var st uint32
	for i := order - 1; i >= 0; i-- {
		e := uint32(hilbertDecode[st<<2|d>>(2*i)&3])
		x = x<<1 | e>>1&1
		y = y<<1 | e&1
		st = e >> 2
	}
	return x, y
}
