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
// digit and the next state; the tables list them for every state. D and
// XY take two levels a lookup (an odd order's top level alone first).

// hilbertEncode[state<<2|xbit<<1|ybit] holds the level's digit in bits
// 0–1 and the next state in bits 2–3.
var hilbertEncode = [16]uint8{4, 1, 15, 2, 0, 11, 5, 6, 10, 7, 9, 12, 14, 13, 3, 8}

// hilbertDecode[state<<2|digit] holds the level's x bit in bit 1, its y
// bit in bit 0 and the next state in bits 2–3.
var hilbertDecode = [16]uint8{4, 1, 3, 14, 0, 6, 7, 9, 15, 10, 8, 5, 11, 13, 12, 2}

// hilbertEncode2 and hilbertDecode2 are the same tables two levels at a
// time, derived from them: hilbertEncode2[state<<4|xbits<<2|ybits], with
// the two levels' x bits and y bits upper level first, holds the two
// digits in bits 0–3 and the next state in bits 4–5;
// hilbertDecode2[state<<4|digits] holds the x bits in bits 2–3, the y
// bits in bits 0–1 and the next state in bits 4–5.
var hilbertEncode2, hilbertDecode2 = hilbertTables2()

func hilbertTables2() (enc, dec [64]uint8) {
	for st := range uint8(4) {
		for xx := range uint8(4) {
			for yy := range uint8(4) {
				e1 := hilbertEncode[st<<2|xx>>1<<1|yy>>1]
				e2 := hilbertEncode[e1>>2<<2|xx&1<<1|yy&1]
				enc[st<<4|xx<<2|yy] = e1&3<<2 | e2&3 | e2>>2<<4
			}
		}
		for dd := range uint8(16) {
			e1 := hilbertDecode[st<<2|dd>>2]
			e2 := hilbertDecode[e1>>2<<2|dd&3]
			x, y := e1>>1&1<<1|e2>>1&1, e1&1<<1|e2&1
			dec[st<<4|dd] = x<<2 | y | e2>>2<<4
		}
	}
	return enc, dec
}

// D returns the Hilbert-curve index of cell (x, y) on the 2^order grid
// (x, y < 2^order). Indexes fit 2·order bits; with order capped at
// MaxOrder they fit comfortably in 31 bits, which the packed span
// encoding relies on.
func D(order int, x, y uint32) uint32 {
	var d, st uint32
	i := order
	if i&1 != 0 {
		i--
		e := uint32(hilbertEncode[x>>i&1<<1|y>>i&1])
		d, st = e&3, e>>2
	}
	for i > 0 {
		i -= 2
		e := uint32(hilbertEncode2[st<<4|x>>i&3<<2|y>>i&3])
		d = d<<4 | e&15
		st = e >> 4
	}
	return d
}

// XY is the inverse of D: the cell coordinates of Hilbert index d on the
// 2^order grid.
func XY(order int, d uint32) (x, y uint32) {
	var st uint32
	i := order
	if i&1 != 0 {
		i--
		e := uint32(hilbertDecode[d>>(2*i)&3])
		x, y, st = e>>1&1, e&1, e>>2
	}
	for i > 0 {
		i -= 2
		e := uint32(hilbertDecode2[st<<4|d>>(2*i)&15])
		x = x<<2 | e>>2&3
		y = y<<2 | e&3
		st = e >> 4
	}
	return x, y
}
