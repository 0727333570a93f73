package interval

import "math/bits"

// MaxDilation is the most cells Dilate widens a list by: a
// within-distance join whose d spans more cells of its grid skips the
// interval reject.
// A dilated list costs more to build and to compare the wider k is, while
// a pair farther apart than its cells can show is mostly rejected by the
// MBR distance test already.
const MaxDilation = 8

// Dilate returns the column whose list for object id covers every grid
// cell within k cells on both axes (the Chebyshev k-neighbourhood) of a
// partial cell of c's list for id, clipped to the grid, as partial runs
// only: lists in which no cell is full or certain, so Compare against one
// returns Reject or Inconclusive, never TrueHit. An empty list makes no
// claim (Compare is Inconclusive against it), and that is what an object
// gets whose list has no partial cell or whose partial cells span more
// than MaxWindowCells cells, and what every object gets when k exceeds
// MaxDilation: no list Rasterize builds spans more, but a persisted one
// may claim anything Validate accepts, and this bounds the bitmap.
//
// This is the paper's widen-by-D distance filter (§3.3) on interval
// lists. With k·CellSize() ≥ d, a point p within d of a point q differs
// from it by at most k cells on either axis, so when p's and q's cells are
// in their objects' lists, p's cell is in the k-neighbourhood of q's
// object's cover. That neighbourhood is the cover ∪ the dilated list: a
// cell's eight neighbours touch it, so every neighbour of a full cell is
// covered, and on a king-move path from a full cell to an uncovered cell
// within k of it the last covered cell is partial and within k of the
// uncovered one. So Compare(P, Q) == Reject together with Compare(P,
// Q's dilated list) == Reject proves P and Q more than d apart.
//
// The lists hold those cells when both objects lie wholly inside the
// grid: a list then covers every cell its object's closed region touches.
// A list clipped at the grid's edge may miss the cells where the two come
// within d, so both sides must lie inside the grid, as a join's pair grid
// (the union square of both layers) guarantees.
//
// Each object's partial runs are decoded into aligned Hilbert blocks (one
// XY per block), each block grown by k on every side is marked in a
// bitmap of the window they span, and the bitmap is read back in Hilbert
// order by a quadtree walk that emits a whole block when its bits are all
// set and reads the last two levels from a table. The column is split
// over runtime.GOMAXPROCS(0) workers like Build, and is the same at any
// worker count.
func (c *Column) Dilate(k int) *Column {
	return gather(c.Len(), c.Grid, func() *dilater { return new(dilater) },
		func(z *dilater, dst Spans, id int) Spans { return z.append(dst, c.Spans(id), c.Grid.Order, k) })
}

// hilbertBits[state<<1|half][b] is the 4×4 block in curve state state
// with rows 2·half and 2·half+1 given by b, row-major, bit 4·row+x
// being cell (x, row), as a mask of curve positions within the block.
var hilbertBits = func() (t [8][256]uint16) {
	for st := range 4 {
		for half := range 2 {
			for b := range 256 {
				for bit := range 8 {
					if b>>bit&1 != 0 {
						x, y := bit&3, 2*half+bit>>2
						t[st<<1|half][b] |= 1 << (hilbertEncode2[st<<4|x<<2|y] & 15)
					}
				}
			}
		}
	}
	return t
}()

// dilater widens one list at a time, keeping its bitmap and block buffer
// between lists.
type dilater struct {
	blocks []block
	// bitmap holds the window's rows, row y at (y-y0)*stride; bit x&63 of
	// word x>>6-wx0 of a row is cell (x, y). Words are aligned on the grid's
	// 64-cell columns, so an aligned block up to 64 cells wide lies in
	// one word of each row.
	bitmap      []uint64
	stride, wx0 int
	y0, y1, wx1 int
	// dst is the list being emitted from index from on; lo and hi are its
	// last run's bounds.
	dst    Spans
	from   int
	lo, hi uint32
}

// block is an aligned 2^j×2^j square of cells at (x, y).
type block struct {
	x, y uint32
	j    int
}

// append appends s dilated by k on the 2^order grid to dst.
func (z *dilater) append(dst Spans, s Spans, order, k int) Spans {
	// The aligned blocks of every partial run, and their bounding cells.
	z.blocks = z.blocks[:0]
	x0, y0, x1, y1 := ^uint32(0), ^uint32(0), uint32(0), uint32(0)
	for i := 0; i < len(s); {
		var lo, hi uint32
		var full bool
		if lo, hi, full, i = nextRun(s, i); full {
			continue
		}
		for lo <= hi {
			j := min(bits.TrailingZeros32(lo), bits.Len32(hi-lo+1)-1, 2*order) / 2
			x, y := XY(order-j, lo>>(2*j))
			x, y = x<<j, y<<j
			z.blocks = append(z.blocks, block{x, y, j})
			side := uint32(1)<<j - 1
			x0, y0 = min(x0, x), min(y0, y)
			x1, y1 = max(x1, x+side), max(y1, y+side)
			lo += uint32(1) << (2 * j)
		}
	}
	if len(z.blocks) == 0 || k > MaxDilation || uint64(x1-x0+1)*uint64(y1-y0+1) > MaxWindowCells {
		return dst
	}
	// The window: the bounding cells widened by k, clipped to the grid.
	last := 1<<order - 1
	grow := func(lo, hi uint32) (int, int) { return max(int(lo)-k, 0), min(int(hi)+k, last) }
	wx0, wx1 := grow(x0, x1)
	z.y0, z.y1 = grow(y0, y1)
	z.wx0, z.wx1 = wx0>>6, wx1>>6
	z.stride = z.wx1 - z.wx0 + 1
	words := z.stride * (z.y1 - z.y0 + 1)
	if cap(z.bitmap) < words {
		z.bitmap = make([]uint64, words)
	}
	z.bitmap = z.bitmap[:words]
	clear(z.bitmap)
	for _, b := range z.blocks {
		side := 1<<b.j - 1
		z.mark(max(int(b.x)-k, wx0), min(int(b.x)+side+k, wx1), max(int(b.y)-k, z.y0), min(int(b.y)+side+k, z.y1))
	}

	// The walk starts at the smallest aligned block holding the window,
	// whose index and curve state are those of its top order-j levels.
	j := max(bits.Len32(uint32(wx0^wx1)|uint32(z.y0^z.y1)), 2)
	bx, by := uint32(wx0)>>j<<j, uint32(z.y0)>>j<<j
	var d, st uint32
	for i := order - 1; i >= j; i-- {
		e := uint32(hilbertEncode[st<<2|bx>>i&1<<1|by>>i&1])
		d = d<<2 | e&3
		st = e >> 2
	}
	z.dst, z.from = dst, len(dst)
	z.walk(bx, by, j, d<<(2*j), st)
	dst, z.dst = z.dst, nil
	return dst
}

// mark sets cells lo..hi of rows ylo..yhi.
func (z *dilater) mark(lo, hi, ylo, yhi int) {
	for w := lo >> 6; w <= hi>>6; w++ {
		m := ^uint64(0)
		if w == lo>>6 {
			m <<= uint(lo & 63)
		}
		if w == hi>>6 {
			m &= ^uint64(0) >> uint(63-hi&63)
		}
		for i, y := (ylo-z.y0)*z.stride+w-z.wx0, ylo; y <= yhi; i, y = i+z.stride, y+1 {
			z.bitmap[i] |= m
		}
	}
}

// walk emits, in Hilbert order, the set cells of the aligned 2^j block at
// (x, y), j ≥ 2, whose first index is d and whose curve state is st.
func (z *dilater) walk(x, y uint32, j int, d, st uint32) {
	if j <= 3 {
		z.leaf(x, y, j, d, st)
		return
	}
	set, unset := z.probe(x, y, j)
	switch {
	case !set:
		return
	case !unset:
		z.emit(d, d+uint32(1)<<(2*j)-1)
		return
	}
	j--
	for q := range uint32(4) {
		e := uint32(hilbertDecode[st<<2|q])
		z.walk(x+(e>>1&1)<<j, y+(e&1)<<j, j, d+q<<(2*j), e>>2)
	}
}

// leaf emits the set cells of the aligned 2^j block at (x, y), j 2 or 3,
// whose first index is d and whose curve state is st, run by run from a
// mask of its cells in curve order.
func (z *dilater) leaf(x, y uint32, j int, d, st uint32) {
	var h uint64
	if j == 2 {
		h = uint64(z.quad(x, y, st))
	} else {
		for q := range uint32(4) {
			e := uint32(hilbertDecode[st<<2|q])
			h |= uint64(z.quad(x+(e>>1&1)<<2, y+(e&1)<<2, e>>2)) << (16 * q)
		}
	}
	for h != 0 {
		lo := uint32(bits.TrailingZeros64(h))
		n := uint32(bits.TrailingZeros64(^(h >> lo)))
		z.emit(d+lo, d+lo+n-1)
		h &^= (1<<n - 1) << lo
	}
}

// quad returns the aligned 4×4 block at (x, y) in curve state st as a mask
// of its set cells' curve positions: its rows, gathered row-major, put in
// curve order by two lookups in hilbertBits.
func (z *dilater) quad(x, y uint32, st uint32) uint16 {
	w := int(x)>>6 - z.wx0
	if w < 0 || w >= z.stride {
		return 0
	}
	var rows uint32
	for r := range 4 {
		if yy := int(y) + r; yy >= z.y0 && yy <= z.y1 {
			rows |= uint32(z.bitmap[(yy-z.y0)*z.stride+w]>>(x&63)&15) << (4 * r)
		}
	}
	if rows == 0 {
		return 0
	}
	return hilbertBits[st<<1][rows&0xff] | hilbertBits[st<<1|1][rows>>8]
}

// probe reports whether the aligned 2^j block at (x, y) holds a set cell
// and an unset one, stopping as soon as it has seen both.
func (z *dilater) probe(x, y uint32, j int) (set, unset bool) {
	side := 1 << j
	ylo, yhi := max(int(y), z.y0), min(int(y)+side-1, z.y1)
	wlo, whi := max(int(x)>>6, z.wx0), min((int(x)+side-1)>>6, z.wx1)
	if ylo > yhi || wlo > whi {
		return false, true
	}
	m := ^uint64(0)
	if side < 64 {
		m = (uint64(1)<<side - 1) << (x & 63)
	}
	// or and and gather the block's bits over its rows and words.
	or, and := uint64(0), m
	if yhi-ylo+1 < side || (whi-wlo+1)<<6 < side {
		and = 0 // part of the block lies outside the window
	}
	n := whi - wlo + 1
	for i := (ylo-z.y0)*z.stride + wlo - z.wx0; ylo <= yhi; ylo, i = ylo+1, i+z.stride {
		for _, v := range z.bitmap[i : i+n] {
			or |= v & m
			and &= v
		}
		if or != 0 && and != m {
			return true, true
		}
	}
	return or != 0, and != m
}

// emit appends run [lo, hi] as partial, extending the previous run when
// it ends right before lo.
func (z *dilater) emit(lo, hi uint32) {
	if n := len(z.dst); n > z.from && z.hi+1 == lo {
		z.dst[n-1] = pack(z.lo, hi, 0)
	} else {
		z.dst = append(z.dst, pack(lo, hi, 0))
		z.lo = lo
	}
	z.hi = hi
}
