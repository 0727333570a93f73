package interval

import (
	"math"
	"math/bits"
)

// MaxDilation is the most cells a band is widened by on the grid it is
// built on: a reject band for a wider distance is built on 2^m-aligned
// blocks, the cells of a coarser order, where it spans at most
// MaxDilation of them, and a hit band stops at it. A band costs more to
// build and to compare the wider it is, in cells, while a pair farther
// apart than its cells can show is mostly rejected by the MBR distance
// test already.
const MaxDilation = 8

// RejectDilation returns the cells k a reject band for distance d widens
// by on g (see Dilate): the smallest k with k·CellSize() ≥ d, capped at
// the grid's side, past which a wider band covers nothing more. Cells are
// powers of two on canonical squares, so the quotient is exact. A d that
// is not a number ≥ 0, at which no pair passes a distance test's MBR
// step, gets 0.
func (g Grid) RejectDilation(d float64) int {
	if !(d >= 0) {
		return 0
	}
	return int(min(math.Ceil(d/g.CellSize()), float64(g.Cells())))
}

// HitDilation returns the cells j a hit band for distance d widens by on
// g (see DilateHits): the largest j ≤ MaxDilation with
// (j+1)·CellSize()·√2 ≤ d, so that two closed cells at most j apart on
// each axis hold no two points farther apart than d, or −1 when one
// cell's diagonal exceeds d (or g is not Valid). At 0 the band is the
// list's own full and certain cells, which CompareWithin reads without
// building one.
func (g Grid) HitDilation(d float64) int {
	if !g.Valid() || !(d >= 0) {
		return -1
	}
	diag := g.CellSize() * math.Sqrt2
	n := min(math.Floor(d/diag), MaxDilation+1)
	for n >= 1 && n*diag > d { // the quotient rounded up
		n--
	}
	for n <= MaxDilation && (n+1)*diag <= d { // or down
		n++
	}
	return int(n) - 1
}

// Dilate returns the reject band for a distance of k cells: the column
// whose list for object id covers every grid cell within k cells on both
// axes (the Chebyshev k-neighbourhood) of a partial cell of c's list for
// id, clipped to the grid, as partial runs only: lists in which no cell
// is full or certain, so Compare against one returns Reject or
// Inconclusive, never TrueHit. Past MaxDilation the band is built on
// aligned 2^m×2^m blocks, m the least with ⌈k / 2^m⌉ ≤ MaxDilation: every
// block within ⌈k / 2^m⌉ blocks of a block holding a partial cell, each
// block a run of 4^m consecutive cells. An empty list makes no claim
// (Compare is Inconclusive against it), and that is what an object gets
// whose list has no partial cell or whose partial cells span more than
// MaxWindowCells cells, or blocks: no list Rasterize builds spans more,
// but a persisted one may claim anything Validate accepts, and this
// bounds the bitmap.
//
// This is the paper's widen-by-D distance filter (§3.3) on interval
// lists. With k·CellSize() ≥ d, a point p within d of a point q differs
// from it by at most k cells on either axis, so when p's and q's cells are
// in their objects' lists, p's cell is in the k-neighbourhood of q's
// object's cover. That neighbourhood is the cover ∪ the band: a cell's
// eight neighbours touch it, so every neighbour of a full cell is
// covered, and on a king-move path from a full cell to an uncovered cell
// within k of it the last covered cell is partial and within k of the
// uncovered one. So Compare(P, Q) == Reject together with Compare(P,
// Q's band) == Reject proves P and Q more than d apart. The blocks keep
// the argument one level up: p and q are at most ⌈k / 2^m⌉ blocks apart;
// a block with a full cell and no partial one is all full (the cover
// spreads from cell to neighbouring cell and none of them is partial);
// and a king-move path of blocks from q's block to p's either meets a
// block holding a partial cell, within ⌈k / 2^m⌉ of p's, or ends on an
// all-full block, whose cells, p's among them, Q's list covers.
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
	k = min(k, c.Grid.Cells())
	m := 0
	for k > MaxDilation<<m {
		m++
	}
	return c.band((k+1<<m-1)>>m, m, false)
}

// DilateHits returns the hit band for j cells (j at most MaxDilation;
// more dilates by MaxDilation): the column whose list for object id
// covers every grid cell within j cells on both axes of a full or certain
// cell of c's list for id, clipped to the grid, as full runs. A full or
// certain cell holds a point of its object, so a full or certain cell of
// P that the band covers lies at most j cells on each axis from one of
// Q's, and holds a point at most (j+1)·CellSize()·√2 from a point of Q:
// with j = HitDilation(d), Compare(P, Q's hit band) == TrueHit proves P
// and Q within d. Unlike the reject band this needs no path argument and
// holds for any lists, but its points must lie in their cells, so, like
// the reject band, it is sound only for objects inside the grid. An
// object whose full and certain cells span more than MaxWindowCells
// cells gets an empty list, which makes no claim.
func (c *Column) DilateHits(j int) *Column {
	return c.band(min(j, MaxDilation), 0, true)
}

// band builds the column of c's lists dilated by k cells of the order
// c.Grid.Order−m grid: the partial runs, labelled partial, or with hits
// the full and certain ones, labelled full.
func (c *Column) band(k, m int, hits bool) *Column {
	return gather(c.Len(), c.Grid, func() *dilater { return &dilater{hits: hits} },
		func(z *dilater, dst Spans, id int) Spans { return z.append(dst, c.Spans(id), c.Grid.Order, k, m) })
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
	// hits widens the full and certain runs and labels the band full (a
	// hit band); otherwise it widens the partial runs, labelled partial
	// (a reject band).
	hits   bool
	blocks []block
	// bitmap holds the window's rows, row y at (y-y0)*stride; bit x&63 of
	// word x>>6-wx0 of a row is cell (x, y). Words are aligned on the grid's
	// 64-cell columns, so an aligned block up to 64 cells wide lies in
	// one word of each row.
	bitmap      []uint64
	stride, wx0 int
	y0, y1, wx1 int
	// dst is the list being emitted from index from on; lo and hi are its
	// last run's bounds. shift is twice the levels the walk's grid lies
	// above the list's: a walked cell is a run of 1<<shift of its cells.
	dst    Spans
	from   int
	lo, hi uint32
	shift  int
}

// block is an aligned 2^j×2^j square of cells at (x, y).
type block struct {
	x, y uint32
	j    int
}

// widens reports whether the run packed in v is one the band widens.
func (z *dilater) widens(v uint64) bool {
	if z.hits {
		return v&(fullBit|certainBit) != 0
	}
	return v&fullBit == 0
}

// append appends s, a list on the 2^order grid, dilated by k cells of the
// 2^(order−m) grid, to dst.
func (z *dilater) append(dst Spans, s Spans, order, k, m int) Spans {
	// The aligned blocks of every widened run, merged with the widened
	// runs right after it, on the coarser grid, and their bounding cells.
	order -= m
	z.shift = 2 * m
	z.blocks = z.blocks[:0]
	x0, y0, x1, y1 := ^uint32(0), ^uint32(0), uint32(0), uint32(0)
	var next uint32 // the first coarse cell not yet decoded
	for i := 0; i < len(s); {
		if !z.widens(s[i]) {
			i++
			continue
		}
		lo, hi, _ := unpack(s[i])
		for i++; i < len(s) && z.widens(s[i]) && uint32(s[i]>>32) == hi+1; i++ {
			_, hi, _ = unpack(s[i])
		}
		lo, hi = max(lo>>z.shift, next), hi>>z.shift
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
		next = max(next, lo)
	}
	if len(z.blocks) == 0 || uint64(x1-x0+1)*uint64(y1-y0+1) > MaxWindowCells {
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

// emit appends the cells of walked run [lo, hi], labelled full in a hit
// band and partial in a reject band, extending the previous run when it
// ends right before them.
func (z *dilater) emit(lo, hi uint32) {
	var flag uint64
	if z.hits {
		flag = fullBit
	}
	lo, hi = lo<<z.shift, (hi+1)<<z.shift-1
	if n := len(z.dst); n > z.from && z.hi+1 == lo {
		z.dst[n-1] = pack(z.lo, hi, flag)
	} else {
		z.dst = append(z.dst, pack(lo, hi, flag))
		z.lo = lo
	}
	z.hi = hi
}
