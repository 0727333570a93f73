package interval

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/edgeindex"
	"repro/internal/geom"
	"repro/internal/raster"
)

// Verdict is the three-valued outcome of an interval-list pair test.
type Verdict int8

const (
	// Inconclusive makes no claim: the pair refines exactly as without
	// intervals. Also returned whenever either side has no spans.
	Inconclusive Verdict = iota
	// TrueHit proves the regions intersect: some cell covered in full by
	// one object is covered in full by the other too, or holds a point of
	// the other's boundary (a certain cell), so the pair is reported
	// without any refinement.
	TrueHit
	// Reject proves the regions are disjoint: the span lists — each a
	// conservative cover of its object's whole region, interior included
	// — share no cell.
	Reject
)

func (v Verdict) String() string {
	switch v {
	case TrueHit:
		return "true-hit"
	case Reject:
		return "reject"
	default:
		return "inconclusive"
	}
}

// Spans is one object's approximation: sorted, non-overlapping inclusive
// runs [lo, hi] of Hilbert cell indexes, each labeled full, certain or
// partial. Packed one uint64 per run — lo in bits 32..63, hi in bits
// 1..30, the certain flag in bit 31 and the full flag in bit 0 — so a
// persisted column is a flat little-endian uint64 array the snapshot
// reader can alias straight out of the mmap. Cell indexes are below 2^30
// (MaxOrder), so bit 31, the top bit of a 31-bit hi field, is free for the
// flag; a reader that predates it sees hi beyond the grid and rejects the
// list.
//
// Invariants (Validate enforces them on untrusted input): lo ≤ hi, hi
// below the grid's cell count, no run both full and certain, and each run
// strictly after the previous one. A full run means every cell in it lies
// entirely inside the object's closed region (an exact claim — this is
// what licenses the full/full true hit); a partial run means the boundary
// may pass through. A certain run is a partial run each of whose cells
// the object's boundary meets at least cellEps inside on both axes: a
// point of the object's closed region certainly lies in every such cell
// (also exact — this is what licenses the full/certain true hit). The
// union of all runs covers every grid cell the closed region touches
// (conservative — this is what licenses the reject). Rasterize splits a
// partial run only where the certain flag changes, so its adjacent
// partial runs, merged, are the runs the boundary walk marked.
type Spans []uint64

const (
	fullBit    = 1
	certainBit = 1 << 31
)

// pack encodes run [lo, hi] with flag fullBit, certainBit or 0 (partial).
func pack(lo, hi uint32, flag uint64) uint64 {
	return uint64(lo)<<32 | uint64(hi)<<1 | flag
}

func unpack(v uint64) (lo, hi uint32, full bool) {
	return uint32(v >> 32), uint32(v>>1) & 0x3fffffff, v&fullBit != 0
}

// Validate checks the Spans invariants against a grid order, returning a
// plain error describing the first violation. The snapshot reader runs
// it on every persisted list so corrupt interval sections fail closed at
// open time, never mid-query.
func (s Spans) Validate(order int) error {
	if order < MinOrder || order > MaxOrder {
		return fmt.Errorf("grid order %d out of [%d, %d]", order, MinOrder, MaxOrder)
	}
	limit := uint32(1) << (2 * uint(order))
	var prev uint32
	for i, v := range s {
		lo, hi, full := unpack(v)
		if lo > hi {
			return fmt.Errorf("run %d inverted: lo %d > hi %d", i, lo, hi)
		}
		if hi >= limit {
			return fmt.Errorf("run %d cell %d beyond the %d-cell grid", i, hi, limit)
		}
		if full && v&certainBit != 0 {
			return fmt.Errorf("run %d both full and certain", i)
		}
		if i > 0 && lo <= prev {
			return fmt.Errorf("run %d unsorted or overlapping: lo %d after hi %d", i, lo, prev)
		}
		prev = hi
	}
	return nil
}

// Compare merge-scans two span lists from the same grid and returns the
// three-valued verdict: CompareWithin without cellWithin, the same scan.
// Lists from different grids must not be compared — the layer plumbing
// guarantees both sides share one Grid.
//
// Rasterize clips an object that leaves its grid, and the clipped walk
// does not keep what lies outside, so two objects that meet only outside
// the grid can have disjoint lists. A Reject is therefore sound only when
// one of the two objects lies wholly inside the grid. The layer plumbing
// meets this for every pair it compares: a join's grid covers the union
// of both layers' bounds, and a persisted grid is used only when both
// sides carry it, each covering its own layer (query.TestJoinOutsideSnapshotGrid).
//
// A cell both lists cover decides a true hit when it is full in one list
// and full or certain in the other. A full cell of A lies, closed square
// and all, in A's closed region; a full cell of B does too, and a certain
// cell of B holds a point of B's boundary. Either way a point of B lies in
// A's closed region, so the regions intersect. Two certain cells prove
// nothing: two boundaries through one cell need not meet.
func Compare(a, b Spans) Verdict {
	return CompareWithin(a, b, false)
}

// CompareWithin merge-scans two span lists and returns Compare's verdict,
// for a distance test that a cell's diagonal does not exceed (cellWithin;
// Grid.HitDilation(d) ≥ 0) with one more true hit: a cell full or certain
// in both lists, certain in both included. Each such cell holds a point
// of its object, and two points of one closed cell are at most its
// diagonal apart. A true hit stops the scan early; no allocation.
//
// The scan gallops: a run that ends before the other list's current run
// steps to the next, and when that one ends before it too, skips ahead by
// doubling steps and a binary search (skipTo). So the scan of a long list
// against a short or distant one — P against a band of Q's, or the lists
// of a pair far apart on the curve — costs about the short list's runs,
// not the long one's, while lists that interleave cost one step a run.
func CompareWithin(a, b Spans, cellWithin bool) Verdict {
	if len(a) == 0 || len(b) == 0 {
		return Inconclusive
	}
	overlap := false
	i, j := 0, 0
	alo, ahi, af := unpack(a[0])
	blo, bhi, bf := unpack(b[0])
	for {
		if ahi < blo {
			if i++; i == len(a) {
				break
			}
			if alo, ahi, af = unpack(a[i]); ahi < blo {
				if i = skipTo(a, i, blo); i == len(a) {
					break
				}
				alo, ahi, af = unpack(a[i])
			}
			continue
		}
		if bhi < alo {
			if j++; j == len(b) {
				break
			}
			if blo, bhi, bf = unpack(b[j]); bhi < alo {
				if j = skipTo(b, j, alo); j == len(b) {
					break
				}
				blo, bhi, bf = unpack(b[j])
			}
			continue
		}
		// Runs overlap: at least one cell is covered by both objects. ah,
		// bh: the cell holds a point of the object (full or certain).
		ah, bh := af || a[i]&certainBit != 0, bf || b[j]&certainBit != 0
		if af && bh || bf && ah || cellWithin && ah && bh {
			return TrueHit
		}
		overlap = true
		if ahi < bhi {
			if i++; i == len(a) {
				break
			}
			alo, ahi, af = unpack(a[i])
		} else {
			if j++; j == len(b) {
				break
			}
			blo, bhi, bf = unpack(b[j])
		}
	}
	if overlap {
		return Inconclusive
	}
	return Reject
}

// runEnd returns the last cell of the packed run v.
func runEnd(v uint64) uint32 { return uint32(v>>1) & 0x3fffffff }

// skipTo returns the index of the first run of s after i that ends at or
// after cell c, or len(s), given that run i ends before c: steps of 1, 2,
// 4, … and then a binary search between the last two. Runs are sorted
// and disjoint, so their ends ascend.
func skipTo(s Spans, i int, c uint32) int {
	lo, step := i, 1
	for lo+step < len(s) && runEnd(s[lo+step]) < c {
		lo, step = lo+step, 2*step
	}
	hi := min(lo+step, len(s))
	for lo+1 < hi {
		if mid := int(uint(lo+hi) >> 1); runEnd(s[mid]) < c {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Disjoint reports whether Compare(a, b) is Reject: both lists non-empty
// (an empty list makes no claim) and no cell in both, whatever its
// labels. It stops at the first shared cell, where Compare scans on for a
// true hit: the within verdict's reject-band test, whose band holds no
// full or certain cell to find.
func Disjoint(a, b Spans) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		alo, ahi, _ := unpack(a[i])
		blo, bhi, _ := unpack(b[j])
		switch {
		case ahi < blo:
			i++
		case bhi < alo:
			j++
		default:
			return false
		}
	}
	return true
}

// Rasterize computes p's span list on g. Its cost follows the boundary,
// not the window's area: the conservative closed-cell walk
// (raster.BoundaryMarks) marks the boundary cells, one per edge-cell
// crossing; the marked cells are Hilbert-indexed (D, one table lookup a
// level), sorted and emitted as partial runs, split where the certain
// flag changes; and each gap between two consecutive marked indexes — and
// the gaps before the first and after the last — becomes one full run
// when a single exact point-in-polygon test of its first cell's centre
// says inside. That test runs through p's edge index
// (edgeindex.Index.ContainsPoint), so it visits the runs of edges near the
// ray and not the whole chain: a rasterization costs
// O(n + m log m + g·(log n + k)) for n edges, m marked cells and g gaps
// whose rays meet k edges, where the linear test made the last term g·n.
//
// A gap is all one label. Consecutive Hilbert cells are 4-adjacent, and
// two adjacent unmarked cells lie on the same side of the boundary: no
// boundary point lies in either closed cell and their union is connected.
// An inside unmarked cell never borders a cell outside the window, which
// covers the MBR with outward slack or ends where the grid does. So a gap
// is either all full cells of the window or holds none, and the runs are
// exactly those of labelling every window cell and packing them.
//
// A marked cell is certain when an edge of p meets it at least cellEps
// inside on both axes, as the walk finds in the same column sweep
// (raster.BoundaryMarks' second bitmap): that margin absorbs the rounding
// of the mapping into cell units and of the interpolation, so the edge
// truly passes through the cell's closed square. Not every marked cell is certain: the walk's outward slack marks
// cells an edge only grazes, within cellEps of their border, and such a
// cell need hold no point of p.
//
// Returns nil — no claim, pair tests fall back to the v1 path — when the
// grid is unusable, the object misses the grid, or the object's cell
// window exceeds MaxWindowCells. Rasterizing many objects is cheaper
// through a Rasterizer, or Build.
func Rasterize(p *geom.Polygon, g Grid) Spans {
	if p == nil {
		return nil
	}
	var ix edgeindex.Index
	ix.Build(p)
	var r Rasterizer
	return r.Append(nil, &ix, g)
}

// A Rasterizer rasterizes objects one after another, keeping the boundary
// and certain-cell bitmaps and the marked cells' indexes between them, so
// that once its scratch has grown to the largest object it allocates
// nothing but what the spans need. The zero value is ready to use; one
// Rasterizer must not be used by two goroutines at once.
type Rasterizer struct {
	marks []uint64
	ids   []uint32
}

// Append appends the span list of ix's polygon on g (see Rasterize) to
// dst and returns the extended slice; an object Rasterize gives nil spans
// appends nothing. The point-in-polygon tests run through ix, whose
// verdict is the polygon's own (edgeindex.Index.ContainsPoint), so the
// spans are Rasterize's whatever index ix is.
func (r *Rasterizer) Append(dst Spans, ix *edgeindex.Index, g Grid) Spans {
	if ix == nil || !g.Valid() {
		return dst
	}
	p := ix.Polygon()
	if p == nil || p.NumVerts() < 3 {
		return dst
	}
	cs := g.CellSize()
	b := p.Bounds()
	n := g.Cells()
	// Clamped before the conversion: a far vertex's cell coordinate does
	// not fit an int.
	clamp := func(v float64) int {
		switch {
		case v < 0:
			return 0
		case v >= float64(n):
			return n - 1
		}
		return int(v)
	}
	// Outward-rounded cell window of the MBR, clamped to the grid.
	x0 := clamp((b.MinX-g.MinX)/cs - cellEps)
	x1 := clamp((b.MaxX-g.MinX)/cs + cellEps)
	y0 := clamp((b.MinY-g.MinY)/cs - cellEps)
	y1 := clamp((b.MaxY-g.MinY)/cs + cellEps)
	if b.MaxX < g.MinX || b.MaxY < g.MinY || b.MinX > g.MinX+g.Size || b.MinY > g.MinY+g.Size {
		return dst // off-grid object: no sound claim possible
	}
	w, h := x1-x0+1, y1-y0+1
	if w*h > MaxWindowCells {
		return dst
	}
	// The boundary bitmap and, beside it in the same scratch, the
	// certain-cell bitmap of the same window layout.
	words := (w*h + 63) / 64
	if cap(r.marks) < 2*words {
		r.marks = make([]uint64, 2*words)
	}
	certain := r.marks[words : 2*words]
	marks := raster.BoundaryMarks(r.marks[:words], certain, p, g.MinX, g.MinY, cs, x0, y0, x1, y1)
	marked := 0
	for _, m := range marks {
		marked += bits.OnesCount64(m)
	}
	if marked == 0 {
		return dst
	}
	if cap(r.ids) < marked {
		r.ids = make([]uint32, 0, marked)
	}
	// Each marked cell as D<<1 | certain, so the one sort orders them by
	// cell and carries the flag along.
	ids := r.ids[:0]
	for i, m := range marks {
		for ; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			c := i<<6 | k
			ids = append(ids, D(g.Order, uint32(x0+c%w), uint32(y0+c/w))<<1|uint32(certain[i]>>uint(k)&1))
		}
	}
	r.ids = ids
	slices.Sort(ids)
	// A run of adjacent marked cells splits into one partial run per
	// change of the certain flag, and a list of r such runs has at most
	// r+1 gaps, so one growth holds every run. The buffers grow by make,
	// not slices.Grow, which the race detector's build makes allocate
	// twice.
	partial, gaps := 1, 2
	for k := 1; k < len(ids); k++ {
		if ids[k]>>1 != ids[k-1]>>1+1 {
			partial++
			gaps++
		} else if ids[k]&1 != ids[k-1]&1 {
			partial++
		}
	}
	if need := len(dst) + partial + gaps; cap(dst) < need {
		dst = append(make(Spans, 0, max(need, 2*cap(dst))), dst...)
	}
	gap := func(lo, hi uint32) {
		x, y := XY(g.Order, lo)
		if ix.ContainsPoint(geom.Pt(g.MinX+(float64(x)+0.5)*cs, g.MinY+(float64(y)+0.5)*cs)) {
			dst = append(dst, pack(lo, hi, fullBit))
		}
	}
	if ids[0]>>1 > 0 {
		gap(0, ids[0]>>1-1)
	}
	lo, end := ids[0]>>1, uint32(n*n)
	for k, id := range ids {
		c, next := id>>1, end
		if k+1 < len(ids) {
			if next = ids[k+1] >> 1; next == c+1 && ids[k+1]&1 == id&1 {
				continue
			}
		}
		dst = append(dst, pack(lo, c, uint64(id&1)*certainBit))
		if c+1 < next {
			gap(c+1, next-1)
		}
		lo = next
	}
	return dst
}
