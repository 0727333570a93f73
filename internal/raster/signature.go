// Raster signatures: per-object conservative boundary approximations in
// the spirit of Raster Interval Object Approximations — a small fixed-
// resolution bitmap over the object's MBR whose set cells cover every
// point of the polygon's boundary. Signatures are computed with a
// closed-cell conservative cell walk (a cell is set iff some boundary
// segment may pass through its closed rectangle, boundary points on the
// MBR's max edges included), so two objects whose signature cells are
// pairwise disjoint provably have disjoint boundaries — the pair can skip
// the rendering protocol entirely. They are cheap enough to persist
// (res 16 = 32 bytes per object) and are what the snapshot format stores
// next to the geometry.
package raster

import (
	"math"
	"math/bits"

	"repro/internal/geom"
)

// DefaultSignatureRes is the signature grid side used by the snapshot
// writer: 16×16 cells, 32 bytes of bitmap per object. At typical GIS MBR
// aspect ratios this resolves boundary gaps around 1/16th of the object's
// extent, which is the population of deeply interleaved near-miss pairs
// the pair-rendering filter otherwise spends its time on.
const DefaultSignatureRes = 16

// MaxSignatureRes is the largest signature grid side: one uint64 holds a
// row, which is what lets SignaturesMayIntersect test a whole row of
// cells in one word operation. The snapshot writer refuses a larger
// resolution and the reader rejects one.
const MaxSignatureRes = 64

// Signature is one polygon's conservative boundary bitmap: Res×Res cells
// tiling Bounds, bit (y*Res + x) set when the boundary may pass through
// cell (x, y). The set cells' union covers the boundary (conservative);
// clear cells provably contain no boundary point. A Signature is immutable
// after construction and safe for concurrent readers. The zero value (Res
// 0) means "no signature" and never short-circuits anything.
type Signature struct {
	Bounds geom.Rect
	Res    int
	Words  []uint64 // ceil(Res*Res / 64) little-endian bitmap words
}

// SignatureWords returns the bitmap length in uint64 words for one
// signature at resolution res.
func SignatureWords(res int) int { return (res*res + 63) / 64 }

// Valid reports whether s carries a usable bitmap (resolution in
// 1..MaxSignatureRes, matching word count, non-empty bounds).
func (s *Signature) Valid() bool {
	return s != nil && s.Res > 0 && s.Res <= MaxSignatureRes && len(s.Words) == SignatureWords(s.Res) && !s.Bounds.IsEmpty()
}

// ComputeSignature rasterizes p's boundary onto a res×res grid over its
// MBR and returns the bitmap. A res above MaxSignatureRes gives a
// signature Valid rejects. The cell walk (markSegment) attributes each
// boundary point to the closed cell containing it, with indexes clamped
// into the grid, so — unlike the display renderer's half-open window
// mapping — segments lying exactly on the MBR's max edges still set the
// last row/column. That closed-cell attribution is what makes the
// signature a sound reject filter: every boundary point lies in a set
// cell, always.
// (The viewport renderer drops fragments at exactly the window max edge,
// which is fine for a sentinel-checked filter but not for a proof; a
// rectangular query polygon, whose top and right edges lie exactly on
// its own MBR, would otherwise lose half its boundary.)
func ComputeSignature(p *geom.Polygon, res int) Signature {
	if res <= 0 {
		res = DefaultSignatureRes
	}
	b := p.Bounds()
	sig := Signature{Bounds: b, Res: res, Words: make([]uint64, SignatureWords(res))}
	w := b.Width() / float64(res)
	h := b.Height() / float64(res)
	if w <= 0 {
		w = math.SmallestNonzeroFloat64
	}
	if h <= 0 {
		h = math.SmallestNonzeroFloat64
	}
	for i := 0; i < p.NumEdges(); i++ {
		e := p.Edge(i)
		markSegment(sig.Words, nil, (e.A.X-b.MinX)/w, (e.A.Y-b.MinY)/h, (e.B.X-b.MinX)/w, (e.B.Y-b.MinY)/h, 0, 0, res, res)
	}
	return sig
}

// row returns row y of s's bitmap as one word, bit x for cell (x, y). The
// row's bits may straddle two words; bits past the row, and the padding
// past Res*Res in the last word, are masked off.
func (s *Signature) row(y int) uint64 {
	i := y * s.Res
	sh := i & 63
	w := s.Words[i>>6] >> sh
	if sh+s.Res > 64 {
		w |= s.Words[i>>6+1] << (64 - sh)
	}
	return w & (^uint64(0) >> (64 - s.Res))
}

// spanMask returns the word with bits i0..i1 set (0 <= i0 <= i1 < 64).
func spanMask(i0, i1 int) uint64 {
	return ^uint64(0) >> (63 - i1) &^ (1<<i0 - 1)
}

// cellEps is the outward slack, in cell units, applied when mapping a
// rectangle onto a signature grid. The renderer attributes a boundary
// point lying exactly on a shared cell border to one of the two cells by
// its own projection arithmetic, which can disagree with the reverse
// mapping here by a few ulps; widening the range by a millionth of a cell
// absorbs that and keeps the disjointness test strictly conservative.
const cellEps = 1e-6

// cellSpan maps the interval [lo, hi] on one axis onto a grid of res cells
// of size w starting at origin, returning the inclusive cell range it
// touches, clamped to the grid; ok is false when the interval misses the
// grid. The mapping rounds outward (plus cellEps slack), so the range is a
// superset of every cell the interval overlaps — required to keep the
// disjointness test conservative under floating-point division. A zero
// (degenerate) cell size maps with the smallest positive one.
func cellSpan(lo, hi, origin, w float64, res int) (i0, i1 int, ok bool) {
	if w <= 0 {
		w = math.SmallestNonzeroFloat64
	}
	i0 = int(math.Floor((lo-origin)/w - cellEps))
	i1 = int(math.Ceil((hi-origin)/w+cellEps)) - 1
	if i1 < i0 {
		i1 = i0
	}
	if i1 < 0 || i0 >= res {
		return 0, 0, false
	}
	return max(i0, 0), min(i1, res-1), true
}

// SignaturesMayIntersect reports whether the boundaries of the two
// signed objects may come within distance d of each other (d = 0 is the
// plain boundary-intersection question). A false answer is a proof: every
// set cell of a, expanded by d, misses every set cell of b, and since set
// cells cover the boundaries conservatively the true boundary distance
// exceeds d. A true answer is inconclusive — the caller proceeds to the
// rendering protocol or the exact test exactly as before, which is what
// keeps signature use result-invariant.
//
// The test is whether some set cell (ax, ay) of a in the region both
// grids share has, in the cell range of b its d-expanded rectangle maps
// to, a set cell of b. That range is a product: its columns depend only on
// ax and its rows only on ay. So each row of a ORs b's rows in its row
// range into one word, and ANDs it with the column mask of each of its set
// cells, computed once per column of a on first use. Every bound is the
// same float expression, one axis at a time, as the cell-by-cell
// definition, so the verdicts are the same.
func SignaturesMayIntersect(a, b *Signature, d float64) bool {
	if !a.Valid() || !b.Valid() {
		return true // no signature, no claim
	}
	region := a.Bounds.Intersection(b.Bounds.Expand(d))
	if region.IsEmpty() {
		// MBRs (expanded by d) don't even touch; boundaries can't either.
		return false
	}
	// a's cell size, by which cell i of an axis spans origin+i*w to
	// origin+(i+1)*w, and b's.
	aw, ah := a.Bounds.Width()/float64(a.Res), a.Bounds.Height()/float64(a.Res)
	bw, bh := b.Bounds.Width()/float64(b.Res), b.Bounds.Height()/float64(b.Res)
	ax0, ax1, okx := cellSpan(region.MinX, region.MaxX, a.Bounds.MinX, aw, a.Res)
	ay0, ay1, oky := cellSpan(region.MinY, region.MaxY, a.Bounds.MinY, ah, a.Res)
	if !okx || !oky {
		return false
	}
	inRegion := spanMask(ax0, ax1)
	var cols [MaxSignatureRes]uint64 // b's column mask for a's column ax, once bit ax of have is set
	var have uint64
	for ay := ay0; ay <= ay1; ay++ {
		cells := a.row(ay) & inRegion
		if cells == 0 {
			continue
		}
		lo, hi := a.Bounds.MinY+float64(ay)*ah, a.Bounds.MinY+float64(ay+1)*ah
		by0, by1, ok := cellSpan(lo-d, hi+d, b.Bounds.MinY, bh, b.Res)
		if !ok {
			continue
		}
		var rows uint64
		for by := by0; by <= by1; by++ {
			rows |= b.row(by)
		}
		if rows == 0 {
			continue
		}
		for ; cells != 0; cells &= cells - 1 {
			ax := bits.TrailingZeros64(cells)
			if have&(1<<ax) == 0 {
				have |= 1 << ax
				lo, hi := a.Bounds.MinX+float64(ax)*aw, a.Bounds.MinX+float64(ax+1)*aw
				if bx0, bx1, ok := cellSpan(lo-d, hi+d, b.Bounds.MinX, bw, b.Res); ok {
					cols[ax] = spanMask(bx0, bx1)
				}
			}
			if cols[ax]&rows != 0 {
				return true
			}
		}
	}
	return false
}
