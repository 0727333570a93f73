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

	"repro/internal/geom"
)

// DefaultSignatureRes is the signature grid side used by the snapshot
// writer: 16×16 cells, 32 bytes of bitmap per object. At typical GIS MBR
// aspect ratios this resolves boundary gaps around 1/16th of the object's
// extent, which is the population of deeply interleaved near-miss pairs
// the pair-rendering filter otherwise spends its time on.
const DefaultSignatureRes = 16

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

// Valid reports whether s carries a usable bitmap (matching resolution and
// word count, finite non-empty bounds).
func (s *Signature) Valid() bool {
	return s != nil && s.Res > 0 && len(s.Words) == SignatureWords(s.Res) && !s.Bounds.IsEmpty()
}

// Bit reports cell (x, y).
func (s *Signature) Bit(x, y int) bool {
	i := y*s.Res + x
	return s.Words[i>>6]&(1<<uint(i&63)) != 0
}

// ComputeSignature rasterizes p's boundary onto a res×res grid over its
// MBR and returns the bitmap. The cell walk (markSegment) attributes each
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
		markSegment(sig.Words, (e.A.X-b.MinX)/w, (e.A.Y-b.MinY)/h, (e.B.X-b.MinX)/w, (e.B.Y-b.MinY)/h, 0, 0, res, res)
	}
	return sig
}

// cellRect returns the data-space rectangle of cell (x, y): the grid tiles
// Bounds uniformly, cell (0,0) at (MinX, MinY).
func (s *Signature) cellRect(x, y int) geom.Rect {
	w := s.Bounds.Width() / float64(s.Res)
	h := s.Bounds.Height() / float64(s.Res)
	return geom.R(
		s.Bounds.MinX+float64(x)*w,
		s.Bounds.MinY+float64(y)*h,
		s.Bounds.MinX+float64(x+1)*w,
		s.Bounds.MinY+float64(y+1)*h,
	)
}

// cellEps is the outward slack, in cell units, applied when mapping a
// rectangle onto a signature grid. The renderer attributes a boundary
// point lying exactly on a shared cell border to one of the two cells by
// its own projection arithmetic, which can disagree with the reverse
// mapping here by a few ulps; widening the range by a millionth of a cell
// absorbs that and keeps the disjointness test strictly conservative.
const cellEps = 1e-6

// cellRange maps data-space rectangle r onto s's grid, returning the
// inclusive cell index range it touches, clamped to the grid; ok is false
// when r misses the grid entirely. The mapping rounds outward (plus
// cellEps slack), so the range is a superset of every cell r overlaps —
// required to keep the disjointness test conservative under
// floating-point division.
func (s *Signature) cellRange(r geom.Rect) (x0, y0, x1, y1 int, ok bool) {
	w := s.Bounds.Width() / float64(s.Res)
	h := s.Bounds.Height() / float64(s.Res)
	if w <= 0 {
		w = math.SmallestNonzeroFloat64
	}
	if h <= 0 {
		h = math.SmallestNonzeroFloat64
	}
	x0 = int(math.Floor((r.MinX-s.Bounds.MinX)/w - cellEps))
	x1 = int(math.Ceil((r.MaxX-s.Bounds.MinX)/w+cellEps)) - 1
	y0 = int(math.Floor((r.MinY-s.Bounds.MinY)/h - cellEps))
	y1 = int(math.Ceil((r.MaxY-s.Bounds.MinY)/h+cellEps)) - 1
	if x1 < x0 {
		x1 = x0
	}
	if y1 < y0 {
		y1 = y0
	}
	if x1 < 0 || y1 < 0 || x0 >= s.Res || y0 >= s.Res {
		return 0, 0, 0, 0, false
	}
	x0, y0 = max(x0, 0), max(y0, 0)
	x1, y1 = min(x1, s.Res-1), min(y1, s.Res-1)
	return x0, y0, x1, y1, true
}

// anyBitInRows reports whether any cell in rows y0..y1, columns x0..x1 is
// set, scanning word-aligned row spans.
func (s *Signature) anyBitInRows(x0, y0, x1, y1 int) bool {
	for y := y0; y <= y1; y++ {
		row := y * s.Res
		for x := x0; x <= x1; x++ {
			i := row + x
			if s.Words[i>>6]&(1<<uint(i&63)) != 0 {
				return true
			}
		}
	}
	return false
}

// SignaturesMayIntersect reports whether the boundaries of the two
// signed objects may come within distance d of each other (d = 0 is the
// plain boundary-intersection question). A false answer is a proof: every
// set cell of a, expanded by d, misses every set cell of b, and since set
// cells cover the boundaries conservatively the true boundary distance
// exceeds d. A true answer is inconclusive — the caller proceeds to the
// rendering protocol or the exact test exactly as before, which is what
// keeps signature use result-invariant.
func SignaturesMayIntersect(a, b *Signature, d float64) bool {
	if !a.Valid() || !b.Valid() {
		return true // no signature, no claim
	}
	// Iterate the side with the coarser restriction region; each of a's
	// set cells near b is mapped onto b's grid and tested for set cells.
	region := a.Bounds.Intersection(b.Bounds.Expand(d))
	if region.IsEmpty() {
		// MBRs (expanded by d) don't even touch; boundaries can't either.
		return false
	}
	ax0, ay0, ax1, ay1, ok := a.cellRange(region)
	if !ok {
		return false
	}
	for ay := ay0; ay <= ay1; ay++ {
		for ax := ax0; ax <= ax1; ax++ {
			if !a.Bit(ax, ay) {
				continue
			}
			bx0, by0, bx1, by1, ok := b.cellRange(a.cellRect(ax, ay).Expand(d))
			if !ok {
				continue
			}
			if b.anyBitInRows(bx0, by0, bx1, by1) {
				return true
			}
		}
	}
	return false
}
