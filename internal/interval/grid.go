// Package interval implements the v2 raster approximation: per-object
// sorted cell-ID interval lists over a shared Hilbert-ordered grid, with
// each interval labeled full (the cells provably lie inside the object's
// region), certain (the boundary certainly passes through) or partial
// (the boundary may pass through).
// Two objects on the same grid compare by a linear interval-list merge
// that returns a three-valued verdict: a cell full in one list and full
// or certain in the other is a TRUE HIT (a point of one object lies in
// the other's region — report the pair intersecting with no refinement at
// all), disjoint lists are a REJECT (the lists conservatively cover both
// regions, so the regions are disjoint), and anything else is
// inconclusive and refines exactly as before. This is the upgrade "Raster
// Interval Object Approximations for Spatial Intersection Joins" and
// "Adaptive Geospatial Joins for Modern Hardware" (PAPERS.md) make over
// reject-only raster signatures.
package interval

import (
	"math"

	"repro/internal/geom"
)

const (
	// MinOrder and MaxOrder bound the grid order (the grid is 2^order
	// cells per side). MaxOrder 15 keeps every cell index below 2^30 so
	// the packed span encoding's 31-bit fields never overflow; readers
	// reject anything outside the range.
	MinOrder = 2
	MaxOrder = 15

	// maxAutoOrder caps the order ChooseOrder picks: 4096² cells over the
	// canonical square is already far below the object extents the
	// heuristic targets at evaluation scales.
	maxAutoOrder = 12

	// targetCellsPerExtent is how many cells the characteristic object
	// extent should span: coarse enough that interval lists stay modest,
	// fine enough that two overlapping interiors usually share at least
	// one full/full cell (the true-hit source). Overlaps shallower than
	// about a cell stay inconclusive, so this directly sets the true-hit
	// rate on mostly-intersecting workloads.
	targetCellsPerExtent = 24

	// MaxWindowCells caps one object's rasterization window (in cells).
	// An object spanning more gets no approximation (nil spans — the pair
	// test is then inconclusive and the v1 path decides), bounding both
	// build time and span memory against monster geometries.
	MaxWindowCells = 1 << 16

	// cellEps is the outward slack, in cell units, applied when mapping
	// data-space coordinates onto the grid, mirroring the raster
	// signature walk: it absorbs ulp-level disagreement in the division
	// so boundary cell attribution stays strictly conservative.
	cellEps = 1e-6
)

// Grid is a shared Hilbert rasterization frame: a square of side Size
// anchored at (MinX, MinY), divided into 2^Order × 2^Order cells. Two
// interval lists are comparable iff they were rasterized on the same
// Grid (struct equality), which is why grids are derived canonically
// (FitSquare) rather than per object: layers over the same data domain
// land on the same square and their persisted columns line up.
type Grid struct {
	MinX, MinY float64
	Size       float64
	Order      int
}

// Valid reports whether g describes a usable grid.
func (g Grid) Valid() bool {
	return g.Order >= MinOrder && g.Order <= MaxOrder &&
		g.Size > 0 && !math.IsInf(g.Size, 0) &&
		!math.IsNaN(g.MinX) && !math.IsInf(g.MinX, 0) &&
		!math.IsNaN(g.MinY) && !math.IsInf(g.MinY, 0) &&
		!math.IsNaN(g.Size)
}

// Cells returns the grid's side length in cells.
func (g Grid) Cells() int { return 1 << g.Order }

// CellSize returns one cell's side length in data units.
func (g Grid) CellSize() float64 { return g.Size / float64(int(1)<<g.Order) }

// FitSquare returns the canonical power-of-two square containing r: the
// smallest side 2^k whose half-side-aligned lattice (anchors at
// multiples of 2^(k-1)) has a square covering r. Anchoring on the
// half-side lattice matters: a rect straddling 0 is never covered by
// any origin-aligned square (0 is an anchor at every scale), while with
// side ≥ 2× the rect's extent a half-lattice anchor always covers. The
// construction is what makes grids shareable without coordination — any
// two layers spanning roughly the same extent snap to the identical
// square, so their independently persisted interval columns are
// directly comparable.
func FitSquare(r geom.Rect) (minX, minY, size float64, ok bool) {
	if r.IsEmpty() || !geom.Pt(r.MinX, r.MinY).IsFinite() || !geom.Pt(r.MaxX, r.MaxY).IsFinite() {
		return 0, 0, 0, false
	}
	w := math.Max(r.Width(), r.Height())
	if w <= 0 {
		w = 1
	}
	size = math.Exp2(math.Ceil(math.Log2(w)))
	// At the tight size a rect can straddle an anchor boundary; once
	// size ≥ 2w the half-lattice anchor provably covers, so at most a
	// couple of doublings ever run.
	for range 64 {
		if math.IsInf(size, 0) {
			return 0, 0, 0, false
		}
		half := size / 2
		minX = math.Floor(r.MinX/half) * half
		minY = math.Floor(r.MinY/half) * half
		if r.MaxX <= minX+size && r.MaxY <= minY+size {
			return minX, minY, size, true
		}
		size *= 2
	}
	return 0, 0, 0, false
}

// ChooseOrder picks the grid order for a canonical square of the given
// side so that a characteristic object extent spans about
// targetCellsPerExtent cells, clamped to [MinOrder, maxAutoOrder]. The
// choice is deterministic in (size, extent), so the snapshot writer and
// a query-time lazy build agree without coordination.
func ChooseOrder(size, extent float64) int {
	if size <= 0 || math.IsNaN(size) || math.IsInf(size, 0) {
		return MinOrder
	}
	if extent <= 0 || math.IsNaN(extent) || math.IsInf(extent, 0) {
		extent = size
	}
	cells := size / extent * targetCellsPerExtent
	order := int(math.Ceil(math.Log2(cells)))
	if order < MinOrder {
		return MinOrder
	}
	if order > maxAutoOrder {
		return maxAutoOrder
	}
	return order
}

// ObjectStats summarizes a set of objects for grid derivation: the union
// of their MBRs and the mean of their larger MBR extents (the
// characteristic object size ChooseOrder targets).
func ObjectStats(objs []*geom.Polygon) (bounds geom.Rect, extent float64) {
	var sum float64
	n := 0
	first := true
	for _, p := range objs {
		if p == nil || p.NumVerts() == 0 {
			continue
		}
		b := p.Bounds()
		if first {
			bounds = b
			first = false
		} else {
			bounds = bounds.Union(b)
		}
		sum += math.Max(b.Width(), b.Height())
		n++
	}
	if first {
		return geom.Rect{MinX: 1, MaxX: 0}, 0 // empty
	}
	return bounds, sum / float64(n)
}

// GridFor derives the canonical grid for one object set: FitSquare over
// its bounds at ChooseOrder for its extent (or the forced order when
// order > 0). ok is false for empty or non-finite inputs.
func GridFor(objs []*geom.Polygon, order int) (Grid, bool) {
	bounds, extent := ObjectStats(objs)
	mnx, mny, size, ok := FitSquare(bounds)
	if !ok {
		return Grid{}, false
	}
	if order <= 0 {
		order = ChooseOrder(size, extent)
	}
	if order < MinOrder || order > MaxOrder {
		return Grid{}, false
	}
	return Grid{MinX: mnx, MinY: mny, Size: size, Order: order}, true
}
