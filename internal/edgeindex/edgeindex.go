// Package edgeindex provides a per-polygon edge index: an immutable,
// chain-ordered, packed bounding-box hierarchy that answers "which edges
// touch rectangle R" in O(k + log n) instead of the O(n) linear scan of
// the whole edge chain. It is the paper's §4.1 "avoid rendering
// unnecessary edges" restriction made output-sensitive, in the spirit of
// the TR*-tree refinement of Brinkhoff et al. (filter.EdgeTree) but
// designed for the refinement hot path: queries are allocation-free,
// append into caller-provided scratch buffers, and return edges in chain
// order so the result is bit-identical to the linear scan that
// sweep.CandidateEdgesInto performs.
//
// The structure exploits that a polygon boundary is a spatially coherent
// chain: consecutive edges are neighbors in space, so grouping the chain
// into runs of Fanout consecutive edges yields tight leaf boxes without
// any sort or space partitioning (the same insight as STR bulk packing,
// with the chain order standing in for the space-filling order). Levels of
// Fanout-ary grouping over the run boxes form the hierarchy; each edge
// belongs to exactly one leaf run, so queries need no deduplication.
//
// An Index is immutable after New and safe for concurrent readers; one
// index is built lazily per object and shared by every worker of a
// parallel join (see query.Layer.EdgeIndex). The distance kernel also
// walks the levels directly (Levels) and, for a polygon that came without
// an index, builds one into storage it reuses (Build).
package edgeindex

import (
	"slices"

	"repro/internal/geom"
	"repro/internal/sweep"
)

const (
	// Fanout is the number of edges per leaf run and children per
	// internal node. 8 keeps a run box within one cache line's worth of
	// segment data and the hierarchy at most 4 levels deep for the
	// largest evaluation polygons (~40k edges).
	Fanout = 8

	// MinIndexEdges is the edge count below which New does not build a
	// hierarchy: for small chains the linear scan's single pass is
	// already cheaper than any descent, so the index degrades to exactly
	// that scan (Indexed reports false).
	MinIndexEdges = 3 * Fanout
)

// Index is the packed edge index of one polygon. The zero value is not
// usable; build indexes with New, FromFlatBoxes or Build.
type Index struct {
	poly *geom.Polygon
	// flat holds every box of the hierarchy, leaves first; levels are views
	// into it. levels[0] holds one bounding box per run of Fanout
	// consecutive edges; levels[l] boxes group Fanout nodes of
	// levels[l-1]. The top level always has a single root box. Both are
	// empty for small polygons.
	flat   []geom.Rect
	levels [][]geom.Rect
}

// New builds the edge index of p. Building is one O(n) pass over the edge
// chain plus O(n/Fanout) box merges; the result is immutable. For
// polygons with fewer than MinIndexEdges edges no hierarchy is stored and
// queries fall back to the plain linear scan.
func New(p *geom.Polygon) *Index {
	ix := new(Index)
	ix.Build(p)
	return ix
}

// Build makes ix the index of p, reusing ix's storage: once that storage
// has grown to the largest polygon built into it, a build allocates
// nothing. It is for an index the caller owns alone (a distance kernel's
// scratch); an index shared with other goroutines, or one FromFlatBoxes
// made over a snapshot's boxes, must never be rebuilt.
func (ix *Index) Build(p *geom.Polygon) {
	n := p.NumEdges()
	total := FlatBoxCount(n)
	ix.poly = p
	ix.flat = slices.Grow(ix.flat[:0], total)[:total]
	ix.carve()
	if len(ix.levels) == 0 {
		return
	}
	verts := p.Verts
	for run := range ix.levels[0] {
		lo := run * Fanout
		hi := min(lo+Fanout, n)
		// An edge run's box is the box of vertices lo..hi inclusive (the
		// run's edges end at vertex hi, wrapping to 0 for the last edge).
		r := geom.EmptyRect()
		for i := lo; i < hi; i++ {
			r = r.ExtendPoint(verts[i])
		}
		ix.levels[0][run] = r.ExtendPoint(verts[hi%n])
	}
	for l := 1; l < len(ix.levels); l++ {
		below, up := ix.levels[l-1], ix.levels[l]
		for i := range up {
			lo := i * Fanout
			hi := min(lo+Fanout, len(below))
			r := below[lo]
			for j := lo + 1; j < hi; j++ {
				r = r.Union(below[j])
			}
			up[i] = r
		}
	}
}

// carve cuts ix.flat into the levels of the indexed polygon's hierarchy,
// whose shape its edge count alone determines.
func (ix *Index) carve() {
	ix.levels = ix.levels[:0]
	n := ix.poly.NumEdges()
	if n < MinIndexEdges {
		return
	}
	off := 0
	for sz := runs(n); ; sz = runs(sz) {
		ix.levels = append(ix.levels, ix.flat[off:off+sz:off+sz])
		off += sz
		if sz == 1 {
			return
		}
	}
}

// runs returns the number of nodes grouping n nodes (or edges) Fanout at a
// time.
func runs(n int) int { return (n + Fanout - 1) / Fanout }

// Release drops ix's polygon and hierarchy but keeps its storage for the
// next Build, so that an index a scratch reuses keeps no polygon alive
// between builds. Like Build, it is only for an index the caller owns
// alone.
func (ix *Index) Release() {
	ix.poly, ix.levels = nil, ix.levels[:0]
}

// Polygon returns the indexed polygon.
func (ix *Index) Polygon() *geom.Polygon { return ix.poly }

// Indexed reports whether a hierarchy was built (false for small
// polygons, whose queries run the plain linear scan).
func (ix *Index) Indexed() bool { return len(ix.levels) > 0 }

// Levels returns the hierarchy, leaves first: Levels()[0][i] bounds the
// run of edges i·Fanout up to (i+1)·Fanout (the last run may be shorter),
// Levels()[l][i] bounds nodes i·Fanout up to (i+1)·Fanout of level l-1,
// and the last level holds the root, the polygon's MBR, alone. Empty when
// the polygon is not Indexed. The slices alias the index and must not be
// mutated.
func (ix *Index) Levels() [][]geom.Rect { return ix.levels }

// AppendEdgesInRect appends the edges of the indexed polygon that have at
// least one point in r to dst, in chain order — the exact edge set and
// order that sweep.AppendEdgesInRange(dst, p, r, 0, n) produces. The
// second result is the number of edges actually examined by the shared
// selection predicate; n minus it is the work the hierarchy pruned. The
// method performs no allocations beyond growing dst and is safe for
// concurrent callers.
func (ix *Index) AppendEdgesInRect(dst []geom.Segment, r geom.Rect) ([]geom.Segment, int) {
	if len(ix.levels) == 0 {
		n := ix.poly.NumEdges()
		return sweep.AppendEdgesInRange(dst, ix.poly, r, 0, n), n
	}
	examined := 0
	dst = ix.walk(len(ix.levels)-1, 0, r, dst, &examined)
	return dst, examined
}

// walk descends the hierarchy in node order (which is chain order),
// pruning subtrees whose box misses r and handing qualifying leaf runs to
// the shared selection predicate. Depth is at most log_Fanout(n), so the
// recursion stays within a handful of frames.
func (ix *Index) walk(level, node int, r geom.Rect, dst []geom.Segment, examined *int) []geom.Segment {
	if !ix.levels[level][node].Intersects(r) {
		return dst
	}
	lo := node * Fanout
	if level == 0 {
		hi := min(lo+Fanout, ix.poly.NumEdges())
		*examined += hi - lo
		return sweep.AppendEdgesInRange(dst, ix.poly, r, lo, hi)
	}
	hi := min(lo+Fanout, len(ix.levels[level-1]))
	for c := lo; c < hi; c++ {
		dst = ix.walk(level-1, c, r, dst, examined)
	}
	return dst
}

// ContainsPoint is geom.Polygon.ContainsPoint of the indexed polygon,
// answered through the hierarchy: only runs whose box meets the degenerate
// ray rectangle [q.X, mbr.MaxX]×[q.Y, q.Y] are handed to
// geom.Polygon.RayCrossings, the per-edge rule both paths share, so the
// verdict equals the linear scan's — an edge in a pruned run lies wholly
// left of q or off the ray line, where that rule neither finds q on it nor
// counts a crossing.
func (ix *Index) ContainsPoint(q geom.Point) bool {
	if len(ix.levels) == 0 {
		return ix.poly.ContainsPoint(q)
	}
	mbr := ix.poly.Bounds()
	if !mbr.ContainsPoint(q) {
		return false
	}
	ray := geom.Rect{MinX: q.X, MinY: q.Y, MaxX: mbr.MaxX, MaxY: q.Y}
	onBoundary, odd := ix.rayWalk(len(ix.levels)-1, 0, ray, q)
	return onBoundary || odd
}

// rayWalk is walk for the ray-crossing count: it combines the crossing
// parities of the leaf runs under node and stops at the first run that
// holds q on an edge.
func (ix *Index) rayWalk(level, node int, ray geom.Rect, q geom.Point) (onBoundary, odd bool) {
	if !ix.levels[level][node].Intersects(ray) {
		return false, false
	}
	lo := node * Fanout
	if level == 0 {
		return ix.poly.RayCrossings(q, lo, min(lo+Fanout, ix.poly.NumEdges()))
	}
	hi := min(lo+Fanout, len(ix.levels[level-1]))
	for c := lo; c < hi; c++ {
		on, o := ix.rayWalk(level-1, c, ray, q)
		if on {
			return true, false
		}
		odd = odd != o
	}
	return false, odd
}

// FlatBoxCount returns the number of boxes FlatBoxes yields for a polygon
// with n edges: 0 below MinIndexEdges, the total hierarchy size otherwise.
// Snapshot readers use it to validate a persisted box column before
// handing it to FromFlatBoxes.
func FlatBoxCount(n int) int {
	if n < MinIndexEdges {
		return 0
	}
	total := 0
	for sz := runs(n); ; sz = runs(sz) {
		total += sz
		if sz == 1 {
			return total
		}
	}
}

// FlatBoxes returns every hierarchy box concatenated leaves-first (the
// order Levels lists them in), or nil for a non-indexed polygon. The
// returned slice aliases the index's storage and must not be mutated.
func (ix *Index) FlatBoxes() []geom.Rect {
	if len(ix.levels) == 0 {
		return nil
	}
	return ix.flat
}

// FromFlatBoxes rebuilds the index of p from boxes previously produced by
// FlatBoxes. The level structure is derived from p's edge count; a length
// mismatch (corrupt or mismatched snapshot data) returns ok=false and the
// caller should fall back to New. Empty boxes with a small polygon is the
// valid "not indexed" encoding. The boxes are trusted — callers establish
// their integrity (e.g. by snapshot CRC) or accept pruning errors; the
// shared selection predicate still bounds what edges can be returned, so
// wrong boxes can only drop or keep edges, never fabricate them. The index
// aliases boxes, which the caller must keep unchanged.
func FromFlatBoxes(p *geom.Polygon, boxes []geom.Rect) (*Index, bool) {
	if len(boxes) != FlatBoxCount(p.NumEdges()) {
		return nil, false
	}
	ix := &Index{poly: p, flat: boxes}
	ix.carve()
	return ix, true
}
