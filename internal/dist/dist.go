// Package dist implements the software distance refinement step for
// within-distance joins (buffer queries) and nearest-neighbour search: a
// version of Chan's minDist algorithm with the two optimizations of §4.1.1
// of the paper —
//
//  1. early exit as soon as an edge pair within the query distance D is
//     found, and
//  2. restriction of each polygon's chain to the parts near the other
//     object —
//
// applied at every level of the two polygons' edge hierarchies instead of
// once at the MBR.
//
// One kernel does it all: a depth-first descent over node pairs of the two
// packed edge-box hierarchies (internal/edgeindex). A node pair is skipped
// when the squared gap between its boxes exceeds the bound; otherwise the
// node on the higher level is split, or on equal levels the one with the
// larger box, until two leaves meet. There each side's few edges are first
// screened against the other leaf's box, and the surviving pairs go
// through Segment.DistSq. Under a finite D the bound is geom.SqBound(D) and
// the first pair within it ends the search. At a bound of 0 (D = 0, the
// intersection test) a leaf pair is decided by Segment.Intersects alone,
// the predicate of the all-pairs cross test (sweep.CrossIntersectsBrute):
// DistSq's projection can round to 0 for two segments Intersects calls
// apart, and it computes four point distances that a bound of 0 does not
// need. For an unbounded minimum (MinDist, k nearest neighbours) the bound
// shrinks to the best distance found so far and nearer children go first.
//
// The box skip cannot drop a pair: every edge lies in its leaf's box and
// every box in its ancestors', so the gap between two boxes lower-bounds
// the distance of every edge pair beneath them. An edge pair's distance is
// attained at an endpoint, each endpoint-to-segment distance is at least
// the box gap on either axis, and float subtraction, squaring and addition
// are monotone, so the skip (`>`, never `≥`) only skips pairs that are
// truly farther than the bound.
//
// Distances are region distances: two polygons that intersect (including
// one containing the other) are at distance zero. The kernel itself
// measures boundaries, exactly: boundaries that cross or touch have an
// edge pair at distance zero, so no crossing re-check follows it, and
// only containment — regions at distance zero whose boundaries are far
// apart — must be excluded before it runs.
package dist

import (
	"math"
	"sync"

	"repro/internal/edgeindex"
	"repro/internal/geom"
	"repro/internal/sweep"
)

// Options is empty: the kernel has no switches. WithinDistance and
// BoundaryWithin still take it, unused, because the frozen benchmark
// harness (bench/) passes dist.Options{} to WithinDistance; ROADMAP item 1,
// the benchmark change that re-points the harness, removes the type and
// both parameters.
type Options struct{}

// WithinDistance reports whether the regions of p and q are within
// distance d of each other. It is the software distance test of the
// evaluation: polygon intersection handling, then the kernel with early
// exit at d.
func WithinDistance(p, q *geom.Polygon, d float64, _ Options) bool {
	if p.Bounds().DistSq(q.Bounds()) > geom.SqBound(d) {
		return false // MBR distance lower-bounds object distance
	}
	if p.Bounds().Intersects(q.Bounds()) && sweep.PolygonsIntersect(p, q, sweep.Options{}) {
		return true // intersecting regions are at distance zero
	}
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	return s.BoundaryWithin(p, q, nil, nil, d, Options{})
}

// MinDist returns the region distance between p and q: zero when they
// intersect, otherwise the minimum boundary-to-boundary distance.
func MinDist(p, q *geom.Polygon) float64 {
	if p.Bounds().Intersects(q.Bounds()) && sweep.PolygonsIntersect(p, q, sweep.Options{}) {
		return 0
	}
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	s.search(p, q, nil, nil, math.Inf(1), 0)
	return math.Sqrt(s.limit)
}

// scratchPool lends WithinDistance and MinDist a Scratch whose storage
// has already grown, so that the hierarchies they build for their
// index-less polygons allocate nothing in steady state.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// MinDistBrute returns the region distance computed over all edge pairs
// with no pruning. The testing oracle.
//
//reach:keep reference implementation under TestMinDistMatchesBruteRandom, FuzzMinDist, FuzzBoundaryWithin, TestKernelsDistanceDifferential, TestUpperBoundsVsIntersection and TestWithinDistanceJoinMatchesOracle
func MinDistBrute(p, q *geom.Polygon) float64 {
	if p.Bounds().Intersects(q.Bounds()) && sweep.PolygonsIntersect(p, q, sweep.Options{}) {
		return 0
	}
	best := math.Inf(1)
	for i := range p.NumEdges() {
		ei := p.Edge(i)
		for j := range q.NumEdges() {
			if d := ei.DistSq(q.Edge(j)); d < best {
				best = d
			}
		}
	}
	return math.Sqrt(best)
}

// Scratch holds the working storage of the kernel, reused across calls so
// a refinement worker performing millions of distance tests does not
// allocate per pair. The zero value is ready to use; a Scratch is not safe
// for concurrent use.
type Scratch struct {
	// sides are the pair under test, p then q.
	sides [2]side
	// built holds the hierarchy of a side that came without a usable
	// index.
	built [2]edgeindex.Index
	// limit bounds the squared gaps and distances still worth looking at;
	// the search ends at the first edge pair at or under exit. ordered
	// visits nearer children first.
	limit, exit float64
	ordered     bool
	// xe and ye are the two screened edge sets of a leaf pair.
	xe, ye [edgeindex.MinIndexEdges]boxedEdge
}

// side is one polygon of the pair and its hierarchy: levels[0] holds the
// leaves, each a run of run consecutive edges, and the last level the root.
// A polygon too short to index has no levels: it is one leaf, its whole
// chain, boxed by its MBR.
type side struct {
	poly   *geom.Polygon
	levels [][]geom.Rect
	run    int
}

// node is node i on level level of a side's hierarchy, with its box.
type node struct {
	level, i int
	box      geom.Rect
}

type boxedEdge struct {
	seg geom.Segment
	box geom.Rect
}

// BoundaryWithin reports whether the boundary chains of p and q come
// within distance d of each other. The caller must have already excluded
// the containment case (boundaries far apart but region distance zero);
// given that, boundary distance equals region distance and the verdict is
// exact. This is the entry point the hardware-assisted tester uses after
// its own point-in-polygon checks.
//
// pix and qix are the polygons' edge indexes, or nil: a side without an
// index that indexes it gets one built into the Scratch. The verdict does
// not depend on them.
func (s *Scratch) BoundaryWithin(p, q *geom.Polygon, pix, qix *edgeindex.Index, d float64, _ Options) bool {
	bound := geom.SqBound(d)
	return s.search(p, q, pix, qix, bound, bound)
}

// search descends the two hierarchies from their roots, looking at box
// gaps and edge pairs within limit and ending at the first edge pair at or
// under exit, which it reports. An exit below limit makes the search a
// minimum: limit shrinks to each closer pair found, so when the search
// ends s.limit is the squared minimum boundary distance if it is at most
// the limit it started with.
//
// The Scratch keeps no reference to the pair once the search ends: a
// long-lived Scratch must not keep a dropped layer's polygons or boxes
// alive.
func (s *Scratch) search(p, q *geom.Polygon, pix, qix *edgeindex.Index, limit, exit float64) bool {
	x, y := s.side(0, p, pix), s.side(1, q, qix)
	s.limit, s.exit, s.ordered = limit, exit, exit < limit
	a, b := x.root(), y.root()
	found := a.box.DistSq(b.box) <= s.limit && s.visit(x, y, a, b)
	s.sides = [2]side{}
	s.built[0].Release()
	s.built[1].Release()
	return found
}

// side loads side k of the pair: the levels of ix when it indexes p, else
// of an index built into the Scratch.
func (s *Scratch) side(k int, p *geom.Polygon, ix *edgeindex.Index) *side {
	if ix == nil || ix.Polygon() != p {
		ix = &s.built[k]
		ix.Build(p)
	}
	sd := &s.sides[k]
	*sd = side{poly: p, levels: ix.Levels(), run: edgeindex.Fanout}
	if len(sd.levels) == 0 {
		sd.run = p.NumEdges()
	}
	return sd
}

func (sd *side) root() node {
	top := len(sd.levels) - 1
	if top < 0 {
		return node{0, 0, sd.poly.Bounds()}
	}
	return node{top, 0, sd.levels[top][0]}
}

// visit searches the node pair (a of x, b of y), whose boxes are within
// the bound, and reports whether the search ended.
func (s *Scratch) visit(x, y *side, a, b node) bool {
	if a.level == 0 && b.level == 0 {
		return s.leaves(x, y, a, b)
	}
	if b.level > a.level || b.level == a.level && b.box.Width()+b.box.Height() > a.box.Width()+a.box.Height() {
		x, y, a, b = y, x, b, a
	}
	// Split a.
	below := x.levels[a.level-1]
	lo := a.i * edgeindex.Fanout
	hi := min(lo+edgeindex.Fanout, len(below))
	if !s.ordered {
		for c := lo; c < hi; c++ {
			if below[c].DistSq(b.box) <= s.limit && s.visit(x, y, node{a.level - 1, c, below[c]}, b) {
				return true
			}
		}
		return false
	}
	// Nearer children first, so that the bound shrinks early; once one
	// child's gap exceeds the bound, so do the rest.
	var gaps [edgeindex.Fanout]float64
	var order [edgeindex.Fanout]int
	n := 0
	for c := lo; c < hi; c++ {
		g, j := below[c].DistSq(b.box), n
		for ; j > 0 && gaps[j-1] > g; j-- {
			gaps[j], order[j] = gaps[j-1], order[j-1]
		}
		gaps[j], order[j] = g, c
		n++
	}
	for k := range n {
		if gaps[k] > s.limit {
			break
		}
		if c := order[k]; s.visit(x, y, node{a.level - 1, c, below[c]}, b) {
			return true
		}
	}
	return false
}

// leaves searches the edge pairs of two leaves whose boxes are within the
// bound: each side's edges within the bound of the other leaf's box, then
// Segment.DistSq on every pair whose edge boxes are within it too — at a
// bound of 0, Segment.Intersects.
func (s *Scratch) leaves(x, y *side, a, b node) bool {
	xe := x.screen(s.xe[:0], a.i, b.box, s.limit)
	if len(xe) == 0 {
		return false
	}
	ye := y.screen(s.ye[:0], b.i, a.box, s.limit)
	if s.limit == 0 {
		for _, e := range xe {
			for _, f := range ye {
				if e.box.Intersects(f.box) && e.seg.Intersects(f.seg) {
					return true
				}
			}
		}
		return false
	}
	for _, e := range xe {
		for _, f := range ye {
			if e.box.DistSq(f.box) > s.limit {
				continue
			}
			if v := e.seg.DistSq(f.seg); v <= s.limit {
				s.limit = v
				if v <= s.exit {
					return true
				}
			}
		}
	}
	return false
}

// screen appends to dst the edges of leaf whose boxes are within limit of
// target.
func (sd *side) screen(dst []boxedEdge, leaf int, target geom.Rect, limit float64) []boxedEdge {
	lo := leaf * sd.run
	hi := min(lo+sd.run, sd.poly.NumEdges())
	for i := lo; i < hi; i++ {
		e := sd.poly.Edge(i)
		if box := e.Bounds(); box.DistSq(target) <= limit {
			dst = append(dst, boxedEdge{e, box})
		}
	}
	return dst
}
