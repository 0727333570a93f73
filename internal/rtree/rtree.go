// Package rtree implements the R-tree index used by the MBR filtering step
// of the query pipeline: STR bulk loading (every layer's index is built
// whole, from a dataset or a snapshot), window search, and the
// synchronized-traversal spatial joins (MBR intersection and MBR
// within-distance) that feed candidate pairs to the intermediate filters
// and the refinement step.
package rtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// Default node capacity. 16 entries keeps nodes around a cache line's worth
// of rectangles while staying close to the classic page-sized fanouts.
const (
	DefaultMaxEntries = 16
	DefaultMinEntries = DefaultMaxEntries * 2 / 5
)

// Entry is one indexed object: its MBR and the caller's identifier
// (typically an index into a dataset's object slice).
type Entry struct {
	Bounds geom.Rect
	ID     int
}

// rnode is an R-tree node. Leaves hold entries; internal nodes hold
// children. bounds is the union of whatever the node holds.
type rnode struct {
	bounds   geom.Rect
	entries  []Entry  // leaf level only
	children []*rnode // internal level only
	leaf     bool
}

// Tree is an R-tree over 2D rectangles. The zero value is not usable; build
// trees with New or NewBulk.
type Tree struct {
	root       *rnode
	size       int
	maxEntries int
	minEntries int // recorded in snapshots; nothing splits a node
}

// New returns an empty R-tree with default node capacity.
func New() *Tree {
	return &Tree{
		root:       &rnode{leaf: true, bounds: geom.EmptyRect()},
		maxEntries: DefaultMaxEntries,
		minEntries: DefaultMinEntries,
	}
}

// Len returns the number of indexed entries.
func (t *Tree) Len() int { return t.size }

func unionEntries(es []Entry) geom.Rect {
	u := geom.EmptyRect()
	for _, e := range es {
		u = u.Union(e.Bounds)
	}
	return u
}

func unionChildren(cs []*rnode) geom.Rect {
	u := geom.EmptyRect()
	for _, c := range cs {
		u = u.Union(c.bounds)
	}
	return u
}

// NewBulk builds a tree from entries using Sort-Tile-Recursive packing:
// sort by x, slice into vertical strips, sort each strip by y, pack leaves,
// then repeat upward. Produces well-clustered nodes and is the standard
// way to load static datasets like the evaluation's.
func NewBulk(entries []Entry) *Tree {
	t := New()
	if len(entries) == 0 {
		return t
	}
	t.size = len(entries)

	es := make([]Entry, len(entries))
	copy(es, entries)
	leaves := packLeaves(es, t.maxEntries)
	level := leaves
	for len(level) > 1 {
		level = packInternal(level, t.maxEntries)
	}
	t.root = level[0]
	return t
}

// packLeaves arranges entries into leaf nodes with STR.
func packLeaves(es []Entry, cap_ int) []*rnode {
	n := len(es)
	leafCount := (n + cap_ - 1) / cap_
	sliceCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	sliceSize := sliceCount * cap_

	sort.Slice(es, func(i, j int) bool {
		return es[i].Bounds.Center().X < es[j].Bounds.Center().X
	})
	var leaves []*rnode
	for lo := 0; lo < n; lo += sliceSize {
		hi := min(lo+sliceSize, n)
		strip := es[lo:hi]
		sort.Slice(strip, func(i, j int) bool {
			return strip[i].Bounds.Center().Y < strip[j].Bounds.Center().Y
		})
		for s := 0; s < len(strip); s += cap_ {
			e := min(s+cap_, len(strip))
			leaf := &rnode{leaf: true, entries: append([]Entry(nil), strip[s:e]...)}
			leaf.bounds = unionEntries(leaf.entries)
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// packInternal arranges nodes of one level into parents with STR.
func packInternal(nodes []*rnode, cap_ int) []*rnode {
	n := len(nodes)
	parentCount := (n + cap_ - 1) / cap_
	sliceCount := int(math.Ceil(math.Sqrt(float64(parentCount))))
	sliceSize := sliceCount * cap_

	sort.Slice(nodes, func(i, j int) bool {
		return nodes[i].bounds.Center().X < nodes[j].bounds.Center().X
	})
	var parents []*rnode
	for lo := 0; lo < n; lo += sliceSize {
		hi := min(lo+sliceSize, n)
		strip := nodes[lo:hi]
		sort.Slice(strip, func(i, j int) bool {
			return strip[i].bounds.Center().Y < strip[j].bounds.Center().Y
		})
		for s := 0; s < len(strip); s += cap_ {
			e := min(s+cap_, len(strip))
			p := &rnode{children: append([]*rnode(nil), strip[s:e]...)}
			p.bounds = unionChildren(p.children)
			parents = append(parents, p)
		}
	}
	return parents
}

// Search visits every entry whose MBR intersects r. The visitor returns
// false to stop the search early; Search reports whether it ran to
// completion.
func (t *Tree) Search(r geom.Rect, visit func(Entry) bool) bool {
	return searchNode(t.root, r, visit)
}

func searchNode(n *rnode, r geom.Rect, visit func(Entry) bool) bool {
	if !n.bounds.Intersects(r) {
		return true
	}
	if n.leaf {
		for _, e := range n.entries {
			if e.Bounds.Intersects(r) {
				if !visit(e) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !searchNode(c, r, visit) {
			return false
		}
	}
	return true
}

// SearchWithin visits every entry whose MBR is within distance d of r.
func (t *Tree) SearchWithin(r geom.Rect, d float64, visit func(Entry) bool) bool {
	return searchWithinNode(t.root, r, geom.SqBound(d), visit)
}

// searchWithinNode compares squared MBR distances against dSq =
// geom.SqBound(d): the same verdicts as rooted distances against d, without
// the roots.
func searchWithinNode(n *rnode, r geom.Rect, dSq float64, visit func(Entry) bool) bool {
	if n.bounds.DistSq(r) > dSq {
		return true
	}
	if n.leaf {
		for _, e := range n.entries {
			if e.Bounds.DistSq(r) <= dSq {
				if !visit(e) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !searchWithinNode(c, r, dSq, visit) {
			return false
		}
	}
	return true
}

// Join visits every pair (a, b) with a from t, b from other, whose MBRs
// intersect, using synchronized tree traversal. The visitor returns false
// to stop.
func Join(t, other *Tree, visit func(a, b Entry) bool) bool {
	return JoinWithin(t, other, 0, visit)
}

// JoinWithin visits every pair whose MBR distance is at most d. d = 0
// degenerates to the intersection join (touching MBRs have distance 0).
func JoinWithin(t, other *Tree, d float64, visit func(a, b Entry) bool) bool {
	if t.size == 0 || other.size == 0 {
		return true
	}
	return joinNodes(t.root, other.root, geom.SqBound(d), visit)
}

// joinNodes, like searchWithinNode, works on squared distances.
func joinNodes(a, b *rnode, dSq float64, visit func(a, b Entry) bool) bool {
	if a.bounds.DistSq(b.bounds) > dSq {
		return true
	}
	switch {
	case a.leaf && b.leaf:
		for _, ea := range a.entries {
			for _, eb := range b.entries {
				if ea.Bounds.DistSq(eb.Bounds) <= dSq {
					if !visit(ea, eb) {
						return false
					}
				}
			}
		}
	case a.leaf:
		for _, cb := range b.children {
			if !joinNodes(a, cb, dSq, visit) {
				return false
			}
		}
	case b.leaf:
		for _, ca := range a.children {
			if !joinNodes(ca, b, dSq, visit) {
				return false
			}
		}
	default:
		for _, ca := range a.children {
			for _, cb := range b.children {
				if !joinNodes(ca, cb, dSq, visit) {
					return false
				}
			}
		}
	}
	return true
}

// Validate checks structural invariants (bounds containment, fill limits,
// uniform leaf depth) and returns an error describing the first violation.
// Intended for tests.
func (t *Tree) Validate() error {
	if t.root == nil {
		return fmt.Errorf("rtree: nil root")
	}
	depth := -1
	var walk func(n *rnode, level int) error
	walk = func(n *rnode, level int) error {
		if n.leaf {
			if depth == -1 {
				depth = level
			} else if depth != level {
				return fmt.Errorf("rtree: leaves at depths %d and %d", depth, level)
			}
			for _, e := range n.entries {
				if !n.bounds.ContainsRect(e.Bounds) {
					return fmt.Errorf("rtree: entry %d outside leaf bounds", e.ID)
				}
			}
			return nil
		}
		if len(n.children) == 0 {
			return fmt.Errorf("rtree: internal node with no children")
		}
		if len(n.children) > t.maxEntries {
			return fmt.Errorf("rtree: node with %d > %d children", len(n.children), t.maxEntries)
		}
		for _, c := range n.children {
			if !n.bounds.ContainsRect(c.bounds) {
				return fmt.Errorf("rtree: child bounds escape parent")
			}
			if err := walk(c, level+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, 0)
}
