package rtree

import (
	"container/heap"

	"repro/internal/geom"
)

// NearestBy visits entries in non-decreasing order of their exact distance
// to a query, using the classic best-first (Hjaltason–Samet) traversal:
// tree nodes are expanded in MBR-distance order, and each entry's exact
// distance — supplied by the caller, typically an exact geometry distance
// — is re-enqueued so an entry is only reported once no unexplored subtree
// or pending entry can beat it. exact must be ≥ the entry's MBR distance
// to q (MBR distance lower-bounds object distance, so any true geometry
// distance qualifies). The visitor returns false to stop (e.g. after k
// results); NearestBy reports whether it ran to completion.
func (t *Tree) NearestBy(q geom.Rect, exact func(Entry) float64, visit func(Entry, float64) bool) bool {
	if t.size == 0 {
		return true
	}
	pq := &nnHeap{}
	heap.Push(pq, nnItem{dist: t.root.bounds.Dist(q), node: t.root})
	for pq.Len() > 0 {
		it := heap.Pop(pq).(nnItem)
		switch {
		case it.refined:
			if !visit(it.entry, it.dist) {
				return false
			}
		case it.node != nil:
			if it.node.leaf {
				for _, e := range it.node.entries {
					heap.Push(pq, nnItem{dist: e.Bounds.Dist(q), entry: e})
				}
			} else {
				for _, c := range it.node.children {
					heap.Push(pq, nnItem{dist: c.bounds.Dist(q), node: c})
				}
			}
		default:
			// An entry surfacing on its MBR distance: refine and re-enqueue
			// on the exact distance.
			heap.Push(pq, nnItem{dist: exact(it.entry), entry: it.entry, refined: true})
		}
	}
	return true
}

// nnItem is one priority-queue element: an internal node, an unrefined
// entry (keyed by MBR distance), or a refined entry (keyed by exact
// distance).
type nnItem struct {
	dist    float64
	node    *rnode
	entry   Entry
	refined bool
}

type nnHeap []nnItem

func (h nnHeap) Len() int { return len(h) }
func (h nnHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	// Prefer refined entries on ties so results surface deterministically.
	return h[i].refined && !h[j].refined
}
func (h nnHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nnHeap) Push(x any)   { *h = append(*h, x.(nnItem)) }
func (h *nnHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
