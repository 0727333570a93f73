package sweep

import (
	"slices"

	"repro/internal/geom"
)

// event is one sweep event: a segment's left or right endpoint.
type event struct {
	x    float64
	kind eventKind
	idx  int32
}

// Sweeper runs plane-sweep intersection detections with all working
// storage (segment tables, event queue, status-tree nodes) reused across
// runs, so a query processor performing millions of pair tests does not
// allocate per pair. The zero value is ready to use; its buffers grow to
// the size of the largest input seen. A Sweeper is not safe for concurrent
// use; keep one per worker, like a Tester.
type Sweeper struct {
	st     sweepState
	events []event
	nodes  []*node
	arena  []node
	// tree is the reusable status structure. Its comparator closure is
	// bound to &st once on first use — binding a method value per call
	// allocates, which the steady-state zero-allocation contract
	// (core's AllocsPerRun tests) forbids.
	tree rbtree
}

// CrossIntersects reports whether any red segment intersects any blue
// segment; see the package-level CrossIntersects for the algorithm and its
// preconditions.
func (sw *Sweeper) CrossIntersects(red, blue []geom.Segment) bool {
	if len(red) == 0 || len(blue) == 0 {
		return false
	}
	n := len(red) + len(blue)
	st := &sw.st
	st.segs = st.segs[:0]
	st.blue = st.blue[:0]
	for _, s := range red {
		st.segs = append(st.segs, normalize(s))
		st.blue = append(st.blue, false)
	}
	for _, s := range blue {
		st.segs = append(st.segs, normalize(s))
		st.blue = append(st.blue, true)
	}

	events := sw.events[:0]
	for i, s := range st.segs {
		events = append(events,
			event{s.A.X, evInsert, int32(i)},
			event{s.B.X, evRemove, int32(i)},
		)
	}
	sw.events = events
	// Inserts before removes at equal x so that segments meeting at a
	// point coexist in the status and get neighbor-checked.
	slices.SortFunc(events, func(a, b event) int {
		switch {
		case a.x < b.x:
			return -1
		case a.x > b.x:
			return 1
		case a.kind != b.kind:
			return int(a.kind) - int(b.kind)
		default:
			return 0
		}
	})

	if cap(sw.nodes) < n {
		sw.nodes = make([]*node, n)
	}
	nodes := sw.nodes[:n]
	if cap(sw.arena) < n {
		sw.arena = make([]node, n)
	}
	arena := sw.arena[:n]
	arenaNext := 0

	if sw.tree.cmp == nil {
		sw.tree.cmp = st.compare
	}
	sw.tree.root = nil
	sw.tree.size = 0
	tree := &sw.tree

	check := func(a, b *node) bool {
		if a == nil || b == nil {
			return false
		}
		if st.blue[a.item] == st.blue[b.item] {
			return false
		}
		return st.segs[a.item].Intersects(st.segs[b.item])
	}

	for _, ev := range events {
		st.x = ev.x
		idx := int(ev.idx)
		if ev.kind == evInsert {
			nd := &arena[arenaNext]
			arenaNext++
			*nd = node{item: idx}
			tree.InsertNode(nd)
			nodes[idx] = nd
			prev, next := tree.Prev(nd), tree.Next(nd)
			if check(nd, prev) || check(nd, next) {
				return true
			}
			// Walk any bundle of status items passing through the same
			// point: ties hide cross-class touches behind same-class
			// neighbors.
			y := st.yAt(idx)
			for p := prev; p != nil && st.yAt(p.item) == y; p = tree.Prev(p) {
				if check(nd, p) {
					return true
				}
			}
			for nx := next; nx != nil && st.yAt(nx.item) == y; nx = tree.Next(nx) {
				if check(nd, nx) {
					return true
				}
			}
		} else {
			nd := nodes[idx]
			prev, next := tree.Prev(nd), tree.Next(nd)
			tree.Delete(nd)
			nodes[idx] = nil
			if check(prev, next) {
				return true
			}
		}
	}
	return false
}
