// Package sweep implements segment-intersection detection between two edge
// sets ("red" and "blue"), the core of the software refinement step for
// intersection queries. Two algorithms are provided:
//
//   - CrossIntersects: the plane-sweep (Shamos–Hoey style) detection the
//     paper uses, with a red-black tree as the sweep status structure.
//     O((n+m)log(n+m)) when the inputs are internally non-crossing, which
//     edge chains of simple polygons are.
//   - CrossIntersectsBrute: the O(n·m) all-pairs scan, the sweep's test
//     oracle and the faster choice on small inputs.
//
// Polygon-level entry points (the paper's two-step software intersection
// test with the restricted-search-space optimization) are in polygon.go.
package sweep

// color of a red-black tree node.
type color bool

const (
	red   color = false
	black color = true
)

// node is a red-black tree node holding one status-structure item.
type node struct {
	item                int
	parent, left, right *node
	color               color
}

// rbtree is an intrusive red-black tree ordered by a caller-supplied
// comparator. It exposes neighbor navigation (Prev/Next) and deletion by
// node pointer, which the sweep needs: status items are deleted when their
// segment leaves the sweep line, without re-running the (time-varying)
// comparator.
type rbtree struct {
	root *node
	cmp  func(a, b int) int
	size int
}

// Len returns the number of items in the tree.
func (t *rbtree) Len() int { return t.size }

// InsertNode inserts a caller-allocated node (its item must be set and
// links zeroed), letting hot paths draw nodes from an arena.
func (t *rbtree) InsertNode(z *node) {
	var parent *node
	link := &t.root
	for *link != nil {
		parent = *link
		if t.cmp(z.item, parent.item) < 0 {
			link = &parent.left
		} else {
			link = &parent.right
		}
	}
	z.parent = parent
	*link = z
	t.size++
	t.insertFix(z)
}

func (t *rbtree) rotateLeft(x *node) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *rbtree) rotateRight(x *node) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func (t *rbtree) insertFix(z *node) {
	for z.parent != nil && z.parent.color == red {
		g := z.parent.parent
		if z.parent == g.left {
			u := g.right
			if u != nil && u.color == red {
				z.parent.color = black
				u.color = black
				g.color = red
				z = g
				continue
			}
			if z == z.parent.right {
				z = z.parent
				t.rotateLeft(z)
			}
			z.parent.color = black
			g.color = red
			t.rotateRight(g)
		} else {
			u := g.left
			if u != nil && u.color == red {
				z.parent.color = black
				u.color = black
				g.color = red
				z = g
				continue
			}
			if z == z.parent.left {
				z = z.parent
				t.rotateRight(z)
			}
			z.parent.color = black
			g.color = red
			t.rotateLeft(g)
		}
	}
	t.root.color = black
}

// Min returns the leftmost node, or nil for an empty tree.
//
//reach:keep TestRBTreeInsertOrder and TestRBTreeRandomOps walk Min→Next to check the in-order sequence after inserts and deletes
func (t *rbtree) Min() *node {
	n := t.root
	if n == nil {
		return nil
	}
	for n.left != nil {
		n = n.left
	}
	return n
}

// Next returns the in-order successor of n, or nil.
func (t *rbtree) Next(n *node) *node {
	if n.right != nil {
		n = n.right
		for n.left != nil {
			n = n.left
		}
		return n
	}
	for n.parent != nil && n == n.parent.right {
		n = n.parent
	}
	return n.parent
}

// Prev returns the in-order predecessor of n, or nil.
func (t *rbtree) Prev(n *node) *node {
	if n.left != nil {
		n = n.left
		for n.right != nil {
			n = n.right
		}
		return n
	}
	for n.parent != nil && n == n.parent.left {
		n = n.parent
	}
	return n.parent
}

// transplant replaces subtree u with subtree v.
func (t *rbtree) transplant(u, v *node) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

// Delete removes node z from the tree. z must be a node previously returned
// by InsertNode on this tree. CLRS deletion with a nil-safe fix-up that tracks
// the fix node's parent explicitly.
func (t *rbtree) Delete(z *node) {
	t.size--
	y := z
	yColor := y.color
	var x *node
	var xParent *node
	switch {
	case z.left == nil:
		x = z.right
		xParent = z.parent
		t.transplant(z, z.right)
	case z.right == nil:
		x = z.left
		xParent = z.parent
		t.transplant(z, z.left)
	default:
		y = z.right
		for y.left != nil {
			y = y.left
		}
		yColor = y.color
		x = y.right
		if y.parent == z {
			xParent = y
		} else {
			xParent = y.parent
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.color = z.color
	}
	if yColor == black {
		t.deleteFix(x, xParent)
	}
}

func (t *rbtree) deleteFix(x, parent *node) {
	for x != t.root && isBlack(x) {
		if parent == nil {
			break
		}
		if x == parent.left {
			w := parent.right
			if w.color == red {
				w.color = black
				parent.color = red
				t.rotateLeft(parent)
				w = parent.right
			}
			if isBlack(w.left) && isBlack(w.right) {
				w.color = red
				x = parent
				parent = x.parent
				continue
			}
			if isBlack(w.right) {
				w.left.color = black
				w.color = red
				t.rotateRight(w)
				w = parent.right
			}
			w.color = parent.color
			parent.color = black
			w.right.color = black
			t.rotateLeft(parent)
			x = t.root
		} else {
			w := parent.left
			if w.color == red {
				w.color = black
				parent.color = red
				t.rotateRight(parent)
				w = parent.left
			}
			if isBlack(w.right) && isBlack(w.left) {
				w.color = red
				x = parent
				parent = x.parent
				continue
			}
			if isBlack(w.left) {
				w.right.color = black
				w.color = red
				t.rotateLeft(w)
				w = parent.left
			}
			w.color = parent.color
			parent.color = black
			w.left.color = black
			t.rotateRight(parent)
			x = t.root
		}
	}
	if x != nil {
		x.color = black
	}
}

func isBlack(n *node) bool { return n == nil || n.color == black }
