package sweep

import (
	"math/rand"
	"sort"
	"testing"
)

func intCmp(a, b int) int { return a - b }

// insert adds item through InsertNode, as the sweep does, and returns its node.
func insert(tr *rbtree, item int) *node {
	z := &node{item: item}
	tr.InsertNode(z)
	return z
}

// checkRB validates the red-black invariants and returns the black height.
func checkRB(t *testing.T, n *node) int {
	t.Helper()
	if n == nil {
		return 1
	}
	if n.color == red {
		if !isBlack(n.left) || !isBlack(n.right) {
			t.Fatal("red node with red child")
		}
	}
	if n.left != nil && n.left.parent != n {
		t.Fatal("broken parent link (left)")
	}
	if n.right != nil && n.right.parent != n {
		t.Fatal("broken parent link (right)")
	}
	lh := checkRB(t, n.left)
	rh := checkRB(t, n.right)
	if lh != rh {
		t.Fatalf("black height mismatch: %d vs %d", lh, rh)
	}
	if n.color == black {
		return lh + 1
	}
	return lh
}

// inorder collects items via Min/Next.
func inorder(tr *rbtree) []int {
	var out []int
	for n := tr.Min(); n != nil; n = tr.Next(n) {
		out = append(out, n.item)
	}
	return out
}

func TestRBTreeInsertOrder(t *testing.T) {
	tr := &rbtree{cmp: intCmp}
	vals := []int{5, 3, 9, 1, 4, 8, 10, 2, 7, 6}
	for _, v := range vals {
		insert(tr, v)
	}
	if tr.Len() != len(vals) {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := inorder(tr)
	want := append([]int(nil), vals...)
	sort.Ints(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("inorder = %v", got)
		}
	}
	checkRB(t, tr.root)
	if tr.root.color != black {
		t.Fatal("root not black")
	}
}

func TestRBTreePrevNext(t *testing.T) {
	tr := &rbtree{cmp: intCmp}
	nodes := map[int]*node{}
	for v := range 20 {
		nodes[v] = insert(tr, v)
	}
	for v := range 20 {
		n := nodes[v]
		if v > 0 {
			if p := tr.Prev(n); p == nil || p.item != v-1 {
				t.Fatalf("Prev(%d) wrong", v)
			}
		} else if tr.Prev(n) != nil {
			t.Fatal("Prev(min) != nil")
		}
		if v < 19 {
			if nx := tr.Next(n); nx == nil || nx.item != v+1 {
				t.Fatalf("Next(%d) wrong", v)
			}
		} else if tr.Next(n) != nil {
			t.Fatal("Next(max) != nil")
		}
	}
}

func TestRBTreeRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := range 50 {
		tr := &rbtree{cmp: intCmp}
		live := map[int]*node{}
		var keys []int
		for op := range 600 {
			if len(live) == 0 || rng.Intn(3) != 0 {
				// Insert a fresh key.
				k := trial*100000 + op
				live[k] = insert(tr, k)
				keys = append(keys, k)
			} else {
				// Delete a random live key by node pointer.
				i := rng.Intn(len(keys))
				k := keys[i]
				if nd, ok := live[k]; ok {
					tr.Delete(nd)
					delete(live, k)
				}
				keys[i] = keys[len(keys)-1]
				keys = keys[:len(keys)-1]
			}
		}
		if tr.Len() != len(live) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(live))
		}
		got := inorder(tr)
		want := make([]int, 0, len(live))
		for k := range live {
			want = append(want, k)
		}
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("inorder length %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("inorder mismatch at %d", i)
			}
		}
		checkRB(t, tr.root)
	}
}

func TestRBTreeDeleteAll(t *testing.T) {
	tr := &rbtree{cmp: intCmp}
	var nodes []*node
	for v := range 100 {
		nodes = append(nodes, insert(tr, v))
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	for i, nd := range nodes {
		tr.Delete(nd)
		if tr.Len() != 100-i-1 {
			t.Fatalf("Len after delete = %d", tr.Len())
		}
		checkRB(t, tr.root)
	}
	if tr.root != nil {
		t.Fatal("tree not empty")
	}
}
