package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func randRect(rng *rand.Rand, span, maxSide float64) geom.Rect {
	x, y := rng.Float64()*span, rng.Float64()*span
	return geom.R(x, y, x+rng.Float64()*maxSide, y+rng.Float64()*maxSide)
}

func randEntries(rng *rand.Rand, n int, span, maxSide float64) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Bounds: randRect(rng, span, maxSide), ID: i}
	}
	return es
}

// linearSearch is the oracle for Search.
func linearSearch(es []Entry, r geom.Rect) []int {
	var ids []int
	for _, e := range es {
		if e.Bounds.Intersects(r) {
			ids = append(ids, e.ID)
		}
	}
	sort.Ints(ids)
	return ids
}

func collectSearch(t *Tree, r geom.Rect) []int {
	var ids []int
	t.Search(r, func(e Entry) bool {
		ids = append(ids, e.ID)
		return true
	})
	sort.Ints(ids)
	return ids
}

// height returns the number of levels, 1 for a tree that is a single leaf.
func height(t *Tree) int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 || height(tr) != 1 {
		t.Errorf("empty tree Len=%d height=%d", tr.Len(), height(tr))
	}
	if !tr.Search(geom.R(0, 0, 1, 1), func(Entry) bool { t.Error("visited"); return true }) {
		t.Error("search aborted")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	other := NewBulk(nil)
	Join(tr, other, func(a, b Entry) bool { t.Error("pair visited"); return true })
}

func TestBulkLoadMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{1, 5, 16, 17, 100, 1000} {
		es := randEntries(rng, n, 50, 3)
		tr := NewBulk(es)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for range 50 {
			q := randRect(rng, 50, 10)
			if got, want := collectSearch(tr, q), linearSearch(es, q); !equalInts(got, want) {
				t.Fatalf("n=%d Search(%v) mismatch", n, q)
			}
		}
	}
}

func TestBulkLoadHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tr := NewBulk(randEntries(rng, 10000, 1000, 1))
	// 10000 entries at fanout 16: leaves=625, level2=40, level3=3, root -> height 4.
	if h := height(tr); h > 4 {
		t.Errorf("bulk height = %d, want <= 4", h)
	}
}

func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	tr := NewBulk(randEntries(rng, 500, 10, 10))
	count := 0
	completed := tr.Search(geom.R(0, 0, 10, 10), func(Entry) bool {
		count++
		return count < 5
	})
	if completed || count != 5 {
		t.Errorf("early stop: completed=%v count=%d", completed, count)
	}
}

func TestSearchWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	es := randEntries(rng, 500, 100, 4)
	tr := NewBulk(es)
	q := geom.R(40, 40, 45, 45)
	for _, d := range []float64{0, 1, 5, 25} {
		var got []int
		tr.SearchWithin(q, d, func(e Entry) bool { got = append(got, e.ID); return true })
		sort.Ints(got)
		var want []int
		for _, e := range es {
			if e.Bounds.Dist(q) <= d {
				want = append(want, e.ID)
			}
		}
		if !equalInts(got, want) {
			t.Fatalf("SearchWithin(d=%v): got %d, want %d", d, len(got), len(want))
		}
	}
}

func joinPairs(a, b *Tree, d float64) [][2]int {
	var pairs [][2]int
	JoinWithin(a, b, d, func(ea, eb Entry) bool {
		pairs = append(pairs, [2]int{ea.ID, eb.ID})
		return true
	})
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}

// TestJoinMatchesNestedLoop holds the synchronized traversal to a nested
// loop, on trees of equal height and on a single-leaf tree joined with a
// deeper one in both orders (the traversal's leaf-against-node branches).
func TestJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, sizes := range [][2]int{{300, 400}, {10, 400}, {400, 10}} {
		ea := randEntries(rng, sizes[0], 50, 4)
		eb := randEntries(rng, sizes[1], 50, 4)
		ta, tb := NewBulk(ea), NewBulk(eb)
		for _, d := range []float64{0, 2, 10} {
			got := joinPairs(ta, tb, d)
			var want [][2]int
			for _, a := range ea {
				for _, b := range eb {
					if a.Bounds.Dist(b.Bounds) <= d {
						want = append(want, [2]int{a.ID, b.ID})
					}
				}
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i][0] != want[j][0] {
					return want[i][0] < want[j][0]
				}
				return want[i][1] < want[j][1]
			})
			if len(got) != len(want) {
				t.Fatalf("%v d=%v: got %d pairs, want %d", sizes, d, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v d=%v: pair %d = %v, want %v", sizes, d, i, got[i], want[i])
				}
			}
		}
	}
}

// TestJoinEarlyStop: a visitor returning false ends the join at once, and
// SearchWithin likewise, whichever side of the traversal is deeper.
func TestJoinEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, sizes := range [][2]int{{100, 100}, {5, 300}, {300, 5}} {
		ta := NewBulk(randEntries(rng, sizes[0], 10, 5))
		tb := NewBulk(randEntries(rng, sizes[1], 10, 5))
		count := 0
		Join(ta, tb, func(a, b Entry) bool {
			count++
			return count < 3
		})
		if count != 3 {
			t.Errorf("%v: early stop count = %d", sizes, count)
		}
		count = 0
		if ta.SearchWithin(geom.R(0, 0, 10, 10), 1, func(Entry) bool { count++; return false }) || count != 1 {
			t.Errorf("%v: SearchWithin did not stop at the first entry (%d visited)", sizes, count)
		}
	}
}

func BenchmarkBulkLoad10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	es := randEntries(rng, 10000, 1000, 2)
	b.ResetTimer()
	for range b.N {
		NewBulk(es)
	}
}

func BenchmarkSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tr := NewBulk(randEntries(rng, 10000, 1000, 2))
	b.ResetTimer()
	for i := range b.N {
		q := geom.R(float64(i%900), float64(i%900), float64(i%900)+20, float64(i%900)+20)
		tr.Search(q, func(Entry) bool { return true })
	}
}

func BenchmarkJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ta := NewBulk(randEntries(rng, 5000, 500, 2))
	tb := NewBulk(randEntries(rng, 5000, 500, 2))
	b.ResetTimer()
	for range b.N {
		Join(ta, tb, func(Entry, Entry) bool { return true })
	}
}
