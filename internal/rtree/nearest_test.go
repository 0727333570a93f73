package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func TestNearestByOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	es := randEntries(rng, 500, 100, 3)
	tr := NewBulk(es)
	q := geom.R(48, 48, 52, 52)
	// Exact distance: MBR distance plus a deterministic per-entry offset,
	// exercising the refine-and-reorder logic (exact >= MBR distance).
	exact := func(e Entry) float64 {
		return e.Bounds.Dist(q) + float64(e.ID%7)*0.01
	}
	var got []float64
	var ids []int
	tr.NearestBy(q, exact, func(e Entry, d float64) bool {
		if math.Abs(d-exact(e)) > 1e-12 {
			t.Fatalf("reported distance %v != exact %v", d, exact(e))
		}
		got = append(got, d)
		ids = append(ids, e.ID)
		return true
	})
	if len(got) != len(es) {
		t.Fatalf("visited %d entries, want %d", len(got), len(es))
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatal("distances not in non-decreasing order")
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("entry %d visited twice", id)
		}
		seen[id] = true
	}
}

func TestNearestK(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	es := randEntries(rng, 300, 100, 2)
	tr := NewBulk(es)
	q := geom.R(10, 10, 12, 12)
	exact := func(e Entry) float64 { return e.Bounds.Dist(q) }
	for _, k := range []int{1, 5, 50, 500} {
		// The k nearest: visit in distance order, stop after k.
		var got []Entry
		done := tr.NearestBy(q, exact, func(e Entry, _ float64) bool {
			got = append(got, e)
			return len(got) < k
		})
		if len(got) != min(k, len(es)) || done != (k > len(es)) {
			t.Fatalf("k=%d: %d results, ran to completion %v", k, len(got), done)
		}
		// Compare against brute force.
		type de struct {
			d  float64
			id int
		}
		all := make([]de, len(es))
		for i, e := range es {
			all[i] = de{exact(e), e.ID}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
		for i, e := range got {
			if math.Abs(exact(e)-all[i].d) > 1e-12 {
				t.Fatalf("k=%d: result %d at distance %v, brute %v", k, i, exact(e), all[i].d)
			}
		}
	}
}

func TestNearestEmptyTree(t *testing.T) {
	tr := New()
	done := tr.NearestBy(geom.R(0, 0, 1, 1), func(Entry) float64 { return 0 }, func(e Entry, _ float64) bool {
		t.Errorf("empty tree visited %v", e)
		return true
	})
	if !done {
		t.Error("empty tree did not run to completion")
	}
}

func BenchmarkNearestK(b *testing.B) {
	rng := rand.New(rand.NewSource(83))
	tr := NewBulk(randEntries(rng, 10000, 1000, 2))
	q := geom.R(500, 500, 501, 501)
	exact := func(e Entry) float64 { return e.Bounds.Dist(q) }
	b.ResetTimer()
	for range b.N {
		n := 0
		tr.NearestBy(q, exact, func(Entry, float64) bool { n++; return n < 10 })
	}
}
