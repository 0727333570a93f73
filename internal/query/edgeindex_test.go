package query

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
)

// TestEdgeIndexCached pins the lazy-build contract: repeated calls return
// the same immutable index, and the index really is the object's.
func TestEdgeIndexCached(t *testing.T) {
	layer := NewLayer(data.MustLoad("LANDC", 0.002))
	for id := range layer.Data.Objects {
		ix := layer.EdgeIndex(id)
		if ix.Polygon() != layer.Data.Objects[id] {
			t.Fatalf("object %d: index built for wrong polygon", id)
		}
		if again := layer.EdgeIndex(id); again != ix {
			t.Fatalf("object %d: second EdgeIndex call returned a different index", id)
		}
	}
}

// TestEdgeIndexSharedAcrossWorkers drives 8 pooled joins through one Layer's
// edge indexes simultaneously — racing the lazy CompareAndSwap publication
// and then reading the shared hierarchies — and checks every worker's
// join result against the brute-force oracle. Run under -race this is the
// concurrency proof for the shared read-only index design.
func TestEdgeIndexSharedAcrossWorkers(t *testing.T) {
	a := NewLayer(data.MustLoad("LANDC", 0.002))
	b := NewLayer(data.MustLoad("LANDO", 0.001))

	wantSorted := oraclePairs(a.View(), b.View(), bruteIntersects) // already in (A, B) order
	if len(wantSorted) == 0 {
		t.Fatal("test layers do not overlap; generator broken")
	}

	const workers = 8
	results := make([][]Pair, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w], _, errs[w] = pooledJoin(a, b, JoinOptions{Workers: 2, BatchSize: 8, Tester: func() *core.Tester {
				return core.NewTester(core.Config{DisableHardware: true})
			}})
		}()
	}
	wg.Wait()
	for w := range workers {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		got := sortedPairs(results[w])
		if len(got) != len(wantSorted) {
			t.Fatalf("worker %d: %d pairs, want %d", w, len(got), len(wantSorted))
		}
		for i := range wantSorted {
			if got[i] != wantSorted[i] {
				t.Fatalf("worker %d: pair %d = %v, want %v", w, i, got[i], wantSorted[i])
			}
		}
	}
}

// TestSelectionUsesQueryIndex checks a selection against a complex query
// polygon still matches the oracle when the query-side index is active
// (built once, for the first candidate that reaches the tester) and that
// index stats actually flow: on layers with indexed objects some hits must
// register.
func TestSelectionUsesQueryIndex(t *testing.T) {
	queries := data.MustLoad("STATES50", 1)
	q := queries.Objects[0]
	tester := core.NewTester(core.Config{DisableHardware: true})
	got, _, err := IntersectionSelectView(bg, layerA.View(), q, tester, JoinOptions{InteriorLevel: -1, NoIntervals: true})
	if err != nil {
		t.Fatal(err)
	}
	sameIDs(t, "select", got, oracleSelect(layerA, q))
	if tester.Stats.EdgeIndexHits == 0 {
		t.Error("selection refinement recorded no edge-index hits")
	}
	if tester.Stats.EdgeIndexSkippedEdges == 0 {
		t.Error("selection refinement recorded no skipped edges")
	}
}
