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
// the candidates it refines reach the tester with the layer's cached
// edge indexes: on a fresh layer, after one select, every candidate the
// filter leaves to refinement has its index hydrated, and some of those
// indexes hold a hierarchy the distance kernel descends.
func TestSelectionUsesQueryIndex(t *testing.T) {
	queries := data.MustLoad("STATES50", 1)
	q := queries.Objects[0]
	layer := NewLayer(layerA.Data)
	tester := core.NewTester(core.Config{DisableHardware: true})
	got, _, err := IntersectionSelectView(bg, layer.View(), q, tester, JoinOptions{InteriorLevel: -1})
	if err != nil {
		t.Fatal(err)
	}
	sameIDs(t, "select", got, oracleSelect(layer, q))
	probe := core.NewTester(core.Config{DisableHardware: true})
	refined, indexed := 0, 0
	for id, p := range layer.Data.Objects {
		if probe.FilterIntersects(q, p, core.PairContext{}) != core.VerdictUndecided {
			continue
		}
		refined++
		ix := layer.edgeIdx[id].Load()
		if ix == nil || ix.Polygon() != p {
			t.Fatalf("object %d was refined without the layer's cached edge index", id)
		}
		if ix.Indexed() {
			indexed++
		}
	}
	if refined == 0 || indexed == 0 || tester.Stats.SWDirect != int64(refined) {
		t.Fatalf("%d candidates refined (%d with a hierarchy), the tester counted %d: the test is vacuous or the counts disagree",
			refined, indexed, tester.Stats.SWDirect)
	}
}
