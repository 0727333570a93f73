package query

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/store"
)

// scratchState builds the expected post-mutation state from first
// principles: base objects minus deletes (identity ids), then inserts in
// order — the canonical order a live view must agree with.
func scratchState(base *data.Dataset, deletes map[uint64]bool, inserts []*geom.Polygon) *data.Dataset {
	var objs []*geom.Polygon
	for i, p := range base.Objects {
		if !deletes[uint64(i)] {
			objs = append(objs, p)
		}
	}
	objs = append(objs, inserts...)
	return &data.Dataset{Name: base.Name, Objects: objs}
}

func applyScript(t *testing.T, lv *Live, deletes map[uint64]bool, inserts []*geom.Polygon) {
	t.Helper()
	lsn := uint64(0)
	for id := uint64(0); id < uint64(len(lv.base.Data.Objects)); id++ {
		if deletes[id] {
			lsn++
			if !lv.ApplyDelete(id, lsn) {
				t.Fatalf("delete %d found nothing", id)
			}
		}
	}
	for _, p := range inserts {
		lsn++
		lv.ApplyInsert(lv.ReserveID(), p, lsn)
	}
}

func samePairs(t *testing.T, ctxName string, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", ctxName, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %v, want %v", ctxName, i, got[i], want[i])
		}
	}
}

func sameIDs(t *testing.T, ctxName string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ids, want %d", ctxName, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: id %d = %d, want %d", ctxName, i, got[i], want[i])
		}
	}
}

// TestLiveViewParity pins the composed read path against a from-scratch
// build of the same state: every query through the snapshot ∪ delta −
// tombstones view must return exactly the results of a layer built
// directly from the mutated dataset, in canonical positions.
func TestLiveViewParity(t *testing.T) {
	deletes := map[uint64]bool{3: true, 17: true, 40: true}
	inserts := layerB.Data.Objects[:8]
	lv := NewLive(layerA, nil, 0, 0)
	applyScript(t, lv, deletes, inserts)
	scratch := NewLayer(scratchState(layerA.Data, deletes, inserts))

	v := lv.View()
	if _, ok := v.Single(); ok {
		t.Fatal("mutated view claims to be single-component")
	}
	if v.NumObjects() != len(scratch.Data.Objects) {
		t.Fatalf("view has %d objects, scratch %d", v.NumObjects(), len(scratch.Data.Objects))
	}

	// Selections across a query workload.
	queries := data.MustLoad("STATES50", 1)
	for qi, q := range queries.Objects {
		want, _, err := IntersectionSelectView(bg, scratch.View(), q, swTester(), JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := IntersectionSelectView(bg, v, q, swTester(), JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameIDs(t, fmt.Sprintf("select %d", qi), got, want)
	}

	// Self-join over the composed view (the crash harness's parity oracle).
	want, _, err := IntersectionJoinView(bg, scratch.View(), scratch.View(), swTester(), JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sortPairsByOuter(want)
	got, _, err := IntersectionJoinView(bg, v, v, swTester(), JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "self-join", got, want)

	// Cross join live × plain layer.
	wantX, _, err := IntersectionJoinView(bg, scratch.View(), layerB.View(), swTester(), JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sortPairsByOuter(wantX)
	gotX, _, err := IntersectionJoinView(bg, v, layerB.View(), swTester(), JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "cross-join", gotX, wantX)

	// Within-distance join.
	d := data.BaseD(layerA.Data, layerB.Data)
	wantW, _, err := WithinDistanceJoinView(bg, scratch.View(), layerB.View(), d, swTester(), JoinOptions{Use0Object: true})
	if err != nil {
		t.Fatal(err)
	}
	sortPairsByOuter(wantW)
	gotW, _, err := WithinDistanceJoinView(bg, v, layerB.View(), d, swTester(), JoinOptions{Use0Object: true})
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "within-join", gotW, wantW)

	// The pooled join agrees with the inline composed join.
	gotP, _, err := PipelineIntersectionJoinView(bg, v, v, JoinOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "parallel-join", gotP, want)

	// Freeze produces the canonical state: same objects, increasing ids.
	fr := lv.Freeze()
	if len(fr.Dataset.Objects) != len(scratch.Data.Objects) {
		t.Fatalf("frozen %d objects, want %d", len(fr.Dataset.Objects), len(scratch.Data.Objects))
	}
	for i, p := range scratch.Data.Objects {
		if fr.Dataset.Objects[i] != p {
			t.Fatalf("frozen object %d is not the canonical object", i)
		}
	}
	for i := 1; i < len(fr.IDs); i++ {
		if fr.IDs[i] <= fr.IDs[i-1] {
			t.Fatalf("frozen ids not increasing at %d", i)
		}
	}
	if fr.Delta != len(inserts) || fr.Tombs != len(deletes) {
		t.Fatalf("frozen delta/tombs = %d/%d, want %d/%d", fr.Delta, fr.Tombs, len(inserts), len(deletes))
	}
}

// TestLiveViewFastPaths pins the undecorated cases: an untouched live
// table serves its base's cached single view, and delete-then-reinsert
// state transitions invalidate the cache.
func TestLiveViewFastPaths(t *testing.T) {
	lv := NewLive(layerA, nil, 0, 0)
	v := lv.View()
	if l, ok := v.Single(); !ok || l != layerA {
		t.Fatal("untouched live table is not the base single view")
	}
	if lv.View() != v {
		t.Fatal("view not cached")
	}
	if !lv.Has(0) || lv.Has(uint64(len(layerA.Data.Objects)+10)) {
		t.Fatal("Has wrong on base ids")
	}
	lsn := uint64(1)
	if !lv.ApplyDelete(5, lsn) {
		t.Fatal("delete id 5")
	}
	if lv.ApplyDelete(5, lsn+1) {
		t.Fatal("double delete found an alive object")
	}
	v2 := lv.View()
	if v2 == v {
		t.Fatal("mutation did not invalidate the cached view")
	}
	if _, ok := v2.Single(); ok {
		t.Fatal("tombstoned view claims single")
	}
	base, delta, tombs := v2.Counts()
	if base != len(layerA.Data.Objects) || delta != 0 || tombs != 1 {
		t.Fatalf("counts = %d/%d/%d", base, delta, tombs)
	}
	if v2.NumObjects() != base-1 {
		t.Fatalf("NumObjects %d, want %d", v2.NumObjects(), base-1)
	}
	// Reinserting under a fresh id revives the object count.
	id := lv.ReserveID()
	lv.ApplyInsert(id, layerA.Data.Objects[5], 3)
	if !lv.Has(id) {
		t.Fatal("inserted id not found")
	}
	if got := lv.View().NumObjects(); got != base {
		t.Fatalf("after reinsert NumObjects %d, want %d", got, base)
	}
}

// TestForceCopyDeltaOverlayParity is the satellite coverage for
// OpenOptions.ForceCopy composed with a live delta: the portable
// (copy-decode) snapshot path and the mmap path must see identical
// snapshot ∪ delta results, exercised concurrently under -race while a
// mutator keeps both tables moving in lockstep.
func TestForceCopyDeltaOverlayParity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.snap")
	if _, err := store.Save(path, layerA.Data, store.SaveOptions{}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	lives := make([]*Live, 2)
	for i, forceCopy := range []bool{false, true} {
		s, err := store.Open(path, store.OpenOptions{ForceCopy: forceCopy})
		if err != nil {
			t.Fatalf("Open(forceCopy=%v): %v", forceCopy, err)
		}
		t.Cleanup(func() { s.Close() })
		l, err := NewLayerFromSnapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		lives[i] = NewLive(l, s.IDs(), s.NextID(), s.AppliedLSN())
	}

	inserts := layerB.Data.Objects[:12]
	queries := data.MustLoad("STATES50", 1).Objects[:10]

	// A mutator drives both tables through the same script while readers
	// hammer consistent views; every reader's fetched view is immutable,
	// so per-iteration counts may differ across tables but must never
	// race or return out-of-range positions.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, lv := range lives {
		wg.Add(1)
		go func(lv *Live) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[i%len(queries)]
				v := lv.View()
				ids, _, err := IntersectionSelectView(bg, v, q, swTester(), JoinOptions{})
				if err != nil {
					t.Errorf("select: %v", err)
					return
				}
				for _, id := range ids {
					if id < 0 || id >= v.NumObjects() {
						t.Errorf("select returned position %d of %d", id, v.NumObjects())
						return
					}
				}
			}
		}(lv)
	}
	lsn := uint64(0)
	for _, p := range inserts {
		lsn++
		for _, lv := range lives {
			lv.ApplyInsert(lv.ReserveID(), p, lsn)
		}
	}
	for _, id := range []uint64{2, 9, 33} {
		lsn++
		for _, lv := range lives {
			if !lv.ApplyDelete(id, lsn) {
				t.Errorf("delete %d found nothing", id)
			}
		}
	}
	close(stop)
	wg.Wait()

	// Settled: the two read paths must agree query for query, and match
	// the from-scratch oracle.
	deletes := map[uint64]bool{2: true, 9: true, 33: true}
	scratch := NewLayer(scratchState(layerA.Data, deletes, inserts))
	vm, vc := lives[0].View(), lives[1].View()
	for qi, q := range queries {
		want, _, err := IntersectionSelectView(bg, scratch.View(), q, swTester(), JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gotM, _, err := IntersectionSelectView(bg, vm, q, swTester(), JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gotC, _, err := IntersectionSelectView(bg, vc, q, swTester(), JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameIDs(t, fmt.Sprintf("mmap select %d", qi), gotM, want)
		sameIDs(t, fmt.Sprintf("copy select %d", qi), gotC, gotM)
	}
	wantJ, _, err := IntersectionJoinView(bg, scratch.View(), scratch.View(), swTester(), JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sortPairsByOuter(wantJ)
	for name, v := range map[string]*View{"mmap": vm, "copy": vc} {
		got, _, err := IntersectionJoinView(bg, v, v, swTester(), JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, name+" self-join", got, wantJ)
	}
}
