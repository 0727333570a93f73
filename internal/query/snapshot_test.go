package query

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/store"
)

// snapshotLayer saves the dataset to a temp snapshot and loads it back
// through the requested path (mmap or the read-into-slice fallback). The
// snapshot is closed with the test.
func snapshotLayer(t testing.TB, d *data.Dataset, forceCopy bool) *Layer {
	t.Helper()
	path := filepath.Join(t.TempDir(), d.Name+".snap")
	if _, err := store.Save(path, d, store.SaveOptions{}); err != nil {
		t.Fatalf("Save(%s): %v", d.Name, err)
	}
	s, err := store.Open(path, store.OpenOptions{ForceCopy: forceCopy})
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { s.Close() })
	l, err := NewLayerFromSnapshot(s)
	if err != nil {
		t.Fatalf("NewLayerFromSnapshot: %v", err)
	}
	return l
}

func swTester() *core.Tester {
	return core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold})
}

// TestSnapshotLayerQueriesBitIdentical is the round-trip acceptance test:
// every query type against a snapshot-loaded layer must return results
// bit-identical to the same query against the in-memory layer, on both
// the mmap and copy load paths. The loaded side carries persisted
// signatures the memory side lacks, so identical results also prove the
// signature filter conservative end to end.
func TestSnapshotLayerQueriesBitIdentical(t *testing.T) {
	queries := data.MustLoad("STATES50", 1)
	d := data.BaseD(layerA.Data, layerB.Data)

	for _, tc := range []struct {
		name      string
		forceCopy bool
	}{
		{"mmap", false},
		{"copy", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snapA := snapshotLayer(t, layerA.Data, tc.forceCopy)
			snapB := snapshotLayer(t, layerB.Data, tc.forceCopy)
			if snapA.Signature(0) == nil {
				t.Fatal("snapshot layer carries no signatures")
			}

			// Selections: every STATES50 polygon against layer A.
			for qi, q := range queries.Objects {
				want, _, err := IntersectionSelectView(bg, layerA.View(), q, swTester(), JoinOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := IntersectionSelectView(bg, snapA.View(), q, swTester(), JoinOptions{})
				if err != nil {
					t.Fatal(err)
				}
				sameIDs(t, fmt.Sprintf("select %d", qi), got, want)
			}

			// Joins: snapshot layers on both sides.
			wantJ, _, err := IntersectionJoinView(bg, layerA.View(), layerB.View(), swTester(), JoinOptions{})
			if err != nil {
				t.Fatal(err)
			}
			gotJ, _, err := IntersectionJoinView(bg, snapA.View(), snapB.View(), swTester(), JoinOptions{})
			if err != nil {
				t.Fatal(err)
			}
			gj, wj := sortedPairs(gotJ), sortedPairs(wantJ)
			if len(gj) != len(wj) {
				t.Fatalf("join %d pairs, want %d", len(gj), len(wj))
			}
			for i := range wj {
				if gj[i] != wj[i] {
					t.Fatalf("join pair[%d]=%v, want %v", i, gj[i], wj[i])
				}
			}

			wantD, _, err := WithinDistanceJoinView(bg, layerA.View(), layerB.View(), d, swTester(), JoinOptions{Use0Object: true, Use1Object: true})
			if err != nil {
				t.Fatal(err)
			}
			gotD, _, err := WithinDistanceJoinView(bg, snapA.View(), snapB.View(), d, swTester(), JoinOptions{Use0Object: true, Use1Object: true})
			if err != nil {
				t.Fatal(err)
			}
			gd, wd := sortedPairs(gotD), sortedPairs(wantD)
			if len(gd) != len(wd) {
				t.Fatalf("within-join %d pairs, want %d", len(gd), len(wd))
			}
			for i := range wd {
				if gd[i] != wd[i] {
					t.Fatalf("within-join pair[%d]=%v, want %v", i, gd[i], wd[i])
				}
			}

			// Pooled join over snapshot layers agrees with inline memory.
			gotP, _, err := PipelineIntersectionJoinView(bg, snapA.View(), snapB.View(), JoinOptions{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			gp := sortedPairs(gotP)
			if len(gp) != len(wj) {
				t.Fatalf("parallel join %d pairs, want %d", len(gp), len(wj))
			}
			for i := range wj {
				if gp[i] != wj[i] {
					t.Fatalf("parallel join pair[%d]=%v, want %v", i, gp[i], wj[i])
				}
			}

			// Nearest neighbors: identical ids and distances.
			for _, q := range queries.Objects[:4] {
				want, err := KNearest(bg, layerA, q, 5)
				if err != nil {
					t.Fatal(err)
				}
				got, err := KNearest(bg, snapA, q, 5)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("knn %d neighbors, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("knn[%d]=%v, want %v", i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestSnapshotLayerSignatureAblation pins the ablation knob and that the
// persisted signatures are actually consulted when enabled.
func TestSnapshotLayerSignatureAblation(t *testing.T) {
	snapA := snapshotLayer(t, layerA.Data, false)
	snapB := snapshotLayer(t, layerB.Data, false)

	with := swTester()
	if _, _, err := IntersectionJoinView(bg, snapA.View(), snapB.View(), with, JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if with.Stats.SigChecks == 0 {
		t.Fatal("persisted signatures were never consulted in a snapshot join")
	}

	without := swTester()
	if _, _, err := IntersectionJoinView(bg, snapA.View(), snapB.View(), without, JoinOptions{NoSignatures: true}); err != nil {
		t.Fatal(err)
	}
	if without.Stats.SigChecks != 0 {
		t.Fatalf("NoSignatures still consulted signatures: %+v", without.Stats)
	}

	// The partition invariant holds with the signature bucket.
	s := with.Stats
	sum := s.MBRRejects + s.IntervalTrueHits + s.IntervalRejects + s.PIPHits + s.SigRejects + s.SWDirect + s.HWRejects + s.HWPassed + s.HWFallbacks
	if s.Tests != sum {
		t.Fatalf("stats partition broken: Tests=%d sum=%d (%+v)", s.Tests, sum, s)
	}
}

// TestSnapshotLayerProvenance pins the provenance and stats accessors the
// serving layers rely on.
func TestSnapshotLayerProvenance(t *testing.T) {
	snapA := snapshotLayer(t, layerA.Data, false)
	if snapA.Origin != "snapshot:"+layerA.Data.Name {
		t.Fatalf("Origin = %q", snapA.Origin)
	}
	s, ok := snapA.Snapshot()
	if !ok || s == nil {
		t.Fatal("snapshot-backed layer lost its snapshot")
	}
	if st := s.Stats(); st.Bytes <= 0 || st.Sections < 5 {
		t.Fatalf("implausible load stats: %+v", st)
	}
	if layerA.Origin != "memory" {
		t.Fatalf("in-memory layer Origin = %q", layerA.Origin)
	}
	if _, ok := layerA.Snapshot(); ok {
		t.Fatal("in-memory layer claims a snapshot")
	}
}
