package query

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/overlay"
)

func TestOverlayAreaJoin(t *testing.T) {
	sw := core.NewTester(core.Config{DisableHardware: true})
	hw := core.NewTester(core.Config{Resolution: 8})
	wantPairs, _, err := IntersectionJoinView(bg, layerA.View(), layerB.View(), sw, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for _, tester := range []*core.Tester{sw, hw} {
		got, cost, err := OverlayAreaJoin(bg, layerA, layerB, tester)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(wantPairs) {
			t.Fatalf("overlay join: %d pairs, intersection join %d", len(got), len(wantPairs))
		}
		var total float64
		for _, op := range got {
			pa := layerA.Data.Objects[op.A]
			pb := layerB.Data.Objects[op.B]
			if op.Area < -1e-9 {
				t.Fatalf("negative overlay area %v", op.Area)
			}
			if op.Area > math.Min(pa.Area(), pb.Area())+1e-6 {
				t.Fatalf("overlay area %v exceeds inputs %v/%v", op.Area, pa.Area(), pb.Area())
			}
			total += op.Area
		}
		if total <= 0 {
			t.Fatal("no overlay area at all in overlapping layers")
		}
		if cost.Results != len(got) {
			t.Errorf("cost.Results = %d", cost.Results)
		}
		// Spot-check a handful against the direct computation.
		for _, op := range got[:min(5, len(got))] {
			want := overlay.IntersectionArea(layerA.Data.Objects[op.A], layerB.Data.Objects[op.B])
			if math.Abs(op.Area-want) > 1e-9 {
				t.Fatalf("pair (%d,%d): area %v, direct %v", op.A, op.B, op.Area, want)
			}
		}
	}
}
