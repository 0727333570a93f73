package query

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/geom"
)

func TestWithinDistanceSelectMatchesOracle(t *testing.T) {
	queries := data.MustLoad("STATES50", 1)
	baseD := data.BaseD(layerA.Data, queries)
	sw := core.NewTester(core.Config{DisableHardware: true})
	hw := core.NewTester(core.Config{Resolution: 8})
	for qi := 0; qi < 6; qi++ {
		q := queries.Objects[qi]
		for _, mult := range []float64{0.2, 1.0} {
			d := baseD * mult
			var want []int
			for i, p := range layerA.Data.Objects {
				if dist.MinDistBrute(q, p) <= d {
					want = append(want, i)
				}
			}
			opts := []JoinOptions{{}, {Use0Object: true, Use1Object: true}}
			for _, tester := range []*core.Tester{sw, hw} {
				for _, opt := range opts {
					got, cost, err := WithinDistanceSelect(bg, layerA, q, d, tester, opt)
					if err != nil {
						t.Fatal(err)
					}
					g := sortedIDs(got)
					if len(g) != len(want) {
						t.Fatalf("query %d d=%.2f opt=%+v: %d results, oracle %d",
							qi, d, opt, len(g), len(want))
					}
					for i := range want {
						if g[i] != want[i] {
							t.Fatalf("query %d: result %d = %d, want %d", qi, i, g[i], want[i])
						}
					}
					if cost.Results != len(want) {
						t.Errorf("cost.Results = %d", cost.Results)
					}
				}
			}
		}
	}
}

func TestWithinDistanceSelectZeroDistanceIsIntersection(t *testing.T) {
	// d=0 must agree with intersection selection.
	q := geom.MustPolygon(
		geom.Pt(50, 50), geom.Pt(150, 50), geom.Pt(150, 150), geom.Pt(50, 150),
	)
	sw := core.NewTester(core.Config{DisableHardware: true})
	wantIDs, _, err := IntersectionSelect(bg, layerA, q, sw, SelectionOptions{InteriorLevel: -1})
	if err != nil {
		t.Fatal(err)
	}
	gotIDs, _, err := WithinDistanceSelect(bg, layerA, q, 0, sw, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, w := sortedIDs(gotIDs), sortedIDs(wantIDs)
	if len(g) != len(w) {
		t.Fatalf("d=0 select: %d results, intersection %d", len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("d=0 mismatch at %d", i)
		}
	}
}
