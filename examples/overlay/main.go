// Overlay: a GIS map-overlay scenario. Two synthetic land-coverage layers
// are generated, indexed, and joined by region intersection, comparing the
// software-only pipeline against the hardware-assisted one and printing the
// paper-style per-stage cost breakdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/query"
)

func main() {
	scale := flag.Float64("scale", 0.02, "dataset scale in (0,1]")
	res := flag.Int("res", 16, "hardware window resolution")
	flag.Parse()

	fmt.Printf("generating layers at scale %g...\n", *scale)
	landc := query.NewLayer(data.MustLoad("LANDC", *scale))
	lando := query.NewLayer(data.MustLoad("LANDO", *scale))
	fmt.Printf("LANDC: %d objects, LANDO: %d objects\n",
		len(landc.Data.Objects), len(lando.Data.Objects))

	ctx := context.Background()
	run := func(name string, tester *core.Tester) []query.Pair {
		pairs, cost, err := query.IntersectionJoinView(ctx, landc.View(), lando.View(), tester, query.JoinOptions{})
		if err != nil {
			panic(err)
		}
		fmt.Printf("\n%s pipeline:\n", name)
		fmt.Printf("  MBR filter:          %10v  (%d candidate pairs)\n",
			cost.MBRFilter.Round(time.Microsecond), cost.Candidates)
		fmt.Printf("  geometry comparison: %10v  (%d pairs compared)\n",
			cost.GeometryComparison.Round(time.Microsecond), cost.Compared)
		fmt.Printf("  results:             %d intersecting pairs\n", cost.Results)
		return pairs
	}

	swPairs := run("software", core.NewTester(core.Config{DisableHardware: true}))
	hw := core.NewTester(core.Config{Resolution: *res, SWThreshold: core.DefaultSWThreshold})
	hwPairs := run(fmt.Sprintf("hardware (%dx%d)", *res, *res), hw)

	if len(swPairs) != len(hwPairs) {
		panic("pipelines disagree on the result set")
	}
	s := hw.Stats
	fmt.Printf("\nhardware refinement: %d PiP hits, %d below threshold, %d hw rejects, %d passed\n",
		s.PIPHits, s.SWDirect, s.HWRejects, s.HWPassed)
	fmt.Println("result sets identical: the hardware filter is exact.")

	// The actual overlay: exact intersection area per intersecting pair.
	overlayPairs, cost, err := query.OverlayAreaJoin(ctx, landc, lando,
		core.NewTester(core.Config{Resolution: *res, SWThreshold: core.DefaultSWThreshold}))
	if err != nil {
		panic(err)
	}
	var total float64
	for _, op := range overlayPairs {
		total += op.Area
	}
	fmt.Printf("\nmap overlay: %d overlapping parcel pairs, %.2f units² of shared area (%v total)\n",
		len(overlayPairs), total, cost.Total().Round(time.Millisecond))
}
