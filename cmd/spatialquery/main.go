// Command spatialquery runs a single spatial query against datasets saved
// by spatialgen, comparing software and hardware-assisted refinement.
//
// Usage:
//
//	spatialquery -op join    -a landc.json -b lando.json
//	spatialquery -op within  -a water.json -b prism.json -d 1.5
//	spatialquery -op select  -a water.json -b states50.json -query 7
//
// For -op select, -b supplies the query layer and -query picks the query
// polygon's index within it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/query"
	"repro/internal/raster"
)

func main() {
	op := flag.String("op", "join", "operation: join, within, select")
	aPath := flag.String("a", "", "first dataset JSON (required)")
	bPath := flag.String("b", "", "second / query dataset JSON (required)")
	d := flag.Float64("d", 0, "distance for -op within")
	queryIdx := flag.Int("query", 0, "query polygon index for -op select")
	res := flag.Int("res", core.DefaultResolution, fmt.Sprintf("hardware window resolution, 1..%d", raster.MaxResolution))
	threshold := flag.Int("threshold", core.DefaultSWThreshold, "software threshold")
	swOnly := flag.Bool("sw", false, "software only, skip the hardware run")
	timeout := flag.Duration("timeout", 0, "per-run time limit (0 = none); an expired run reports its partial results")
	budget := flag.Int("budget", 0, "max MBR candidates per run (0 = unlimited)")
	flag.Parse()
	if *res < 1 || *res > raster.MaxResolution {
		fmt.Fprintf(os.Stderr, "spatialquery: -res %d outside 1..%d\n", *res, raster.MaxResolution)
		flag.Usage()
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *aPath == "" || *bPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	a, err := loadLayer(*aPath)
	if err != nil {
		fail(err)
	}
	b, err := loadLayer(*bPath)
	if err != nil {
		fail(err)
	}

	type runner func(*core.Tester) (int, query.Cost, error)
	var run runner
	switch *op {
	case "join":
		run = func(t *core.Tester) (int, query.Cost, error) {
			pairs, cost, err := query.IntersectionJoinView(ctx, a.View(), b.View(), t,
				query.JoinOptions{MaxCandidates: *budget})
			return len(pairs), cost, err
		}
	case "within":
		if *d <= 0 {
			*d = data.BaseD(a.Data, b.Data)
			fmt.Printf("using D = BaseD = %.4f\n", *d)
		}
		run = func(t *core.Tester) (int, query.Cost, error) {
			pairs, cost, err := query.WithinDistanceJoinView(ctx, a.View(), b.View(), *d, t,
				query.JoinOptions{Use0Object: true, Use1Object: true, MaxCandidates: *budget})
			return len(pairs), cost, err
		}
	case "select":
		if *queryIdx < 0 || *queryIdx >= len(b.Data.Objects) {
			fail(fmt.Errorf("query index %d out of range (0..%d)", *queryIdx, len(b.Data.Objects)-1))
		}
		q := b.Data.Objects[*queryIdx]
		run = func(t *core.Tester) (int, query.Cost, error) {
			ids, cost, err := query.IntersectionSelect(ctx, a, q, t,
				query.SelectionOptions{InteriorLevel: 4, MaxCandidates: *budget})
			return len(ids), cost, err
		}
	default:
		fail(fmt.Errorf("unknown -op %q", *op))
	}

	swResults, swCost, swErr := run(core.NewTester(core.Config{DisableHardware: true}))
	report("software", swResults, swCost)
	if interrupted(swErr) || *swOnly {
		return
	}
	hwResults, hwCost, hwErr := run(core.NewTester(core.Config{Resolution: *res, SWThreshold: *threshold}))
	report(fmt.Sprintf("hardware %dx%d threshold %d", *res, *res, *threshold), hwResults, hwCost)
	if interrupted(hwErr) {
		return
	}
	if swResults != hwResults {
		fail(fmt.Errorf("result mismatch: sw %d vs hw %d", swResults, hwResults))
	}
	fmt.Println("results identical")
}

// interrupted distinguishes the two typed query errors: a partial run has
// already reported its (incomplete) numbers, so the comparison against the
// other path is skipped; a tripped budget is a hard failure.
func interrupted(err error) bool {
	if err == nil {
		return false
	}
	var pe *query.PartialError
	if errors.As(err, &pe) {
		fmt.Printf("  partial: %v\n", pe)
		return true
	}
	fail(err)
	return true
}

func loadLayer(path string) (*query.Layer, error) {
	var (
		d   *data.Dataset
		err error
	)
	if strings.HasSuffix(path, ".wkt") {
		d, err = data.LoadWKTFile(path)
	} else {
		d, err = data.LoadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return query.NewLayer(d), nil
}

func report(name string, results int, cost query.Cost) {
	fmt.Printf("%s:\n  results %d\n  mbr %v, filter %v, geometry %v, total %v\n",
		name, results,
		cost.MBRFilter.Round(time.Microsecond),
		cost.IntermediateFilter.Round(time.Microsecond),
		cost.GeometryComparison.Round(time.Microsecond),
		cost.Total().Round(time.Microsecond))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "spatialquery:", err)
	os.Exit(1)
}
