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
	threshold := flag.Int("threshold", core.DefaultSWThreshold, "software threshold: pairs of at most this many vertices skip the hardware filter (>= 0)")
	swOnly := flag.Bool("sw", false, "software only, skip the hardware run")
	timeout := flag.Duration("timeout", 0, "time limit of each run, the software one and the hardware one (0 = none); an expired run reports its partial results")
	budget := flag.Int("budget", 0, "max MBR candidates per run (0 = unlimited)")
	flag.Parse()
	if *res < 1 || *res > raster.MaxResolution {
		fmt.Fprintf(os.Stderr, "spatialquery: -res %d outside 1..%d\n", *res, raster.MaxResolution)
		flag.Usage()
		os.Exit(2)
	}
	// The flag is the paper's vertex threshold; a negative one would mean
	// what 0 means (every pair on the card), so it is a usage error.
	if *threshold < 0 {
		fmt.Fprintf(os.Stderr, "spatialquery: -threshold %d is negative\n", *threshold)
		flag.Usage()
		os.Exit(2)
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

	var run runner
	switch *op {
	case "join":
		run = func(ctx context.Context, t *core.Tester) (int, query.Stats, error) {
			pairs, st, err := query.IntersectionJoinView(ctx, a.View(), b.View(), t,
				query.JoinOptions{MaxCandidates: *budget})
			return len(pairs), st, err
		}
	case "within":
		if *d <= 0 {
			*d = data.BaseD(a.Data, b.Data)
			fmt.Printf("using D = BaseD = %.4f\n", *d)
		}
		run = func(ctx context.Context, t *core.Tester) (int, query.Stats, error) {
			pairs, st, err := query.WithinDistanceJoinView(ctx, a.View(), b.View(), *d, t,
				query.JoinOptions{Use0Object: true, Use1Object: true, MaxCandidates: *budget})
			return len(pairs), st, err
		}
	case "select":
		if *queryIdx < 0 || *queryIdx >= len(b.Data.Objects) {
			fail(fmt.Errorf("query index %d out of range (0..%d)", *queryIdx, len(b.Data.Objects)-1))
		}
		q := b.Data.Objects[*queryIdx]
		run = func(ctx context.Context, t *core.Tester) (int, query.Stats, error) {
			ids, st, err := query.IntersectionSelectView(ctx, a.View(), q, t,
				query.JoinOptions{InteriorLevel: 4, MaxCandidates: *budget})
			return len(ids), st, err
		}
	default:
		fail(fmt.Errorf("unknown -op %q", *op))
	}
	compare(run, *timeout, core.Config{Resolution: *res, SWThreshold: *threshold}, *swOnly)
}

// runner runs the query once on a tester.
type runner func(context.Context, *core.Tester) (int, query.Stats, error)

// compare runs the query in software and then, unless swOnly, with the
// hardware filter configured by hw, and checks that the two agree. Each
// run reports its own numbers and has a deadline of its own.
func compare(run runner, timeout time.Duration, hw core.Config, swOnly bool) {
	swResults, swErr := timed(run, timeout, core.NewTester(core.Config{DisableHardware: true}), "software")
	if interrupted(swErr) || swOnly {
		return
	}
	name := fmt.Sprintf("hardware %dx%d threshold %d", hw.Resolution, hw.Resolution, hw.SWThreshold)
	hwResults, hwErr := timed(run, timeout, core.NewTester(hw), name)
	if interrupted(hwErr) {
		return
	}
	if swResults != hwResults {
		fail(fmt.Errorf("result mismatch: sw %d vs hw %d", swResults, hwResults))
	}
	fmt.Println("results identical")
}

// timed runs the query once under a timeout that starts with the run (0 =
// none) and reports it under name.
func timed(run runner, timeout time.Duration, t *core.Tester, name string) (int, error) {
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()
	results, st, err := run(ctx, t)
	report(name, results, st)
	return results, err
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

func report(name string, results int, st query.Stats) {
	ms := func(v float64) time.Duration {
		return time.Duration(v * float64(time.Millisecond)).Round(time.Microsecond)
	}
	fmt.Printf("%s:\n  results %d\n  mbr %v, filter %v, geometry %v, total %v\n",
		name, results, ms(st.MBRFilterMS), ms(st.IntermediateMS), ms(st.GeometryMS),
		st.Total().Round(time.Microsecond))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "spatialquery:", err)
	os.Exit(1)
}
