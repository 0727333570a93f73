// Command benchcmp compares two sets of benchmark runs.
//
//	benchcmp A_dir B_dir
//
// Each directory holds at least three run directories written by
// `bench/run.sh <outdir>` (A_dir/<run>/<workload>.json). For every
// workload and end-to-end metric it prints both medians, each side's
// quartile spread as a share of its median, B's change against A (every
// ratio with its base), and a verdict against the bound BENCHMARK.json
// fixes for the metric:
//
//	worse       B's median is worse than A's by more than the bound
//	unresolved  A's own spread exceeds the bound, so the bound cannot be checked
//	better      B's median is better than A's by more than A's spread
//	same        otherwise
//
// It exits 1 if any row is worse. "better" here is a screen, not a claim:
// a gain is claimed by the paired rule in bench/README.md.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

type benchmark struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string
		Unit   string
		Better string
		Bound  float64
	} `json:"end_to_end"`
}

type runFile struct {
	Result struct {
		Correct bool
		Metrics map[string]struct{ Value float64 }
	}
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp A_dir B_dir   (run from the repository root)")
		os.Exit(2)
	}
	worse, err := compare(os.Args[1], os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	if worse {
		os.Exit(1)
	}
}

func compare(dirA, dirB string) (worse bool, err error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	var bm benchmark
	if err := json.Unmarshal(raw, &bm); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	fmt.Printf("%-14s %-12s %12s %8s %12s %8s %22s  %s\n", "workload", "metric", "A median", "A iqr", "B median", "B iqr", "B vs A", "verdict")
	for _, w := range bm.Workloads {
		a, err := load(dirA, w.Name)
		if err != nil {
			return false, err
		}
		b, err := load(dirB, w.Name)
		if err != nil {
			return false, err
		}
		for _, m := range bm.EndToEnd {
			va, vb := a[m.Name], b[m.Name]
			if len(va) < 3 || len(vb) < 3 {
				return false, fmt.Errorf("%s %s: need at least 3 runs a side, have %d and %d", w.Name, m.Name, len(va), len(vb))
			}
			ma, sa := summarize(va)
			mb, sb := summarize(vb)
			// change is B's relative move in the worsening direction.
			change := (mb - ma) / ma
			if m.Better == "higher" {
				change = -change
			}
			verdict := "same"
			switch {
			case change > m.Bound:
				verdict, worse = "worse", true
			case sa > m.Bound:
				verdict = "unresolved"
			case -change > sa:
				verdict = "better"
			}
			fmt.Printf("%-14s %-12s %12.5g %7.1f%% %12.5g %7.1f%% %+7.1f%% of %-10.5g  %s\n",
				w.Name, m.Name, ma, 100*sa, mb, 100*sb, 100*(mb-ma)/ma, ma, verdict)
		}
	}
	return worse, nil
}

// load gathers a workload's end-to-end values across a set's runs.
func load(dir, workload string) (map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*", workload+".json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r runFile
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Result.Correct {
			return nil, fmt.Errorf("%s: run failed its checks", f)
		}
		for name, m := range r.Result.Metrics {
			out[name] = append(out[name], m.Value)
		}
	}
	return out, nil
}

// summarize returns the median and the interquartile range as a share of
// it, with the quartiles Python's statistics.quantiles(xs, n=4) gives.
func summarize(xs []float64) (median, spread float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	median = q(2)
	return median, (q(3) - q(1)) / median
}
