package experiments

import (
	"fmt"
	"io"
	"math"
)

// Group is one plotted point — every repeat of one (experiment, workload,
// tester, param) — reduced to the mean stage times, the sample standard
// deviation of the geometry-comparison time the paper's figures plot, and
// that time's ratio to the point's software baseline.
type Group struct {
	Experiment, Workload, Tester, Param string

	N                 int
	MBRMS, FilterMS   float64 // means
	GeomMS, GeomStdMS float64 // mean and sample stddev (0 when N < 2)
	// VsSW is GeomMS over the GeomMS of the "sw" group of the same
	// experiment and workload at the same Param, or failing that at no
	// Param (a baseline the sweep shares); 0 when there is none.
	VsSW float64

	// Counters of the first repeat; the workloads are deterministic.
	Candidates, FilterHits, FilterRejects, Results int
	Tests, HWRejects                               int64
}

// Summarize groups records by point, in first-seen order.
func Summarize(records []Record) []Group {
	type key struct{ exp, workload, tester, param string }
	index := map[key]int{}
	var groups []Group
	var sumSq []float64 // per group: Σ geom², for the stddev
	for _, rec := range records {
		k := key{rec.Experiment, rec.Workload, rec.Tester, rec.Param}
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, Group{
				Experiment: rec.Experiment, Workload: rec.Workload, Tester: rec.Tester, Param: rec.Param,
				Candidates: rec.Candidates, FilterHits: rec.FilterHits, FilterRejects: rec.FilterRejects,
				Results: rec.Results, Tests: rec.Tests, HWRejects: rec.HWRejects,
			})
			sumSq = append(sumSq, 0)
		}
		g := &groups[i]
		g.N++
		g.MBRMS += rec.MBRMS
		g.FilterMS += rec.FilterMS
		g.GeomMS += rec.GeomMS
		sumSq[i] += rec.GeomMS * rec.GeomMS
	}
	for i := range groups {
		g, n := &groups[i], float64(groups[i].N)
		g.MBRMS, g.FilterMS, g.GeomMS = g.MBRMS/n, g.FilterMS/n, g.GeomMS/n
		if g.N > 1 {
			// max: rounding can take the difference a hair below zero.
			g.GeomStdMS = math.Sqrt(max(0, sumSq[i]-n*g.GeomMS*g.GeomMS) / (n - 1))
		}
	}
	for i := range groups {
		g := &groups[i]
		base, ok := index[key{g.Experiment, g.Workload, "sw", g.Param}]
		if !ok {
			base, ok = index[key{g.Experiment, g.Workload, "sw", ""}]
		}
		if ok && groups[base].GeomMS > 0 {
			g.VsSW = g.GeomMS / groups[base].GeomMS
		}
	}
	return groups
}

// WriteSummary prints the environment line and one row per group.
func WriteSummary(w io.Writer, env Env, groups []Group) {
	fmt.Fprintf(w, "env: %s nproc=%d GOMAXPROCS=%d GOGC=%d scale=%g repeats=%d (one warm-up pass per experiment, discarded)\n",
		env.GoVersion, env.NumCPU, env.GOMAXPROCS, env.GCPercent, env.Scale, env.Repeats)
	fmt.Fprintf(w, "%-7s %-18s %-8s %-22s %-4s %9s %10s %10s %8s %6s %8s %6s %6s %8s %8s %8s\n",
		"exp", "workload", "tester", "param", "n", "mbr(ms)", "filter(ms)", "geom(ms)", "±sd", "vs sw",
		"cand", "f.hit", "f.rej", "results", "tests", "hw_rej")
	for _, g := range groups {
		vs := "-"
		if g.VsSW > 0 {
			vs = fmt.Sprintf("%.2f", g.VsSW)
		}
		fmt.Fprintf(w, "%-7s %-18s %-8s %-22s n=%-2d %9.3f %10.3f %10.3f %8.3f %6s %8d %6d %6d %8d %8d %8d\n",
			g.Experiment, g.Workload, g.Tester, g.Param, g.N, g.MBRMS, g.FilterMS, g.GeomMS, g.GeomStdMS, vs,
			g.Candidates, g.FilterHits, g.FilterRejects, g.Results, g.Tests, g.HWRejects)
	}
}
