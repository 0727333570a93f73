// Package experiments reproduces every table and figure of the paper's
// evaluation (§4). Each experiment function runs the corresponding
// workload through the query pipeline and returns a structured result that
// both the spatialbench command (which prints paper-style series) and the
// repository's benchmarks consume.
//
// Absolute times differ from the paper — the "graphics card" here is a
// software rasterizer and the datasets are seeded synthetics calibrated to
// Table 2 — but the comparisons the paper draws (software vs hardware cost
// across window resolutions, thresholds, and query distances) are
// reproduced shape-for-shape. See EXPERIMENTS.md for the side-by-side
// reading.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/query"
)

// Resolutions is the window-resolution sweep used by Figures 11, 12 and 15.
var Resolutions = []int{1, 2, 4, 8, 16, 32}

// TilingLevels is the interior-filter sweep of Figure 10.
var TilingLevels = []int{0, 1, 2, 3, 4}

// DistanceMultipliers is the D sweep (×BaseD) of Figures 14 and 16.
var DistanceMultipliers = []float64{0.1, 0.5, 1.0, 2.0, 4.0}

// Thresholds is the sw_threshold sweep of Figure 13.
var Thresholds = []int{0, 100, 200, 300, 500, 700, 900, 1200, 1600, 2000}

// DefaultScale shrinks the paper's object counts to keep a full run in CPU
// minutes; per-object complexity (the refinement cost driver) is kept.
const DefaultScale = 0.05

// Runner caches generated layers and carries the output sink.
type Runner struct {
	Scale  float64
	W      io.Writer
	layers map[string]*query.Layer

	// Ctx bounds every query the runner issues; nil means Background.
	// Cancelling it (or letting a deadline expire) ends the current
	// experiment early: the figure functions return the points completed
	// so far and record the interruption in Err.
	Ctx context.Context
	// Err holds the first query interruption (a *query.PartialError or
	// *query.BudgetError); nil after a full run.
	Err error
}

// NewRunner builds a Runner at the given dataset scale writing reports to w.
func NewRunner(scale float64, w io.Writer) *Runner {
	if scale <= 0 {
		scale = DefaultScale
	}
	if w == nil {
		w = io.Discard
	}
	return &Runner{Scale: scale, W: w, layers: map[string]*query.Layer{}}
}

// Layer returns the named evaluation layer, generating and indexing it on
// first use.
func (r *Runner) Layer(name string) *query.Layer {
	if l, ok := r.layers[name]; ok {
		return l
	}
	l := query.NewLayer(data.MustLoad(name, r.Scale))
	r.layers[name] = l
	return l
}

func (r *Runner) printf(format string, args ...any) {
	fmt.Fprintf(r.W, format, args...)
}

func (r *Runner) ctx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// check records a query interruption and reports whether the experiment
// should stop. The first error is kept in r.Err; partial figure data
// gathered before the interruption remains valid.
func (r *Runner) check(err error) bool {
	if err == nil {
		return false
	}
	if r.Err == nil {
		r.Err = err
	}
	r.printf("  interrupted: %v\n", err)
	return true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---------------------------------------------------------------------------
// Table 2: dataset statistics.

// Table2Row is one dataset's statistics line.
type Table2Row struct {
	Name  string
	Stats data.Stats
}

// Table2 regenerates the five evaluation datasets and reports their
// statistics next to the paper's calibration targets.
func (r *Runner) Table2() []Table2Row {
	r.printf("Table 2: dataset statistics (scale %.3g; vertex stats are scale-free)\n", r.Scale)
	r.printf("%-10s %8s %8s %8s %8s\n", "Dataset", "N", "MinV", "MaxV", "AvgV")
	rows := make([]Table2Row, 0, len(data.Names))
	for _, name := range data.Names {
		s := r.Layer(name).Data.Stats()
		rows = append(rows, Table2Row{Name: name, Stats: s})
		r.printf("%-10s %8d %8d %8d %8.0f\n", name, s.N, s.MinVerts, s.MaxVerts, s.AvgVerts)
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figure 10: selection cost breakdown vs interior-filter tiling level.

// Fig10Point is the per-query average cost at one tiling level.
type Fig10Point struct {
	Level int
	Cost  query.Cost
}

// Fig10Result is one dataset's tiling-level series.
type Fig10Result struct {
	Dataset string
	Points  []Fig10Point
}

// Fig10 runs intersection selections (STATES50 query set) with the
// software test over WATER and PRISM, sweeping the interior filter's
// tiling level, and reports the per-stage cost breakdown.
func (r *Runner) Fig10() []Fig10Result {
	queries := r.Layer("STATES50").Data
	var out []Fig10Result
	for _, ds := range []string{"WATER", "PRISM"} {
		layer := r.Layer(ds)
		res := Fig10Result{Dataset: ds}
		r.printf("\nFigure 10 (%s): selection cost breakdown, software test\n", ds)
		r.printf("%5s %10s %10s %10s %10s %8s %8s\n",
			"level", "mbr(ms)", "filter(ms)", "geom(ms)", "total(ms)", "hits", "results")
		for _, level := range TilingLevels {
			tester := core.NewTester(core.Config{DisableHardware: true})
			var sum query.Cost
			for _, q := range queries.Objects {
				_, c, err := query.IntersectionSelect(r.ctx(), layer, q, tester, query.SelectionOptions{InteriorLevel: level})
				if r.check(err) {
					return out
				}
				sum.Add(c)
			}
			avg := sum.Scale(len(queries.Objects))
			res.Points = append(res.Points, Fig10Point{Level: level, Cost: avg})
			r.printf("%5d %10.3f %10.3f %10.3f %10.3f %8d %8d\n",
				level, ms(avg.MBRFilter), ms(avg.IntermediateFilter), ms(avg.GeometryComparison),
				ms(avg.Total()), avg.FilterHits, avg.Results)
		}
		out = append(out, res)
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 11: selection geometry-comparison cost, software vs hardware.

// ResolutionPoint is a software-vs-hardware cost pair at one window
// resolution.
type ResolutionPoint struct {
	Resolution int
	SW, HW     time.Duration
	HWStats    core.Stats
}

// SweepResult is a resolution sweep for one workload.
type SweepResult struct {
	Workload string
	SW       time.Duration // software cost (resolution-independent)
	Points   []ResolutionPoint
}

// Fig11 compares geometry-comparison cost of software vs hardware-assisted
// intersection selections over WATER and PRISM across window resolutions.
// SWThreshold is 0: every pair above the PiP step goes to the hardware
// filter, as in the paper's figure.
func (r *Runner) Fig11() []SweepResult {
	queries := r.Layer("STATES50").Data
	var out []SweepResult
	for _, ds := range []string{"WATER", "PRISM"} {
		layer := r.Layer(ds)
		res := SweepResult{Workload: "selection/" + ds}

		swTester := core.NewTester(core.Config{DisableHardware: true})
		var swSum query.Cost
		for _, q := range queries.Objects {
			_, c, err := query.IntersectionSelect(r.ctx(), layer, q, swTester, query.SelectionOptions{InteriorLevel: -1})
			if r.check(err) {
				return out
			}
			swSum.Add(c)
		}
		res.SW = swSum.Scale(len(queries.Objects)).GeometryComparison

		r.printf("\nFigure 11 (%s): selection geometry comparison, avg per query\n", ds)
		r.printf("%6s %12s %12s %9s\n", "res", "sw(ms)", "hw(ms)", "hw/sw")
		for _, resn := range Resolutions {
			tester := core.NewTester(core.Config{Resolution: resn})
			var sum query.Cost
			for _, q := range queries.Objects {
				_, c, err := query.IntersectionSelect(r.ctx(), layer, q, tester, query.SelectionOptions{InteriorLevel: -1})
				if r.check(err) {
					return out
				}
				sum.Add(c)
			}
			hw := sum.Scale(len(queries.Objects)).GeometryComparison
			res.Points = append(res.Points, ResolutionPoint{
				Resolution: resn, SW: res.SW, HW: hw, HWStats: tester.Stats,
			})
			r.printf("%6d %12.3f %12.3f %9.2f\n", resn, ms(res.SW), ms(hw), ratio(hw, res.SW))
		}
		out = append(out, res)
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 12: intersection join, software vs hardware across resolutions.

// Fig12 compares geometry-comparison cost of software vs hardware-assisted
// intersection joins for LANDC⋈LANDO and WATER⋈PRISM.
func (r *Runner) Fig12() []SweepResult {
	return r.joinSweep("Figure 12", [][2]string{{"LANDC", "LANDO"}, {"WATER", "PRISM"}}, 0)
}

// joinSweep runs an intersection-join resolution sweep at the given
// software threshold.
func (r *Runner) joinSweep(title string, joins [][2]string, swThreshold int) []SweepResult {
	var out []SweepResult
	for _, j := range joins {
		a, b := r.Layer(j[0]), r.Layer(j[1])
		res := SweepResult{Workload: j[0] + "⋈" + j[1]}

		swTester := core.NewTester(core.Config{DisableHardware: true})
		_, swCost, err := query.IntersectionJoinView(r.ctx(), a.View(), b.View(), swTester, query.JoinOptions{})
		if r.check(err) {
			return out
		}
		res.SW = swCost.GeometryComparison

		r.printf("\n%s (%s): intersection join geometry comparison (sw_threshold=%d)\n",
			title, res.Workload, swThreshold)
		r.printf("%6s %12s %12s %9s\n", "res", "sw(ms)", "hw(ms)", "hw/sw")
		for _, resn := range Resolutions {
			tester := core.NewTester(core.Config{Resolution: resn, SWThreshold: swThreshold})
			_, hwCost, err := query.IntersectionJoinView(r.ctx(), a.View(), b.View(), tester, query.JoinOptions{})
			if r.check(err) {
				return out
			}
			res.Points = append(res.Points, ResolutionPoint{
				Resolution: resn, SW: res.SW, HW: hwCost.GeometryComparison, HWStats: tester.Stats,
			})
			r.printf("%6d %12.3f %12.3f %9.2f\n",
				resn, ms(res.SW), ms(hwCost.GeometryComparison), ratio(hwCost.GeometryComparison, res.SW))
		}
		out = append(out, res)
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 13: effect of the software threshold on the hardware join.

// ThresholdPoint is the hardware join cost at one sw_threshold value.
type ThresholdPoint struct {
	Threshold int
	HW        time.Duration
}

// Fig13Result is one resolution's threshold series for LANDC⋈LANDO.
type Fig13Result struct {
	Resolution int
	SW         time.Duration
	Points     []ThresholdPoint
}

// Fig13 sweeps the software threshold for the LANDC⋈LANDO hardware join at
// 8×8 and 16×16 windows.
func (r *Runner) Fig13() []Fig13Result {
	a, b := r.Layer("LANDC"), r.Layer("LANDO")
	var out []Fig13Result
	swTester := core.NewTester(core.Config{DisableHardware: true})
	_, swCost, err := query.IntersectionJoinView(r.ctx(), a.View(), b.View(), swTester, query.JoinOptions{})
	if r.check(err) {
		return out
	}
	for _, resn := range []int{8, 16} {
		res := Fig13Result{Resolution: resn, SW: swCost.GeometryComparison}
		r.printf("\nFigure 13 (LANDC⋈LANDO, %dx%d): sw_threshold sweep, sw=%.3f ms\n",
			resn, resn, ms(res.SW))
		r.printf("%10s %12s %9s\n", "threshold", "hw(ms)", "hw/sw")
		for _, th := range Thresholds {
			tester := core.NewTester(core.Config{Resolution: resn, SWThreshold: th})
			_, hwCost, err := query.IntersectionJoinView(r.ctx(), a.View(), b.View(), tester, query.JoinOptions{})
			if r.check(err) {
				return out
			}
			res.Points = append(res.Points, ThresholdPoint{Threshold: th, HW: hwCost.GeometryComparison})
			r.printf("%10d %12.3f %9.2f\n",
				th, ms(hwCost.GeometryComparison), ratio(hwCost.GeometryComparison, res.SW))
		}
		out = append(out, res)
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 14: within-distance join software cost breakdown vs D.

// Fig14Point is the software pipeline cost at one distance multiplier.
type Fig14Point struct {
	Multiplier float64
	D          float64
	Cost       query.Cost
}

// Fig14Result is one join's distance series.
type Fig14Result struct {
	Workload string
	BaseD    float64
	Points   []Fig14Point
}

// Fig14 runs software within-distance joins with the 0/1-object filters
// for LANDC⋈LANDO and WATER⋈PRISM across the D sweep.
func (r *Runner) Fig14() []Fig14Result {
	var out []Fig14Result
	for _, j := range [][2]string{{"LANDC", "LANDO"}, {"WATER", "PRISM"}} {
		a, b := r.Layer(j[0]), r.Layer(j[1])
		baseD := data.BaseD(a.Data, b.Data)
		res := Fig14Result{Workload: j[0] + "⋈" + j[1], BaseD: baseD}
		r.printf("\nFigure 14 (%s): within-distance join, software, BaseD=%.3f\n", res.Workload, baseD)
		r.printf("%8s %10s %10s %10s %10s %8s %8s\n",
			"D/BaseD", "mbr(ms)", "filter(ms)", "geom(ms)", "total(ms)", "hits", "results")
		for _, m := range DistanceMultipliers {
			d := baseD * m
			tester := core.NewTester(core.Config{DisableHardware: true})
			_, c, err := query.WithinDistanceJoinView(r.ctx(), a.View(), b.View(), d, tester,
				query.JoinOptions{Use0Object: true, Use1Object: true})
			if r.check(err) {
				return out
			}
			res.Points = append(res.Points, Fig14Point{Multiplier: m, D: d, Cost: c})
			r.printf("%8.1f %10.3f %10.3f %10.3f %10.3f %8d %8d\n",
				m, ms(c.MBRFilter), ms(c.IntermediateFilter), ms(c.GeometryComparison),
				ms(c.Total()), c.FilterHits, c.Results)
		}
		out = append(out, res)
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 15: within-distance geometry comparison, sw vs hw, resolution sweep.

// Fig15 compares software vs hardware within-distance joins at D=1×BaseD
// with sw_threshold 0 across window resolutions.
func (r *Runner) Fig15() []SweepResult {
	var out []SweepResult
	filters := query.JoinOptions{Use0Object: true, Use1Object: true}
	for _, j := range [][2]string{{"LANDC", "LANDO"}, {"WATER", "PRISM"}} {
		a, b := r.Layer(j[0]), r.Layer(j[1])
		d := data.BaseD(a.Data, b.Data)
		res := SweepResult{Workload: j[0] + "⋈dis" + j[1]}

		swTester := core.NewTester(core.Config{DisableHardware: true})
		_, swCost, err := query.WithinDistanceJoinView(r.ctx(), a.View(), b.View(), d, swTester, filters)
		if r.check(err) {
			return out
		}
		res.SW = swCost.GeometryComparison

		r.printf("\nFigure 15 (%s): within-distance geometry comparison, D=1×BaseD\n", res.Workload)
		r.printf("%6s %12s %12s %9s\n", "res", "sw(ms)", "hw(ms)", "hw/sw")
		for _, resn := range Resolutions {
			tester := core.NewTester(core.Config{Resolution: resn})
			_, hwCost, err := query.WithinDistanceJoinView(r.ctx(), a.View(), b.View(), d, tester, filters)
			if r.check(err) {
				return out
			}
			res.Points = append(res.Points, ResolutionPoint{
				Resolution: resn, SW: res.SW, HW: hwCost.GeometryComparison, HWStats: tester.Stats,
			})
			r.printf("%6d %12.3f %12.3f %9.2f\n",
				resn, ms(res.SW), ms(hwCost.GeometryComparison), ratio(hwCost.GeometryComparison, res.SW))
		}
		out = append(out, res)
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 16: hardware vs software within-distance cost as a function of D.

// Fig16Point compares software and hardware pipelines at one distance.
type Fig16Point struct {
	Multiplier float64
	SW, HW     time.Duration
	HWStats    core.Stats
}

// Fig16Result is one join's distance comparison series.
type Fig16Result struct {
	Workload string
	BaseD    float64
	Points   []Fig16Point
}

// Fig16 compares software vs hardware within-distance joins across the D
// sweep at an 8×8 window with sw_threshold 500, as in the paper.
func (r *Runner) Fig16() []Fig16Result {
	var out []Fig16Result
	filters := query.JoinOptions{Use0Object: true, Use1Object: true}
	for _, j := range [][2]string{{"LANDC", "LANDO"}, {"WATER", "PRISM"}} {
		a, b := r.Layer(j[0]), r.Layer(j[1])
		baseD := data.BaseD(a.Data, b.Data)
		res := Fig16Result{Workload: j[0] + "⋈dis" + j[1], BaseD: baseD}
		r.printf("\nFigure 16 (%s): within-distance join vs D, 8×8, threshold 500\n", res.Workload)
		r.printf("%8s %12s %12s %9s\n", "D/BaseD", "sw(ms)", "hw(ms)", "hw/sw")
		for _, m := range DistanceMultipliers {
			d := baseD * m
			swTester := core.NewTester(core.Config{DisableHardware: true})
			_, swCost, err := query.WithinDistanceJoinView(r.ctx(), a.View(), b.View(), d, swTester, filters)
			if r.check(err) {
				return out
			}
			hwTester := core.NewTester(core.Config{Resolution: 8, SWThreshold: 500})
			_, hwCost, err := query.WithinDistanceJoinView(r.ctx(), a.View(), b.View(), d, hwTester, filters)
			if r.check(err) {
				return out
			}
			res.Points = append(res.Points, Fig16Point{
				Multiplier: m,
				SW:         swCost.GeometryComparison,
				HW:         hwCost.GeometryComparison,
				HWStats:    hwTester.Stats,
			})
			r.printf("%8.1f %12.3f %12.3f %9.2f\n",
				m, ms(swCost.GeometryComparison), ms(hwCost.GeometryComparison),
				ratio(hwCost.GeometryComparison, swCost.GeometryComparison))
		}
		out = append(out, res)
	}
	return out
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Queries returns the STATES50 query polygons, for callers composing their
// own selection experiments.
func (r *Runner) Queries() []*geom.Polygon {
	return r.Layer("STATES50").Data.Objects
}
