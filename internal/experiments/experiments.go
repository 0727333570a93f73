// Package experiments reproduces the tables and figures of the paper's
// evaluation (§4): Table 2, Figures 10–16, and the Table 1 pre-processing
// comparison the paper frames but does not measure. Each experiment is one
// entry of Table: a function that runs its workload through the query
// layer and emits flat Records, one per plotted point. Runner.Run executes
// an experiment once discarded — so no timed pass builds an interval
// column, an edge index or a hull — and then the requested number of
// times; Summarize groups the repeats into mean and stddev per point.
//
// Absolute times differ from the paper — the "graphics card" here is a
// software rasterizer and the datasets are seeded synthetics calibrated to
// Table 2 — so what is compared is structure: software vs hardware cost
// across window resolutions, thresholds and query distances. See
// EXPERIMENTS.md for the side-by-side reading.
//
// The system benchmark (wire-level load, fleet, ingest, per-layer trace)
// is bench/, not this package.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/filter"
	"repro/internal/query"
	"repro/internal/rtree"
)

// The swept grids, as the paper's figures plot them.
var (
	// resolutions is the window-resolution sweep of Figures 11, 12 and 15.
	resolutions = []int{1, 2, 4, 8, 16, 32}
	// tilingLevels is the interior-filter sweep of Figure 10.
	tilingLevels = []int{0, 1, 2, 3, 4}
	// distanceMultipliers is the D sweep (×BaseD) of Figures 14 and 16.
	distanceMultipliers = []float64{0.1, 0.5, 1.0, 2.0, 4.0}
	// thresholds is the sw_threshold sweep of Figure 13.
	thresholds = []int{0, 100, 200, 300, 500, 700, 900, 1200, 1600, 2000}
	// evalJoins are the two joins every join figure runs.
	evalJoins = [][2]string{{"LANDC", "LANDO"}, {"WATER", "PRISM"}}
)

// DefaultScale shrinks the paper's object counts to keep a full run near a
// minute; per-object complexity (the refinement cost driver) is kept.
const DefaultScale = 0.05

// The environment every run is pinned to, as bench/ pins its own: the
// figure joins run inline on one goroutine, so the second processor only
// keeps the collector off the timed one.
const (
	maxProcs  = 2
	gcPercent = 100
)

// Record is one measured point of one repeat: which experiment and point
// it belongs to, the three stage times the paper's cost bars plot, and the
// counters that say what the stages did.
type Record struct {
	Experiment string `json:"experiment"`
	Workload   string `json:"workload"`
	Tester     string `json:"tester"`          // "sw" is the software baseline ratios are taken against
	Param      string `json:"param,omitempty"` // swept x-value, e.g. "res=8", "level=3"
	Repeat     int    `json:"repeat"`          // 1-based; the warm-up pass is not recorded

	MBRMS    float64 `json:"mbr_ms"`
	FilterMS float64 `json:"filter_ms"`
	GeomMS   float64 `json:"geom_ms"`

	Candidates    int   `json:"candidates,omitempty"`
	FilterHits    int   `json:"filter_hits,omitempty"`
	FilterRejects int   `json:"filter_rejects,omitempty"`
	Results       int   `json:"results,omitempty"`
	Tests         int64 `json:"tests,omitempty"`
	HWRejects     int64 `json:"hw_rejects,omitempty"`
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	Name string
	Run  func(*Runner) []Record
}

// Table lists every experiment, in the paper's order.
var Table = []Experiment{
	{"table2", table2},
	{"fig10", fig10},
	{"fig11", fig11},
	{"fig12", fig12},
	{"fig13", fig13},
	{"fig14", fig14},
	{"fig15", fig15},
	{"fig16", fig16},
	{"hull", hull},
}

// Select resolves a comma-separated list of experiment names ("all" for
// the whole Table) into Table order, or reports the unknown names.
func Select(spec string) ([]Experiment, error) {
	if strings.TrimSpace(spec) == "all" {
		return Table, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		want[strings.ToLower(strings.TrimSpace(name))] = true
	}
	var exps []Experiment
	var have []string
	for _, e := range Table {
		have = append(have, e.Name)
		if want[e.Name] {
			exps = append(exps, e)
			delete(want, e.Name)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for name := range want {
			unknown = append(unknown, strconv.Quote(name))
		}
		slices.Sort(unknown)
		return nil, fmt.Errorf("unknown experiment %s (have %s, all)", strings.Join(unknown, ", "), strings.Join(have, ", "))
	}
	return exps, nil
}

// Env is the pinned environment a run's numbers were taken in.
type Env struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GCPercent  int     `json:"gc_percent"`
	Scale      float64 `json:"scale"`
	Repeats    int     `json:"repeats"`
}

// Runner caches the generated layers — and with them every lazily built
// per-layer structure — across experiments and repeats.
type Runner struct {
	Scale  float64
	layers map[string]*query.Layer

	// Ctx bounds every query the runner issues (Background by default).
	// Cancelling it (or letting a deadline expire) ends the run: the
	// experiment in progress is dropped, the completed ones are returned.
	Ctx context.Context
	// Err holds the query interruption (a *query.PartialError or
	// *query.BudgetError) that ended the run; nil after a full run. Once
	// set, the runner measures nothing further.
	Err error
}

// NewRunner builds a Runner at the given dataset scale, which must lie in
// (0, 1] (data.PaperSpec's domain).
func NewRunner(scale float64) *Runner {
	return &Runner{Scale: scale, layers: map[string]*query.Layer{}, Ctx: context.Background()}
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

// Run executes each experiment once as a discarded warm-up and then
// repeats times, in the pinned environment, logging one progress line per
// experiment to log. It returns the records of every experiment that
// completed all its passes; an interruption (see Ctx) stops the run and
// is left in r.Err.
func (r *Runner) Run(exps []Experiment, repeats int, log io.Writer) ([]Record, Env) {
	procs := min(maxProcs, runtime.NumCPU())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer debug.SetGCPercent(debug.SetGCPercent(gcPercent))
	env := Env{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: procs,
		GCPercent: gcPercent, Scale: r.Scale, Repeats: repeats,
	}

	out := []Record{} // never nil: the -json file holds a list even when nothing completed
	for _, e := range exps {
		start := time.Now()
		e.Run(r)
		var recs []Record
		for rep := 1; rep <= repeats && r.Err == nil; rep++ {
			for _, rec := range e.Run(r) {
				rec.Repeat = rep
				recs = append(recs, rec)
			}
		}
		if r.Err != nil {
			fmt.Fprintf(log, "-- %s interrupted after %v: %v\n", e.Name, time.Since(start).Round(time.Millisecond), r.Err)
			break
		}
		out = append(out, recs...)
		fmt.Fprintf(log, "-- %s: warm-up + %d repeats in %v\n", e.Name, repeats, time.Since(start).Round(time.Millisecond))
	}
	return out, env
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// measured fills rec's stage times and counts from the stats of n calls,
// averaged per call, and its tester counters, totalled.
func measured(rec Record, s query.Stats, n int) Record {
	f := float64(n)
	rec.MBRMS, rec.FilterMS, rec.GeomMS = s.MBRFilterMS/f, s.IntermediateMS/f, s.GeometryMS/f
	rec.Candidates, rec.FilterHits, rec.FilterRejects, rec.Results = s.Candidates/n, s.FilterHits/n, s.FilterRejects/n, s.Results/n
	rec.Tests, rec.HWRejects = s.Tests, s.HWRejects
	return rec
}

// selection runs the 50 STATES50 intersection selections over rec's
// dataset and records the per-query average cost (the counters of the
// tester are totals over the query set).
func (r *Runner) selection(out []Record, rec Record, dataset string, cfg core.Config, level int) []Record {
	if r.Err != nil {
		return out
	}
	layer, queries := r.Layer(dataset), r.Layer("STATES50").Data.Objects
	tester := core.NewTester(cfg)
	var sum query.Stats
	for _, q := range queries {
		_, st, err := query.IntersectionSelectView(r.Ctx, layer.View(), q, tester, query.JoinOptions{InteriorLevel: level})
		if err != nil {
			r.Err = err
			return out
		}
		sum.Merge(st)
	}
	return append(out, measured(rec, sum, len(queries)))
}

// join runs one join of the pair j — the intersection join when d < 0,
// the within-distance join at d otherwise — and records its cost. Like
// selection, it measures nothing once r.Err is set and stores an
// interruption there, so the figure functions need no error plumbing.
func (r *Runner) join(out []Record, rec Record, j [2]string, d float64, cfg core.Config, opt query.JoinOptions) []Record {
	if r.Err != nil {
		return out
	}
	a, b := r.Layer(j[0]).View(), r.Layer(j[1]).View()
	tester := core.NewTester(cfg)
	var st query.Stats
	var err error
	if d < 0 {
		_, st, err = query.IntersectionJoinView(r.Ctx, a, b, tester, opt)
	} else {
		_, st, err = query.WithinDistanceJoinView(r.Ctx, a, b, d, tester, opt)
	}
	if err != nil {
		r.Err = err
		return out
	}
	return append(out, measured(rec, st, 1))
}

var (
	software   = core.Config{DisableHardware: true}
	distFilter = query.JoinOptions{Use0Object: true, Use1Object: true}
)

func hardware(res, swThreshold int) core.Config {
	return core.Config{Resolution: res, SWThreshold: swThreshold}
}

func (r *Runner) baseD(j [2]string) float64 {
	return data.BaseD(r.Layer(j[0]).Data, r.Layer(j[1]).Data)
}

// table2 regenerates the five evaluation datasets; Table 2 has no timings,
// so the object count rides in Results and the vertex statistics in Param.
func table2(r *Runner) []Record {
	var out []Record
	for _, name := range data.Names {
		s := r.Layer(name).Data.Stats()
		out = append(out, Record{
			Experiment: "table2", Workload: name, Tester: "-", Results: s.N,
			Param: fmt.Sprintf("verts=%d/%.0f/%d", s.MinVerts, s.AvgVerts, s.MaxVerts),
		})
	}
	return out
}

// fig10: selection cost breakdown with the software test over WATER and
// PRISM, sweeping the interior filter's tiling level.
func fig10(r *Runner) []Record {
	var out []Record
	for _, ds := range []string{"WATER", "PRISM"} {
		for _, level := range tilingLevels {
			rec := Record{Experiment: "fig10", Workload: "selection/" + ds, Tester: "sw", Param: fmt.Sprintf("level=%d", level)}
			out = r.selection(out, rec, ds, software, level)
		}
	}
	return out
}

// fig11: selection geometry-comparison cost, software vs hardware across
// window resolutions. sw_threshold is 0: every pair above the PiP step
// goes to the hardware filter, as in the paper's figure.
func fig11(r *Runner) []Record {
	var out []Record
	for _, ds := range []string{"WATER", "PRISM"} {
		rec := Record{Experiment: "fig11", Workload: "selection/" + ds, Tester: "sw"}
		out = r.selection(out, rec, ds, software, -1)
		rec.Tester = "hw"
		for _, res := range resolutions {
			rec.Param = fmt.Sprintf("res=%d", res)
			out = r.selection(out, rec, ds, hardware(res, 0), -1)
		}
	}
	return out
}

// resolutionSweep is the shape Figures 12 and 15 share: per join, the
// software baseline and the hardware tester (sw_threshold 0) at every
// window resolution. dist selects the within-distance join at 1×BaseD.
func (r *Runner) resolutionSweep(exp, op string, dist bool) []Record {
	var out []Record
	for _, j := range evalJoins {
		d, opt := -1.0, query.JoinOptions{}
		if dist {
			d, opt = r.baseD(j), distFilter
		}
		rec := Record{Experiment: exp, Workload: j[0] + op + j[1], Tester: "sw"}
		out = r.join(out, rec, j, d, software, opt)
		rec.Tester = "hw"
		for _, res := range resolutions {
			rec.Param = fmt.Sprintf("res=%d", res)
			out = r.join(out, rec, j, d, hardware(res, 0), opt)
		}
	}
	return out
}

// fig12: intersection join, software vs hardware across resolutions.
func fig12(r *Runner) []Record { return r.resolutionSweep("fig12", "⋈", false) }

// fig13: the software threshold's effect on the LANDC⋈LANDO hardware join
// at 8×8 and 16×16 windows.
func fig13(r *Runner) []Record {
	j := evalJoins[0]
	rec := Record{Experiment: "fig13", Workload: j[0] + "⋈" + j[1], Tester: "sw"}
	out := r.join(nil, rec, j, -1, software, query.JoinOptions{})
	rec.Tester = "hw"
	for _, res := range []int{8, 16} {
		for _, th := range thresholds {
			rec.Param = fmt.Sprintf("res=%d,threshold=%d", res, th)
			out = r.join(out, rec, j, -1, hardware(res, th), query.JoinOptions{})
		}
	}
	return out
}

// fig14: software within-distance join cost breakdown with the 0/1-object
// filters across the D sweep.
func fig14(r *Runner) []Record {
	var out []Record
	for _, j := range evalJoins {
		base := r.baseD(j)
		for _, m := range distanceMultipliers {
			rec := Record{Experiment: "fig14", Workload: j[0] + "⋈dis" + j[1], Tester: "sw", Param: fmt.Sprintf("d_mult=%g", m)}
			out = r.join(out, rec, j, base*m, software, distFilter)
		}
	}
	return out
}

// fig15: within-distance join at D = 1×BaseD, software vs hardware across
// resolutions.
func fig15(r *Runner) []Record { return r.resolutionSweep("fig15", "⋈dis", true) }

// fig16: software vs hardware within-distance join across the D sweep at
// an 8×8 window with sw_threshold 500, as in the paper.
func fig16(r *Runner) []Record {
	var out []Record
	for _, j := range evalJoins {
		base := r.baseD(j)
		for _, m := range distanceMultipliers {
			rec := Record{Experiment: "fig16", Workload: j[0] + "⋈dis" + j[1], Tester: "sw", Param: fmt.Sprintf("d_mult=%g", m)}
			out = r.join(out, rec, j, base*m, software, distFilter)
			rec.Tester = "hw"
			out = r.join(out, rec, j, base*m, hardware(8, 500), distFilter)
		}
	}
	return out
}

// hull runs the Table 1 comparison the paper frames but does not measure:
// the pre-processing techniques — Brinkhoff's convex-hull geometric filter
// and the TR*-tree per-object edge index — against (and combined with) the
// runtime hardware filter, on both evaluation joins. Pre-computation
// (hulls, edge trees) is outside the timed region, mirroring how
// pre-processing techniques amortize their setup; the trade-offs the paper
// lists — update cost, extra storage, inapplicability to intermediate
// datasets — are structural and not timed here.
func hull(r *Runner) []Record {
	var out []Record
	for _, j := range evalJoins {
		rec := Record{Experiment: "hull", Workload: j[0] + "⋈" + j[1]}
		for _, c := range []struct {
			tester string
			cfg    core.Config
			hull   bool
		}{
			{"sw", software, false},
			{"sw+hull", software, true},
			{"hw", hardware(8, 0), false},
			{"hw+hull", hardware(8, 0), true},
		} {
			rec.Tester = c.tester
			out = r.join(out, rec, j, -1, c.cfg, query.JoinOptions{UseHullFilter: c.hull})
		}
		if r.Err != nil {
			return out
		}
		// TR*-tree refinement: the MBR join feeds pre-built per-object edge
		// trees whose synchronized traversal replaces the plane sweep.
		a, b := r.Layer(j[0]), r.Layer(j[1])
		treesA, treesB := filter.NewEdgeTreeSet(a.Data.Objects), filter.NewEdgeTreeSet(b.Data.Objects)
		rec.Tester = "tr*-tree"
		start := time.Now()
		rtree.Join(a.Index, b.Index, func(ea, eb rtree.Entry) bool {
			rec.Candidates++
			if treesA.Tree(ea.ID).Intersects(treesB.Tree(eb.ID)) {
				rec.Results++
			}
			return true
		})
		rec.GeomMS = ms(time.Since(start))
		out = append(out, rec)
	}
	return out
}
