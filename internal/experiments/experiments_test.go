package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// tiny scale keeps the whole evaluation under a second per experiment.
const testScale = 0.005

// points indexes one pass's records by "workload tester param".
func points(t *testing.T, recs []Record, exp string, want int) map[string]Record {
	t.Helper()
	if len(recs) != want {
		t.Fatalf("%s: %d records, want %d", exp, len(recs), want)
	}
	m := map[string]Record{}
	for _, rec := range recs {
		if rec.Experiment != exp {
			t.Fatalf("%s emitted a record of %q", exp, rec.Experiment)
		}
		key := rec.Workload + " " + rec.Tester + " " + rec.Param
		if _, dup := m[key]; dup {
			t.Fatalf("%s: point %q emitted twice in one pass", exp, key)
		}
		m[key] = rec
	}
	return m
}

func TestNewRunnerDefaults(t *testing.T) {
	r := NewRunner(testScale)
	if r.Scale != testScale || r.Ctx == nil || r.Err != nil {
		t.Errorf("NewRunner = %+v", r)
	}
}

func TestLayerCaching(t *testing.T) {
	r := NewRunner(testScale)
	a := r.Layer("WATER")
	b := r.Layer("WATER")
	if a != b {
		t.Error("Layer not cached")
	}
	if a.Index.Len() != len(a.Data.Objects) {
		t.Error("layer index incomplete")
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil || len(all) != len(Table) {
		t.Fatalf("Select(all) = %d experiments, %v", len(all), err)
	}
	got, err := Select(" Fig13, table2 ,fig13")
	if err != nil || len(got) != 2 || got[0].Name != "table2" || got[1].Name != "fig13" {
		t.Fatalf("Select = %v, %v; want table2, fig13 in Table order", got, err)
	}
	for _, spec := range []string{"table2,bogus", "", "fig12,", "locality", "all,fig12"} {
		exps, err := Select(spec)
		if err == nil || exps != nil {
			t.Errorf("Select(%q) = %v, %v; want an error and nothing to run", spec, exps, err)
		}
	}
	if _, err := Select("zeta,table2,alpha"); err == nil || !strings.Contains(err.Error(), `"alpha", "zeta"`) {
		t.Errorf("unknown names not all reported, sorted: %v", err)
	}
}

func TestTable2(t *testing.T) {
	r := NewRunner(testScale)
	recs := table2(r)
	points(t, recs, "table2", 5)
	for i, name := range []string{"LANDC", "LANDO", "STATES50", "PRISM", "WATER"} {
		s := r.Layer(name).Data.Stats()
		if s.N == 0 || s.MinVerts < 3 {
			t.Errorf("%s: bad stats %+v", name, s)
		}
		if rec := recs[i]; rec.Workload != name || rec.Results != s.N || !strings.HasPrefix(rec.Param, "verts=") {
			t.Errorf("record %d = %+v, want %s with N=%d and its vertex statistics", i, rec, name, s.N)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	recs := points(t, fig10(NewRunner(testScale)), "fig10", 2*len(tilingLevels))
	for _, ds := range []string{"WATER", "PRISM"} {
		// Results must not depend on the tiling level. (That the stage counts
		// partition the candidates is query's TestIntersectionSelectMatchesOracle.)
		want := recs["selection/"+ds+" sw level=0"].Results
		for key, rec := range recs {
			if rec.Workload != "selection/"+ds {
				continue
			}
			if rec.Results != want {
				t.Errorf("%s: results %d != %d (filter changed answers)", key, rec.Results, want)
			}
			if rec.FilterHits > rec.Candidates || rec.GeomMS <= 0 {
				t.Errorf("%s: inconsistent record %+v", key, rec)
			}
		}
	}
}

// checkSweep asserts the software-vs-hardware shape Figures 11, 12, 13, 15
// and 16 share: every hardware point ran tests, took time, and returned
// the result count of its software baseline.
func checkSweep(t *testing.T, recs map[string]Record) {
	t.Helper()
	for key, rec := range recs {
		if rec.GeomMS <= 0 {
			t.Errorf("%s: non-positive geometry cost", key)
		}
		if rec.Tester != "hw" {
			continue
		}
		if rec.Tests == 0 {
			t.Errorf("%s: tester ran no tests", key)
		}
		sw, ok := recs[rec.Workload+" sw "+rec.Param]
		if !ok {
			sw, ok = recs[rec.Workload+" sw "]
		}
		if !ok || sw.Results != rec.Results || sw.Results == 0 {
			t.Errorf("%s: %d results, software baseline %d (found %v)", key, rec.Results, sw.Results, ok)
		}
	}
}

func TestFig11Consistency(t *testing.T) {
	checkSweep(t, points(t, fig11(NewRunner(testScale)), "fig11", 2*(1+len(resolutions))))
}

func TestFig12And13(t *testing.T) {
	r := NewRunner(testScale)
	checkSweep(t, points(t, fig12(r), "fig12", 2*(1+len(resolutions))))
	checkSweep(t, points(t, fig13(r), "fig13", 1+2*len(thresholds)))
}

func TestFig14Through16(t *testing.T) {
	r := NewRunner(testScale)
	recs := fig14(r)
	points(t, recs, "fig14", 2*len(distanceMultipliers))
	// Result counts must grow monotonically with D (records are in D order).
	for i := 1; i < len(recs); i++ {
		if recs[i].Workload == recs[i-1].Workload && recs[i].Results < recs[i-1].Results {
			t.Errorf("%s: results shrank from %d to %d as D grew", recs[i].Workload, recs[i-1].Results, recs[i].Results)
		}
	}
	for _, j := range evalJoins {
		if r.baseD(j) <= 0 {
			t.Fatalf("%v: BaseD = %v", j, r.baseD(j))
		}
	}
	checkSweep(t, points(t, fig15(r), "fig15", 2*(1+len(resolutions))))
	checkSweep(t, points(t, fig16(r), "fig16", 2*2*len(distanceMultipliers)))
}

func TestExtraHull(t *testing.T) {
	recs := points(t, hull(NewRunner(testScale)), "hull", 2*5)
	for _, w := range []string{"LANDC⋈LANDO", "WATER⋈PRISM"} {
		want := recs[w+" sw "].Results
		if want == 0 {
			t.Fatalf("%s: software join found nothing", w)
		}
		for _, tester := range []string{"sw+hull", "hw", "hw+hull", "tr*-tree"} {
			rec, ok := recs[w+" "+tester+" "]
			if !ok || rec.Results != want || rec.GeomMS < 0 {
				t.Errorf("%s %s: %+v (found %v), want %d results", w, tester, rec, ok, want)
			}
		}
		if recs[w+" sw+hull "].FilterRejects == 0 {
			t.Errorf("%s: hull filter rejected nothing", w)
		}
	}
}

func TestQueries(t *testing.T) {
	if n := len(NewRunner(testScale).Layer("STATES50").Data.Objects); n != 50 {
		t.Errorf("query set size = %d, want 50", n)
	}
}

// TestSummarize checks the -repeats grouping on a hand-made record set.
func TestSummarize(t *testing.T) {
	var recs []Record
	for rep, geom := range []float64{2, 4, 6} {
		recs = append(recs,
			Record{Experiment: "x", Workload: "w", Tester: "sw", Repeat: rep + 1, MBRMS: 1, FilterMS: 3, GeomMS: geom, Results: 7},
			Record{Experiment: "x", Workload: "w", Tester: "hw", Param: "res=8", Repeat: rep + 1, GeomMS: 2 * geom, Tests: 9},
			Record{Experiment: "x", Workload: "w", Tester: "sw", Param: "d=1", Repeat: rep + 1, GeomMS: 1})
	}
	recs = append(recs,
		Record{Experiment: "x", Workload: "w", Tester: "hw", Param: "d=1", Repeat: 1, GeomMS: 3},
		Record{Experiment: "y", Workload: "w", Tester: "hw", Repeat: 1, GeomMS: 5})
	groups := Summarize(recs)
	want := []Group{
		{Experiment: "x", Workload: "w", Tester: "sw", N: 3, MBRMS: 1, FilterMS: 3, GeomMS: 4, GeomStdMS: 2, VsSW: 1, Results: 7},
		{Experiment: "x", Workload: "w", Tester: "hw", Param: "res=8", N: 3, GeomMS: 8, GeomStdMS: 4, VsSW: 2, Tests: 9}, // shared baseline
		{Experiment: "x", Workload: "w", Tester: "sw", Param: "d=1", N: 3, GeomMS: 1, VsSW: 1},
		{Experiment: "x", Workload: "w", Tester: "hw", Param: "d=1", N: 1, GeomMS: 3, VsSW: 3}, // same-param baseline wins; n=1 has no stddev
		{Experiment: "y", Workload: "w", Tester: "hw", N: 1, GeomMS: 5},                        // no baseline in its experiment
	}
	if len(groups) != len(want) {
		t.Fatalf("%d groups, want %d: %+v", len(groups), len(want), groups)
	}
	for i, w := range want {
		g := groups[i]
		if math.Abs(g.GeomStdMS-w.GeomStdMS) > 1e-9 || math.Abs(g.GeomMS-w.GeomMS) > 1e-9 {
			t.Errorf("group %d: geom %v ± %v, want %v ± %v", i, g.GeomMS, g.GeomStdMS, w.GeomMS, w.GeomStdMS)
		}
		g.GeomMS, g.GeomStdMS = w.GeomMS, w.GeomStdMS
		if g != w {
			t.Errorf("group %d = %+v, want %+v", i, g, w)
		}
	}
	var buf bytes.Buffer
	WriteSummary(&buf, Env{GoVersion: "go0", Repeats: 3}, groups)
	if out := buf.String(); !strings.Contains(out, "n=3") || !strings.Contains(out, "repeats=3") ||
		strings.Count(out, "\n") != 2+len(want) {
		t.Errorf("summary:\n%s", out)
	}
}

// warmScale is large enough that the lazy first-touch builds (interval
// columns, per-object edge indexes) dwarf timer noise: without the warm-up
// pass the first software join on a fresh Runner is 10–25× a warmed one.
const warmScale = 0.02

// agreeFactor is the generous bound on two timings of the same warmed
// call; it only has to sit well below the cold-start factor above.
const agreeFactor = 4

// TestWarmBaseline pins the warm-up: on one Runner the LANDC⋈LANDO
// software baseline of fig12 — the first join the run times — and of fig13
// are the same call and must agree, and so must its repeats. A first-touch
// build shows in every fresh Runner, while a scheduler or GC spike does
// not repeat: so a timing violation fails the test only if a second fresh
// Runner violates the same bound again.
func TestWarmBaseline(t *testing.T) {
	first := warmBaselineViolations(t)
	if len(first) == 0 {
		return
	}
	second := warmBaselineViolations(t)
	for bound, msg := range first {
		if again, ok := second[bound]; ok {
			t.Errorf("%s; again on a second fresh Runner: %s", msg, again)
		} else {
			t.Logf("not repeated on a second fresh Runner, so not a first-touch build: %s", msg)
		}
	}
}

// warmBaselineViolations runs fig12 and fig13 with three repeats on a
// fresh Runner and returns the agreeFactor bounds the software baseline
// broke, keyed by bound, each with its message. What no timing can move
// (the environment, the repeat numbers, n per point) fails t at once.
func warmBaselineViolations(t *testing.T) map[string]string {
	t.Helper()
	exps, err := Select("fig12,fig13")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(warmScale)
	recs, env := r.Run(exps, 3, io.Discard)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if env.Repeats != 3 || env.GOMAXPROCS < 1 || env.GoVersion == "" || env.Scale != warmScale {
		t.Errorf("env = %+v", env)
	}
	lo, hi := map[string]float64{}, map[string]float64{}
	for _, rec := range recs {
		if rec.Workload != "LANDC⋈LANDO" || rec.Tester != "sw" {
			continue
		}
		if rec.Repeat < 1 || rec.Repeat > 3 {
			t.Fatalf("repeat %d out of 1..3", rec.Repeat)
		}
		if v, ok := lo[rec.Experiment]; !ok || rec.GeomMS < v {
			lo[rec.Experiment] = rec.GeomMS
		}
		hi[rec.Experiment] = max(hi[rec.Experiment], rec.GeomMS)
	}
	for _, g := range Summarize(recs) {
		if g.N != 3 {
			t.Errorf("%s %s %s %s: n=%d, want 3", g.Experiment, g.Workload, g.Tester, g.Param, g.N)
		}
	}
	broken := map[string]string{}
	for _, exp := range []string{"fig12", "fig13"} {
		if lo[exp] <= 0 || hi[exp] > agreeFactor*lo[exp] {
			broken[exp] = fmt.Sprintf("%s software baseline spans %.3f–%.3f ms over 3 repeats (> %d×): a timed pass paid a first-touch build",
				exp, lo[exp], hi[exp], agreeFactor)
		}
	}
	if a, b := lo["fig12"], lo["fig13"]; a > agreeFactor*b || b > agreeFactor*a {
		broken["fig12~fig13"] = fmt.Sprintf("LANDC⋈LANDO software baseline: fig12 %.3f ms, fig13 %.3f ms — the same call disagrees by > %d×", a, b, agreeFactor)
	}
	return broken
}

// TestRunInterrupted: an expired context drops the experiment in progress,
// keeps the completed ones, and leaves the cause in Err.
func TestRunInterrupted(t *testing.T) {
	exps, err := Select("table2,fig12,fig13")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(testScale)
	r.Layer("LANDC") // table2 issues no query: build outside the deadline
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	r.Ctx = ctx
	var log bytes.Buffer
	recs, _ := r.Run(exps, 2, &log)
	if r.Err == nil {
		t.Fatal("expired context did not interrupt the run")
	}
	if recs == nil || len(recs) != 2*5 {
		t.Fatalf("%d records kept, want table2's 10", len(recs))
	}
	for _, rec := range recs {
		if rec.Experiment != "table2" {
			t.Errorf("record of interrupted %s kept", rec.Experiment)
		}
	}
	if !strings.Contains(log.String(), "fig12 interrupted") || strings.Contains(log.String(), "fig13") {
		t.Errorf("log:\n%s", log.String())
	}
}
