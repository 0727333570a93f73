package shellcmd

import (
	"context"
	"errors"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/partition"
	"repro/internal/query"
)

func exec(t testing.TB, e *Engine, line string) (string, Result) {
	t.Helper()
	var sb strings.Builder
	res, err := e.Exec(context.Background(), line, &sb)
	if err != nil {
		t.Fatalf("Exec(%q): %v", line, err)
	}
	return sb.String(), res
}

func TestGrammarEndToEnd(t *testing.T) {
	e := &Engine{Store: MapStore{}}

	out, res := exec(t, e, "gen water WATER 0.01")
	if !strings.Contains(out, `layer "water"`) {
		t.Errorf("gen output = %q", out)
	}
	if !res.Mutation || res.Stats.Op != "gen" {
		t.Errorf("gen result = %+v", res)
	}
	exec(t, e, "gen prism PRISM 0.01")

	out, _ = exec(t, e, "layers")
	if !strings.Contains(out, "water") || !strings.Contains(out, "prism") {
		t.Errorf("layers output = %q", out)
	}

	out, res = exec(t, e, "join water prism hw")
	if !strings.HasPrefix(out, "join: ") {
		t.Errorf("join output = %q", out)
	}
	if res.Stats.Op != "join" || res.Stats.Results == 0 || res.Stats.Candidates == 0 {
		t.Errorf("join stats = %+v", res.Stats)
	}
	if res.Stats.Tests == 0 {
		t.Error("join stats recorded no refinement tests")
	}

	// The hardware and software modes agree (the filter is exact).
	_, sw := exec(t, e, "join water prism sw")
	if sw.Stats.Results != res.Stats.Results {
		t.Errorf("sw join %d results, hw join %d", sw.Stats.Results, res.Stats.Results)
	}

	// pjoin agrees with join.
	_, pj := exec(t, e, "pjoin water prism 2")
	if pj.Stats.Results != res.Stats.Results {
		t.Errorf("pjoin %d results, join %d", pj.Stats.Results, res.Stats.Results)
	}

	out, knn := exec(t, e, "knn water POLYGON ((200 150, 220 150, 220 170, 200 170)) 5")
	if knn.Stats.Op != "knn" || knn.Stats.Results != 5 {
		t.Errorf("knn stats = %+v (output %q)", knn.Stats, out)
	}

	out, sel := exec(t, e, "select water POLYGON ((0 0, 500 0, 500 500, 0 500))")
	if sel.Stats.Op != "select" || !strings.HasPrefix(out, "select: ") {
		t.Errorf("select = %+v, output %q", sel.Stats, out)
	}
}

func TestSettingsCommands(t *testing.T) {
	e := &Engine{Store: MapStore{}}
	exec(t, e, "timeout 250ms")
	if e.Settings.Timeout != 250*time.Millisecond {
		t.Errorf("Timeout = %v", e.Settings.Timeout)
	}
	exec(t, e, "budget 10")
	if e.Settings.Budget != 10 {
		t.Errorf("Budget = %d", e.Settings.Budget)
	}
	exec(t, e, "timeout off")
	exec(t, e, "budget off")
	if e.Settings.Timeout != 0 || e.Settings.Budget != 0 {
		t.Errorf("off did not reset: %+v", e.Settings)
	}
	exec(t, e, "pipeline on 8")
	if e.Settings.BatchSize != 8 {
		t.Errorf("BatchSize = %d", e.Settings.BatchSize)
	}
	// The executor is the only join driver: there is nothing to turn off.
	var sb strings.Builder
	if _, err := e.Exec(context.Background(), "pipeline off", &sb); err == nil || e.Settings.BatchSize != 8 {
		t.Errorf("pipeline off: err = %v, batch %d; want an error and batch 8", err, e.Settings.BatchSize)
	}
}

func TestBudgetIsHardError(t *testing.T) {
	e := &Engine{Store: MapStore{}}
	exec(t, e, "gen water WATER 0.01")
	exec(t, e, "gen prism PRISM 0.01")
	exec(t, e, "budget 3")
	var sb strings.Builder
	_, err := e.Exec(context.Background(), "join water prism", &sb)
	var be *query.BudgetError
	if err == nil || !errors.As(err, &be) {
		t.Fatalf("err = %v, want *query.BudgetError", err)
	}
}

func TestErrorsAndEmptyLines(t *testing.T) {
	e := &Engine{Store: MapStore{}}
	exec(t, e, "gen a LANDC 0.002")
	exec(t, e, "gen b LANDO 0.002")
	for _, line := range []string{"bogus", "join", "join nosuch other", "gen x", "stats nosuch",
		"join a", "join a b hw extra", "pjoin a b -1", "pjoin a b many", "within a b", "within a b far",
		"shardjoin a b 0 0 1", "shardjoin a b 0 0 1 x", "shardwithin a b 1 0 0 1"} {
		var sb strings.Builder
		if _, err := e.Exec(context.Background(), line, &sb); err == nil {
			t.Errorf("Exec(%q) succeeded, want error", line)
		}
	}
	var sb strings.Builder
	if _, err := e.Exec(context.Background(), "   ", &sb); err != nil || sb.Len() != 0 {
		t.Errorf("blank line: err=%v out=%q", err, sb.String())
	}
	if _, err := e.Exec(context.Background(), "# comment", &sb); err != nil || sb.Len() != 0 {
		t.Errorf("comment line: err=%v out=%q", err, sb.String())
	}
}

// TestWithinRefusesNonDistances pins the D grammar of the three within
// verbs — within and shardwithin on a node, within on a coordinator: a D
// that is not a finite number ≥ 0 is answered with the verb's usage line,
// never with rows, and the coordinator asks no shard (its one address
// serves nothing).
func TestWithinRefusesNonDistances(t *testing.T) {
	node := &Engine{Store: MapStore{}}
	exec(t, node, "gen a LANDC 0.002")
	exec(t, node, "gen b LANDO 0.002")
	m := &partition.Manifest{GX: 1, GY: 1, Margin: 2, Bounds: geom.R(0, 0, 100, 100)}
	c, err := coord.New(coord.Config{Manifest: m, Addrs: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	fleet := &Engine{Coord: c}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, d := range []string{"NaN", "-1", "Inf", "-Inf", "1e309"} {
		for _, tc := range []struct {
			e          *Engine
			verb, line string
		}{
			{node, "within", "within a b " + d},
			{node, "shardwithin", "shardwithin a b " + d + " -Inf -Inf +Inf +Inf"},
			{fleet, "within", "within a b " + d},
		} {
			var sb strings.Builder
			if _, err := tc.e.Exec(ctx, tc.line, &sb); err == nil || err.Error() != joinUsage[tc.verb] {
				t.Errorf("%q (coordinator %v): err = %v, output %q; want %q",
					tc.line, tc.e.Coord != nil, err, sb.String(), joinUsage[tc.verb])
			}
		}
	}
}

func TestTimeoutYieldsPartial(t *testing.T) {
	e := &Engine{Store: MapStore{}}
	exec(t, e, "gen water WATER 0.02")
	exec(t, e, "gen prism PRISM 0.02")
	exec(t, e, "timeout 1ns")
	// With a 1ns deadline every stride check fires; pjoin checks context
	// per pair, so the interruption is deterministic.
	out, res := exec(t, e, "pjoin water prism 1")
	if res.Partial == nil {
		t.Fatalf("no Partial on 1ns timeout (output %q)", out)
	}
	if !strings.Contains(out, "note:") {
		t.Errorf("no interruption note in %q", out)
	}
}

// TestBatchPartialSubTrailer pins the batch framing for an interrupted
// sub-command: it must answer a "sub <n> partial: <reason>" trailer (not
// claim "ok" for an incomplete answer), later subs still run, and the
// first partial marks the whole batch partial.
func TestBatchPartialSubTrailer(t *testing.T) {
	e := &Engine{Store: MapStore{}}
	exec(t, e, "gen water WATER 0.02")
	exec(t, e, "gen prism PRISM 0.02")
	exec(t, e, "timeout 1ns")
	out, res := exec(t, e, "batch pjoin water prism 1; layers")
	if !strings.Contains(out, "sub 1 partial:") {
		t.Fatalf("interrupted sub got no partial trailer: %q", out)
	}
	if strings.Contains(out, "sub 1 ok:") {
		t.Fatalf("interrupted sub still claimed ok: %q", out)
	}
	if !strings.Contains(out, "sub 2 ok: layers") {
		t.Fatalf("sub after the partial did not run: %q", out)
	}
	if res.Partial == nil {
		t.Fatal("partial sub did not mark the batch result partial")
	}
}

func TestIsQueryAndVerb(t *testing.T) {
	for _, v := range []string{"join", "pjoin", "overlay", "within", "select", "knn"} {
		if !IsQuery(v) {
			t.Errorf("IsQuery(%q) = false", v)
		}
	}
	for _, v := range []string{"gen", "load", "layers", "stats", "timeout", "budget", "help", ""} {
		if IsQuery(v) {
			t.Errorf("IsQuery(%q) = true", v)
		}
	}
	if Verb("  join a b  ") != "join" || Verb("") != "" {
		t.Error("Verb misparsed")
	}
}

// TestParityWithDirectCalls pins the shared grammar to the library: the
// engine's join must return exactly the pairs a direct query call finds.
func TestParityWithDirectCalls(t *testing.T) {
	a := query.NewLayer(data.MustLoad("WATER", 0.01))
	b := query.NewLayer(data.MustLoad("PRISM", 0.01))
	tester := core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold})
	pairs, _, err := query.IntersectionJoinView(context.Background(), a.View(), b.View(), tester, query.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}

	e := &Engine{Store: MapStore{}}
	exec(t, e, "gen water WATER 0.01")
	exec(t, e, "gen prism PRISM 0.01")
	_, res := exec(t, e, "join water prism")
	if res.Stats.Results != len(pairs) {
		t.Errorf("engine join = %d results, direct join = %d", res.Stats.Results, len(pairs))
	}
}

func TestSaveLoadSnapshot(t *testing.T) {
	e := &Engine{Store: MapStore{}, DataDir: t.TempDir()}
	exec(t, e, "gen land LANDC 0.005")

	out, res := exec(t, e, "save land land")
	if !strings.Contains(out, "saved \"land\"") || res.Stats.Op != "save" {
		t.Fatalf("save = %+v, output %q", res, out)
	}

	// A bare name resolves under DataDir and reloads through the snapshot
	// path, with load provenance in the stats record.
	out, res = exec(t, e, "load warm land")
	if !strings.Contains(out, "from snapshot") {
		t.Fatalf("load output = %q", out)
	}
	if res.Stats.SnapshotBytes <= 0 || res.Stats.SnapshotSections < 5 || res.Stats.SnapshotLoadMS < 0 {
		t.Fatalf("snapshot load stats missing: %+v", res.Stats)
	}

	out, _ = exec(t, e, "layers")
	if !strings.Contains(out, "snapshot:LANDC") || !strings.Contains(out, "memory") {
		t.Fatalf("layers provenance missing: %q", out)
	}

	// The warm layer answers queries identically to the built one, and a
	// snapshot saved without intervals joins through its persisted
	// signatures, which spans otherwise replace.
	_, built := exec(t, e, "join land land sw")
	_, warm := exec(t, e, "join warm warm sw")
	if built.Stats.Results != warm.Stats.Results {
		t.Fatalf("warm join %d results, built %d", warm.Stats.Results, built.Stats.Results)
	}
	exec(t, e, "save land landv1 nointervals")
	exec(t, e, "load v1 landv1")
	_, v1 := exec(t, e, "join v1 v1 sw")
	if v1.Stats.Results != built.Stats.Results {
		t.Fatalf("nointervals snapshot join %d results, built %d", v1.Stats.Results, built.Stats.Results)
	}
	if v1.Stats.SigChecks == 0 {
		t.Fatal("warm join never consulted persisted signatures")
	}

	// A corrupted snapshot is refused with a typed store error, not bound.
	if _, err := e.Exec(context.Background(), "load bad missing", new(strings.Builder)); err == nil {
		t.Fatal("loading a missing snapshot succeeded")
	}
}

// TestVerbsRefineInSoftware: every refining verb runs the software-only
// tester, whatever its mode word says — "hw", "sw" and no word answer the
// same rows, no record counts a card verdict, and every pair the filter
// leaves open is counted sent straight to software.
func TestVerbsRefineInSoftware(t *testing.T) {
	e := &Engine{Store: MapStore{}}
	exec(t, e, "gen w WATER 0.01")
	exec(t, e, "gen p PRISM 0.01")
	whole := FormatRect(geom.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)})
	durations := regexp.MustCompile(`[0-9.]+(ns|µs|ms|s)\b`)
	for _, c := range []struct {
		line  string
		words []string // the mode words the verb takes after line
	}{
		{"select w POLYGON ((0 0, 500 0, 500 500, 0 500))", []string{""}},
		{"pjoin w p 2", []string{""}},
		{"join w p", []string{"", " hw", " sw"}},
		{"within w p 1", []string{"", " hw", " sw"}},
		{"shardjoin w p " + whole, []string{"", " hw", " sw"}},
		{"shardwithin w p 1 " + whole, []string{"", " hw", " sw"}},
	} {
		var first string
		for _, word := range c.words {
			line := c.line + word
			out, res := exec(t, e, line)
			var rows []string
			for _, l := range strings.Split(out, "\n") {
				if !strings.HasPrefix(l, "stats ") {
					rows = append(rows, durations.ReplaceAllString(l, "T"))
				}
			}
			if got := strings.Join(rows, "\n"); first == "" {
				first = got
			} else if got != first {
				t.Errorf("%s: rows differ from the verb's without a mode word:\n%s\nwant\n%s", line, got, first)
			}
			s := res.Stats
			if s.HWRejects != 0 || s.HWPassed != 0 || s.HWFallbacks != 0 {
				t.Errorf("%s: the card decided pairs: hw_rejects %d, hw_passed %d, hw_fallbacks %d", line, s.HWRejects, s.HWPassed, s.HWFallbacks)
			}
			open := s.Tests - s.MBRRejects - s.IntervalTrueHits - s.IntervalRejects - s.PIPHits - s.SigRejects
			if s.SWDirect != open || open == 0 {
				t.Errorf("%s: sw_direct %d, %d pairs left open by the filter (want equal and some)", line, s.SWDirect, open)
			}
		}
	}
	if _, err := e.Exec(context.Background(), "join w p gpu", &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "mode must be sw or hw") {
		t.Errorf("join with mode gpu: err = %v, want the mode usage error", err)
	}
}
