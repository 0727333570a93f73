package query

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/faultinject"
)

// Behaviour tests of the join executor. Each case runs on both execution
// forms — inline on the caller's tester and pooled — through execForms;
// result parity against the oracles is query_test.go's matrix.

func checkStatsPartition(t *testing.T, name string, s core.Stats) {
	t.Helper()
	accounted := s.MBRRejects + s.IntervalTrueHits + s.IntervalRejects + s.PIPHits + s.SigRejects + s.SWDirect +
		s.HWRejects + s.HWPassed + s.HWFallbacks
	if accounted != s.Tests {
		t.Errorf("%s: stats do not partition tests: %+v", name, s)
	}
}

// execForm runs an intersection join of layerA and layerB one way.
type execForm struct {
	name string
	join func(ctx context.Context, cfg core.Config, opt JoinOptions) ([]Pair, Stats, error)
}

var execForms = []execForm{
	{"inline", func(ctx context.Context, cfg core.Config, opt JoinOptions) ([]Pair, Stats, error) {
		return IntersectionJoinView(ctx, layerA.View(), layerB.View(), core.NewTester(cfg), opt)
	}},
	{"pooled", func(ctx context.Context, cfg core.Config, opt JoinOptions) ([]Pair, Stats, error) {
		opt.Workers = 4
		opt.Tester = func() *core.Tester { return core.NewTester(cfg) }
		return PipelineIntersectionJoinView(ctx, layerA.View(), layerB.View(), opt)
	}},
}

// pooledJoin is the intersection join of two layers on the worker pool.
func pooledJoin(a, b *Layer, opt JoinOptions) ([]Pair, Stats, error) {
	return PipelineIntersectionJoinView(bg, a.View(), b.View(), opt)
}

// TestParallelCustomTester: the factory runs once per pool worker (so its
// counter must be atomic), and only for the stages — generation builds no
// tester. The pool is the 3 workers asked for, or GOMAXPROCS if fewer.
func TestParallelCustomTester(t *testing.T) {
	var made atomic.Int32
	opt := JoinOptions{
		Workers:   3,
		BatchSize: 16,
		Tester: func() *core.Tester {
			made.Add(1)
			return core.NewTester(core.Config{DisableHardware: true})
		},
	}
	if _, _, err := PipelineIntersectionJoinView(bg, layerA.View(), layerB.View(), opt); err != nil {
		t.Fatal(err)
	}
	if n, want := int(made.Load()), min(3, runtime.GOMAXPROCS(0)); n != want {
		t.Errorf("tester factory called %d times, want %d, one per worker", n, want)
	}
}

// TestWorkerCountClamped: a worker count off the wire cannot make the
// executor build more testers than GOMAXPROCS, and the clamped run still
// answers exactly.
func TestWorkerCountClamped(t *testing.T) {
	var made atomic.Int32
	opt := JoinOptions{
		Workers:   1 << 20,
		BatchSize: 1, // one batch per candidate: only the clamp bounds the pool
		Tester: func() *core.Tester {
			made.Add(1)
			return core.NewTester(core.Config{DisableHardware: true})
		},
	}
	got, _, err := PipelineIntersectionJoinView(bg, layerA.View(), layerB.View(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if n, bound := int(made.Load()), runtime.GOMAXPROCS(0); n > bound {
		t.Errorf("Workers 1<<20 built %d testers, bound %d", n, bound)
	}
	samePairs(t, "clamped", got, sortedPairs(softwareOracle(t)))
}

func TestParallelEmptyLayers(t *testing.T) {
	empty := NewLayer(&data.Dataset{Name: "empty"})
	pairs, _, err := PipelineIntersectionJoinView(bg, empty.View(), layerB.View(), JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Error("empty layer produced pairs")
	}
}

// TestPipelineSinkStreamsExactResult pins the streaming contract: rows
// arrive incrementally, batch by batch, their concatenation is the
// returned slice, and the emission counters account for every one.
func TestPipelineSinkStreamsExactResult(t *testing.T) {
	for _, f := range execForms {
		var streamed []Pair
		calls := 0
		got, stats, err := f.join(bg, core.Config{DisableHardware: true}, JoinOptions{
			BatchSize: 16,
			Sink: func(pairs []Pair) error {
				calls++
				streamed = append(streamed, pairs...) // copy: the slice is reused
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, f.name+" stream", streamed, got)
		if stats.StreamRowsEmitted != int64(len(got)) {
			t.Errorf("%s: StreamRowsEmitted = %d, want %d", f.name, stats.StreamRowsEmitted, len(got))
		}
		if stats.PipelineBatches < 2 || calls < 2 {
			t.Errorf("%s: %d batches, sink called %d times; batch 16 should stream incrementally",
				f.name, stats.PipelineBatches, calls)
		}
	}
}

// TestPipelineSinkErrorWindsDown exercises the streaming wind-down: a
// failing sink must stop the join with a typed partial error carrying the
// sink's error, without leaking a single goroutine.
func TestPipelineSinkErrorWindsDown(t *testing.T) {
	boom := errors.New("client went away")
	fullSet := pairSet(softwareOracle(t))
	for _, f := range execForms {
		before := runtime.NumGoroutine()
		got, _, err := f.join(bg, core.Config{DisableHardware: true}, JoinOptions{
			BatchSize: 4,
			Sink:      func([]Pair) error { return boom },
		})
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v, want *PartialError", f.name, err)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("%s: partial error does not carry the sink error: %v", f.name, err)
		}
		if pe.Total == 0 {
			t.Errorf("%s: partial error lost the candidate total", f.name)
		}
		// The failed batch's pairs never streamed, so the returned slice is
		// whatever drained before wind-down; it must still be a subset of
		// the full result.
		for _, pr := range got {
			if !fullSet[pr] {
				t.Fatalf("%s: wind-down emitted %v, not in the full result", f.name, pr)
			}
		}
		checkNoGoroutineLeak(t, before)
	}
}

// TestPipelineCancellationPartial cancels mid-stream and requires the
// typed partial with the cancellation cause, plus full goroutine
// wind-down.
func TestPipelineCancellationPartial(t *testing.T) {
	for _, f := range execForms {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(bg)
		_, _, err := f.join(ctx, core.Config{DisableHardware: true}, JoinOptions{
			BatchSize: 2,
			Sink: func([]Pair) error {
				cancel() // first streamed batch pulls the plug
				return nil
			},
		})
		cancel()
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v, want *PartialError", f.name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: partial error cause = %v, want context.Canceled", f.name, err)
		}
		if pe.Done == 0 || pe.Done >= pe.Total {
			t.Errorf("%s: partial progress %d/%d, want some but not all", f.name, pe.Done, pe.Total)
		}
		checkNoGoroutineLeak(t, before)
	}
}

// panickingJoin runs a join whose tester configuration panics, with a
// deadlock guard, and requires the exact software result set with every
// panic recovered onto the software retry and nothing quarantined.
func panickingJoin(t *testing.T, f execForm, cfg core.Config) {
	t.Helper()
	want := pairSet(softwareOracle(t))
	before := runtime.NumGoroutine()
	done := make(chan struct{})
	var (
		got   []Pair
		stats Stats
		err   error
	)
	go func() {
		defer close(done)
		got, stats, err = f.join(bg, cfg, JoinOptions{BatchSize: 8})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("%s: join deadlocked with a panicking tester", f.name)
	}
	if err != nil {
		t.Fatalf("%s: join failed: %v", f.name, err)
	}
	checkNoGoroutineLeak(t, before)
	if stats.Panics == 0 {
		t.Errorf("%s: no panics recorded despite rate-1 injection", f.name)
	}
	if stats.Quarantined != 0 {
		t.Errorf("%s: %d pairs quarantined; software retries should all succeed", f.name, stats.Quarantined)
	}
	g := pairSet(got)
	if len(g) != len(want) {
		t.Fatalf("%s: degraded join: %d pairs, software oracle %d", f.name, len(g), len(want))
	}
	for pr := range want {
		if !g[pr] {
			t.Fatalf("%s: degraded join lost pair %v", f.name, pr)
		}
	}
}

// TestPipelineRecoversPanickingTester: a tester that panics at the entry
// of every intersection test — the filter stage — is retried whole on the
// software path. Before panic isolation such a panic escaped the worker
// goroutine and killed the process.
func TestPipelineRecoversPanickingTester(t *testing.T) {
	for _, f := range execForms {
		inj := faultinject.New(7).Inject(faultinject.SiteIntersects, faultinject.KindPanic, 1)
		panickingJoin(t, f, core.Config{DisableHardware: true, Faults: inj})
	}
}

// TestParallelJoinRecoversPanickingTester: a tester whose raster draw
// path panics mid-test — the refine stage — is retried refine-only on the
// software path.
func TestParallelJoinRecoversPanickingTester(t *testing.T) {
	for _, f := range execForms {
		inj := faultinject.New(7).Inject(faultinject.SiteRenderDraw, faultinject.KindPanic, 1)
		panickingJoin(t, f, core.Config{Resolution: 8, SWThreshold: 0, Faults: inj})
	}
}

// stagesForms runs runStages over synthetic candidates with a stand-in
// refine function, inline on a caller's tester and pooled.
func stagesForms(t *testing.T, cfg core.Config, refine func(*core.Tester, Pair) bool,
	check func(name string, got []Pair, stats core.Stats)) {
	p := predicate{
		op:     "test",
		filter: func(*core.Tester, Pair) core.Verdict { return core.VerdictUndecided },
		refine: refine,
	}
	opt := JoinOptions{Workers: 3, BatchSize: 8, Tester: func() *core.Tester { return core.NewTester(cfg) }}
	for _, inline := range []bool{true, false} {
		var tester *core.Tester
		if inline {
			tester = opt.Tester()
		}
		candidates := make([]Pair, 100) // runStages writes its result over them
		for i := range candidates {
			candidates[i] = Pair{i, i}
		}
		got, st, err := runStages(bg, candidates, p, tester, opt, Stats{})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("inline=%v", inline), got, st.Stats)
	}
}

// TestParallelRefineRetriesOnSoftware checks the retry tester's exact
// configuration: hardware disabled, fault injection disarmed, everything
// else inherited from the worker tester.
func TestParallelRefineRetriesOnSoftware(t *testing.T) {
	inj := faultinject.New(1) // armed with nothing; only its presence is checked
	stagesForms(t, core.Config{Resolution: 4, SWThreshold: 123, Faults: inj},
		func(tt *core.Tester, pr Pair) bool {
			cfg := tt.Config()
			if !cfg.DisableHardware {
				panic("primary path poisoned")
			}
			if cfg.Faults != nil {
				t.Error("retry tester still carries the fault injector")
			}
			if cfg.SWThreshold != 123 {
				t.Errorf("retry tester lost configuration: SWThreshold = %d", cfg.SWThreshold)
			}
			return true
		},
		func(name string, got []Pair, stats core.Stats) {
			if len(got) != 100 {
				t.Fatalf("%s: retry kept %d of 100 pairs", name, len(got))
			}
			if stats.Panics != 100 || stats.Quarantined != 0 {
				t.Errorf("%s: Panics/Quarantined = %d/%d, want 100/0", name, stats.Panics, stats.Quarantined)
			}
		})
}

// TestParallelRefineQuarantinesPoisonPair: a pair that panics on the
// software retry too is dropped and counted, and every other pair is
// unaffected.
func TestParallelRefineQuarantinesPoisonPair(t *testing.T) {
	poison := Pair{13, 13}
	stagesForms(t, core.Config{DisableHardware: true},
		func(_ *core.Tester, pr Pair) bool {
			if pr == poison {
				panic("poisoned geometry")
			}
			return pr.A%2 == 0
		},
		func(name string, got []Pair, stats core.Stats) {
			if stats.Panics != 1 || stats.Quarantined != 1 {
				t.Errorf("%s: Panics/Quarantined = %d/%d, want 1/1", name, stats.Panics, stats.Quarantined)
			}
			if g := pairSet(got); len(g) != 50 || g[poison] {
				t.Errorf("%s: %d pairs kept (poison kept: %v), want the 50 even ones", name, len(g), g[poison])
			}
		})
}

// TestPipelineViewComposition joins a live view (deletes and inserts)
// with itself — all four component pairs, delta×delta included — and
// requires the pooled, streamed result to be the inline one and both to
// be a from-scratch layer's.
func TestPipelineViewComposition(t *testing.T) {
	deletes := map[uint64]bool{3: true, 17: true, 40: true}
	inserts := layerB.Data.Objects[:8]
	lv := NewLive(layerA, nil, 0, 0)
	applyScript(t, lv, deletes, inserts)
	v := lv.View()
	scratch := NewLayer(scratchState(layerA.Data, deletes, inserts)).View()

	want, _, err := IntersectionJoinView(bg, scratch, scratch, swTester(), JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inline, _, err := IntersectionJoinView(bg, v, v, swTester(), JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "composed inline", inline, want)
	var streamed []Pair
	got, stats, err := PipelineIntersectionJoinView(bg, v, v, JoinOptions{
		Workers:   4,
		BatchSize: 16,
		Sink: func(pairs []Pair) error {
			streamed = append(streamed, pairs...)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "composed pooled", got, want)
	// The stream is per component pair; the returned slice is re-sorted.
	samePairs(t, "composed stream", sortedPairs(streamed), want)
	if stats.Results != len(want) || stats.Candidates < stats.Results {
		t.Errorf("composed stats: %d results of %d candidates, want %d results", stats.Results, stats.Candidates, len(want))
	}
}

func BenchmarkJoinWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			for range b.N {
				_, _, _ = PipelineIntersectionJoinView(bg, layerA.View(), layerB.View(), JoinOptions{Workers: workers})
			}
		})
	}
}
