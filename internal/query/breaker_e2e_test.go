package query

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/faultinject"
)

// freshLayers builds private layers so breaker state tripped here cannot
// leak into the package's shared fixtures.
func freshLayers() (*Layer, *Layer) {
	return NewLayer(data.MustLoad("LANDC", 0.004)), NewLayer(data.MustLoad("LANDO", 0.002))
}

// shortBreaker gives the layer pair a breaker with an 8-pair cooldown, so
// recovery shows within a few small joins.
func shortBreaker(a, b *Layer) *core.Breaker {
	br := core.NewBreaker(8)
	a.breakers = map[*Layer]*core.Breaker{b: br}
	return br
}

// TestBreakerTripsJoinBitIdentical is the tentpole acceptance test at the
// library level: with KindWrongAnswer injected at SiteHWFilter, a join
// whose tester verifies every hardware negative (SentinelEvery 1)
// produces a result set bit-identical to the software-only baseline, and
// the layer pair's breaker trips. With verification at rate 1 every lying
// negative is overturned before the breaker even reacts; the breaker's
// job is to stop paying the double-test tax by routing the remainder of
// the workload to software outright. It runs under threshold 0 (every pair
// on the card) and under the sampled dispatch, which asks the breaker
// only for its one-in-32 card sample.
func TestBreakerTripsJoinBitIdentical(t *testing.T) {
	for name, threshold := range map[string]int{"threshold0": 0, "sampled": core.SampledSWThreshold} {
		t.Run(name, func(t *testing.T) { breakerTripsJoinBitIdentical(t, threshold) })
	}
}

func breakerTripsJoinBitIdentical(t *testing.T, threshold int) {
	a, b := freshLayers()

	sw := core.NewTester(core.Config{DisableHardware: true})
	want, _, err := IntersectionJoinView(bg, a.View(), b.View(), sw, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New(11).Inject(faultinject.SiteHWFilter, faultinject.KindWrongAnswer, 1)
	faulted := core.NewTester(core.Config{SWThreshold: threshold, SentinelEvery: 1, Faults: inj})
	br := shortBreaker(a, b)

	// joinUntil runs the faulted join, each run bit-identical to the
	// software baseline, until done holds or limit joins ran. Under
	// threshold 0 one join does for each phase; the sampled dispatch sends
	// only every 32nd pair above the threshold to the card, so it takes a
	// few.
	ws := sortedPairs(want)
	joinUntil := func(phase string, limit int, done func() bool) {
		t.Helper()
		for i := 0; i < limit && !done(); i++ {
			got, _, err := IntersectionJoinView(bg, a.View(), b.View(), faulted, JoinOptions{})
			if err != nil {
				t.Fatal(err)
			}
			gs := sortedPairs(got)
			if len(gs) != len(ws) {
				t.Fatalf("%s join %d: %d results, want %d (software baseline)", phase, i, len(gs), len(ws))
			}
			for k := range ws {
				if gs[k] != ws[k] {
					t.Fatalf("%s join %d: result %d = %v, want %v", phase, i, k, gs[k], ws[k])
				}
			}
		}
	}

	joinUntil("faulted", 1000, func() bool { return faulted.Stats.BreakerOpenSkips > 0 })
	if faulted.Stats.SentinelDisagreements == 0 {
		t.Error("expected sentinel disagreements under a lying filter")
	}
	if faulted.Stats.BreakerTrips == 0 {
		t.Error("breaker never tripped under a lying filter")
	}
	if faulted.Stats.BreakerOpenSkips == 0 {
		t.Error("no pairs were routed to software by the open breaker")
	}

	// Recovery: disarm the fault and keep querying. Each cooldown expiry
	// admits one probe under forced verification; with the filter honest
	// again the probe closes the breaker and the hardware path resumes.
	inj.Disarm(faultinject.SiteHWFilter)
	joinUntil("recovery", 1000, func() bool { return br.State() == core.BreakerClosed })
	if br.State() != core.BreakerClosed {
		t.Fatalf("breaker did not recover after fault removal: state %v", br.State())
	}
	if faulted.Stats.BreakerRecoveries == 0 {
		t.Error("recovery not counted")
	}

	// With the breaker closed and the filter honest, the hardware path is
	// genuinely back: fresh joins must record hardware verdicts again and
	// still match the baseline.
	faulted.ResetStats()
	joinUntil("post-recovery", 1000, func() bool { return faulted.Stats.HWRejects+faulted.Stats.HWPassed > 0 })
	if faulted.Stats.HWRejects+faulted.Stats.HWPassed == 0 {
		t.Error("hardware filter not active after recovery")
	}
}

// TestBreakerSharedAcrossParallelWorkers: one worker's sentinel
// disagreement degrades the whole parallel join — every worker consults
// the same layer-pair breaker — and the result stays bit-identical to the
// software baseline.
func TestBreakerSharedAcrossParallelWorkers(t *testing.T) {
	a, b := freshLayers()
	want := pairSet(mustJoin(t, a, b))

	inj := faultinject.New(13).Inject(faultinject.SiteHWFilter, faultinject.KindWrongAnswer, 1)
	shortBreaker(a, b)
	got, stats, err := pooledJoin(a, b, JoinOptions{
		Workers:   4,
		BatchSize: 16,
		Tester: func() *core.Tester {
			return core.NewTester(core.Config{SWThreshold: 0, SentinelEvery: 1, Faults: inj})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parallel faulted join: %d results, want %d", len(got), len(want))
	}
	for _, pr := range got {
		if !want[pr] {
			t.Fatalf("parallel faulted join produced spurious pair %v", pr)
		}
	}
	if stats.BreakerTrips == 0 {
		t.Error("shared breaker never tripped")
	}
	if stats.SentinelChecks == 0 {
		t.Error("no sentinel checks recorded in summed worker stats")
	}
}

func mustJoin(t *testing.T, a, b *Layer) []Pair {
	t.Helper()
	sw := core.NewTester(core.Config{DisableHardware: true})
	want, _, err := IntersectionJoinView(bg, a.View(), b.View(), sw, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestDeadlineErrorCause: a context governed by a wall-clock budget via
// context.WithTimeoutCause surfaces the typed *DeadlineError through the
// PartialError chain while still matching context.DeadlineExceeded.
func TestDeadlineErrorCause(t *testing.T) {
	budget := time.Nanosecond
	ctx, cancel := context.WithTimeoutCause(bg, 0, &DeadlineError{Budget: budget})
	defer cancel()
	<-ctx.Done()

	tester := core.NewTester(core.Config{DisableHardware: true})
	_, _, err := IntersectionJoinView(ctx, layerA.View(), layerB.View(), tester, JoinOptions{})
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("expired-budget join error = %v, want *PartialError", err)
	}
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("PartialError chain %v does not carry *DeadlineError", err)
	}
	if de.Budget != budget {
		t.Errorf("DeadlineError budget = %v, want %v", de.Budget, budget)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("DeadlineError chain must still match context.DeadlineExceeded")
	}
}
