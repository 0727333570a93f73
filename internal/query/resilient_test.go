package query

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/geom"
)

// softwareOracle returns the software-only intersection join result, the
// ground truth every degraded configuration must still produce.
func softwareOracle(t *testing.T) []Pair {
	t.Helper()
	sw := core.NewTester(core.Config{DisableHardware: true})
	want, _, err := IntersectionJoinView(bg, layerA.View(), layerB.View(), sw, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func pairSet(pairs []Pair) map[Pair]bool {
	m := make(map[Pair]bool, len(pairs))
	for _, pr := range pairs {
		m[pr] = true
	}
	return m
}

// checkNoGoroutineLeak polls until the goroutine count returns to the
// baseline (the runtime needs a moment to reap exiting goroutines).
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d at start, %d after join", before, runtime.NumGoroutine())
}

// TestParallelJoinCancellation exercises mid-join cancellation: with every
// refinement slowed by an injected delay, cancelling the context must
// return promptly (long before the remaining work), leak no goroutines,
// and report partial progress through a typed *PartialError.
func TestParallelJoinCancellation(t *testing.T) {
	want := pairSet(softwareOracle(t))
	for _, f := range execForms {
		inj := faultinject.New(3).
			Inject(faultinject.SiteIntersects, faultinject.KindDelay, 1).
			SetDelay(2 * time.Millisecond)
		ctx, cancel := context.WithCancel(bg)
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		before := runtime.NumGoroutine()
		start := time.Now()
		got, stats, err := f.join(ctx, core.Config{DisableHardware: true, Faults: inj}, JoinOptions{BatchSize: 2})
		elapsed := time.Since(start)
		checkNoGoroutineLeak(t, before)

		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v, want *PartialError", f.name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err does not unwrap to context.Canceled: %v", f.name, err)
		}
		if pe.Done >= pe.Total {
			t.Errorf("%s: PartialError reports full completion: %d/%d", f.name, pe.Done, pe.Total)
		}
		// The whole join would take at least Total×2ms/4 workers; prompt
		// cancellation must beat that by a wide margin. The bound is loose
		// for CI noise.
		if budget := time.Duration(pe.Total) * time.Millisecond / 2; elapsed > budget {
			t.Errorf("%s: cancellation took %v, full join would be ~%v", f.name, elapsed, budget)
		}
		if stats.Tests == 0 {
			t.Errorf("%s: no partial stats returned", f.name)
		}
		// Partial results must still be sound: every returned pair is a real
		// software-verified intersection.
		for _, pr := range got {
			if !want[pr] {
				t.Errorf("%s: partial result %v is not in the software result set", f.name, pr)
			}
		}
	}
}

// TestSerialCancellation covers every query type on the calling
// goroutine: an already-cancelled context stops each at its next check
// with a typed partial error, returning whatever was computed.
func TestSerialCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	sw := core.NewTester(core.Config{DisableHardware: true})

	q := layerB.Data.Objects[0]
	_, _, err := IntersectionSelect(ctx, layerA, q, sw, SelectionOptions{InteriorLevel: -1})
	var pe *PartialError
	if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
		t.Errorf("select: err = %v, want PartialError wrapping Canceled", err)
	}

	_, _, err = IntersectionJoinView(ctx, layerA.View(), layerB.View(), sw, JoinOptions{})
	if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
		t.Errorf("join: err = %v, want PartialError wrapping Canceled", err)
	}

	_, _, err = WithinDistanceJoinView(ctx, layerA.View(), layerB.View(), 1, sw, JoinOptions{})
	if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
		t.Errorf("within-join: err = %v, want PartialError wrapping Canceled", err)
	}

	_, _, err = OverlayAreaJoin(ctx, layerA, layerB, sw)
	if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
		t.Errorf("overlay-join: err = %v, want PartialError wrapping Canceled", err)
	}

	knn, err := KNearest(ctx, layerA, q, 5)
	if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
		t.Errorf("knn: err = %v, want PartialError wrapping Canceled", err)
	}
	if len(knn) >= 5 {
		t.Errorf("cancelled knn returned a full result set (%d)", len(knn))
	}
}

// TestCandidateBudget checks the fail-fast resource guard: a join whose
// MBR filtering overflows the budget aborts with a typed *BudgetError
// before any refinement work.
func TestCandidateBudget(t *testing.T) {
	sw := core.NewTester(core.Config{DisableHardware: true})

	pairs, cost, err := IntersectionJoinView(bg, layerA.View(), layerB.View(), sw, JoinOptions{MaxCandidates: 1})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if be.Budget != 1 || be.Candidates <= be.Budget {
		t.Errorf("BudgetError fields: %+v", be)
	}
	if pairs != nil {
		t.Error("budget-tripped join returned results")
	}
	if cost.Compared != 0 {
		t.Errorf("budget-tripped join did refinement work: %+v", cost)
	}
	if sw.Stats.Tests != 0 {
		t.Errorf("budget-tripped join ran %d pair tests", sw.Stats.Tests)
	}

	pairs, st, err := PipelineIntersectionJoinView(bg, layerA.View(), layerB.View(), JoinOptions{MaxCandidates: 1})
	if !errors.As(err, &be) || pairs != nil || st.Tests != 0 {
		t.Errorf("pooled join: err = %v with %d pairs after %d tests, want a bare *BudgetError", err, len(pairs), st.Tests)
	}

	q := layerB.Data.Objects[0]
	_, _, err = IntersectionSelect(bg, layerA, q, sw, SelectionOptions{InteriorLevel: -1, MaxCandidates: 1})
	if !errors.As(err, &be) {
		t.Errorf("select: err = %v, want *BudgetError", err)
	}

	// One outer object whose probe alone has more mates than the budget.
	_, cost, err = IntersectionJoinView(bg, cover.View(), crowd.View(), sw, JoinOptions{MaxCandidates: 100})
	if !errors.As(err, &be) || be.Candidates != 101 || cost.Candidates != 100 || sw.Stats.Tests != 0 {
		t.Errorf("one-outer probe: err = %v, %d candidates, %d tests; want a *BudgetError at 101 of 100 with no test",
			err, cost.Candidates, sw.Stats.Tests)
	}

	// A budget above the candidate count changes nothing.
	got, _, err := IntersectionJoinView(bg, layerA.View(), layerB.View(), sw, JoinOptions{MaxCandidates: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairSet(got)) != len(pairSet(softwareOracle(t))) {
		t.Error("generous budget changed the result set")
	}
}

// TestAcceptanceFaultedJoinUnderDeadline is the issue's acceptance
// scenario: an intersection join with per-pair fault injection (panics
// and delays) running under a cancellable context.
//
// Part 1 — faults only: the join completes, recovers every panic onto the
// software path, and produces exactly the software-only result set.
// Part 2 — faults plus a short deadline: the join returns promptly with a
// typed partial error, partial stats, and no goroutine leak.
func TestAcceptanceFaultedJoinUnderDeadline(t *testing.T) {
	want := pairSet(softwareOracle(t))
	newOpt := func(seed int64, delay time.Duration) JoinOptions {
		inj := faultinject.New(seed).
			Inject(faultinject.SiteIntersects, faultinject.KindPanic, 0.3).
			Inject(faultinject.SiteIntersects, faultinject.KindDelay, 0.2).
			Inject(faultinject.SiteRenderDraw, faultinject.KindPanic, 0.02).
			SetDelay(delay)
		return JoinOptions{
			Workers: 4,
			Tester: func() *core.Tester {
				// Hardware path armed, threshold 0: every non-trivial pair
				// exercises the raster hook too.
				return core.NewTester(core.Config{Resolution: 8, SWThreshold: 0, Faults: inj})
			},
		}
	}

	// Part 1: panics and delays, no deadline — exact software results.
	got, stats, err := PipelineIntersectionJoinView(bg, layerA.View(), layerB.View(), newOpt(11, 10*time.Microsecond))
	if err != nil {
		t.Fatalf("faulted join failed: %v", err)
	}
	if stats.Panics == 0 {
		t.Error("fault schedule fired no panics; raise the rate or fix the seed")
	}
	if stats.Quarantined != 0 {
		t.Errorf("%d pairs quarantined; injected faults must not survive the software retry", stats.Quarantined)
	}
	g := pairSet(got)
	if len(g) != len(want) {
		t.Fatalf("faulted join: %d pairs, software oracle %d", len(g), len(want))
	}
	for pr := range want {
		if !g[pr] {
			t.Fatalf("faulted join lost pair %v", pr)
		}
	}

	// Part 2: same fault schedule under a deadline that expires mid-join.
	ctx, cancel := context.WithTimeout(bg, 5*time.Millisecond)
	defer cancel()
	before := runtime.NumGoroutine()
	got, stats, err = PipelineIntersectionJoinView(ctx, layerA.View(), layerB.View(), newOpt(11, 2*time.Millisecond))
	checkNoGoroutineLeak(t, before)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("deadlined join: err = %v, want *PartialError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadlined join: err does not unwrap to DeadlineExceeded: %v", err)
	}
	if pe.Done >= pe.Total {
		t.Errorf("deadlined join claims completion: %d/%d", pe.Done, pe.Total)
	}
	for _, pr := range got {
		if !want[pr] {
			t.Errorf("partial result %v not in the software result set", pr)
		}
	}
	_ = stats // partial stats: only required to be present, values depend on timing
}

// TestWrongAnswerTrustBoundary documents the hardware-filter trust
// boundary with both flip directions (see internal/faultinject's package
// comment):
//
//   - overlap → "no overlap" silently loses a result: the design trusts
//     conservative rasterization, and nothing cheaper than the software
//     test could catch the lie;
//   - "no overlap" → overlap is absorbed: an inconclusive verdict always
//     goes to the exact software test.
func TestWrongAnswerTrustBoundary(t *testing.T) {
	// Crossing bars: boundaries intersect, neither contains the other's
	// vertices, so the pair reaches the hardware filter.
	horiz := geom.MustPolygon(geom.Pt(0, 4), geom.Pt(10, 4), geom.Pt(10, 6), geom.Pt(0, 6))
	vert := geom.MustPolygon(geom.Pt(4, 0), geom.Pt(6, 0), geom.Pt(6, 10), geom.Pt(4, 10))
	// Disjoint slanted strips with overlapping MBRs and no containment.
	stripLo := geom.MustPolygon(geom.Pt(0, 0), geom.Pt(10, 4), geom.Pt(10, 6), geom.Pt(0, 2))
	stripHi := geom.MustPolygon(geom.Pt(0, 5), geom.Pt(10, 9), geom.Pt(10, 11), geom.Pt(0, 7))

	honest := core.NewTester(core.Config{Resolution: 32, SWThreshold: 0})
	if !honest.Intersects(horiz, vert) {
		t.Fatal("honest hardware: crossing bars must intersect")
	}
	if honest.Intersects(stripLo, stripHi) {
		t.Fatal("honest hardware: disjoint strips must not intersect")
	}

	lying := func() *core.Tester {
		inj := faultinject.New(5).Inject(faultinject.SiteHWFilter, faultinject.KindWrongAnswer, 1)
		return core.NewTester(core.Config{Resolution: 32, SWThreshold: 0, Faults: inj})
	}

	// Direction 1: true overlap flipped to reject — the result is silently
	// lost. This is the trust boundary: a hardware filter that lies in the
	// conservative direction cannot be caught.
	if lying().Intersects(horiz, vert) {
		t.Error("flipped overlap verdict was not trusted; expected the (wrong) reject to stand")
	}

	// Direction 2: reject flipped to inconclusive — absorbed, because
	// inconclusive pairs are always decided by the exact software test.
	if lying().Intersects(stripLo, stripHi) {
		t.Error("flipped reject verdict leaked a false positive past the software test")
	}
}

// TestSelectionRecoversPanickingTester: a selection whose tester panics at
// the entry of every intersection test is retried pair by pair on the
// software path, as a join is, and answers the oracle's ids.
func TestSelectionRecoversPanickingTester(t *testing.T) {
	q := layerB.Data.Objects[0]
	want := oracleSelect(layerA, q)
	if len(want) == 0 {
		t.Fatal("the window selects nothing; generator broken")
	}
	inj := faultinject.New(7).Inject(faultinject.SiteIntersects, faultinject.KindPanic, 1)
	tester := core.NewTester(core.Config{Resolution: 8, Faults: inj})
	got, _, err := IntersectionSelect(bg, layerA, q, tester, SelectionOptions{InteriorLevel: -1})
	if err != nil {
		t.Fatal(err)
	}
	sameIDs(t, "panicking select", got, want)
	if tester.Stats.Panics == 0 || tester.Stats.Quarantined != 0 {
		t.Errorf("Panics/Quarantined = %d/%d, want some/0", tester.Stats.Panics, tester.Stats.Quarantined)
	}
}

// TestFaultedHWSelectStillExact: delays and wrong-answers in the
// *inconclusive* direction never change selection results; the software
// stage remains the decider.
func TestFaultedHWSelectStillExact(t *testing.T) {
	q := layerB.Data.Objects[0]
	sw := core.NewTester(core.Config{DisableHardware: true})
	want, _, err := IntersectionSelect(bg, layerA, q, sw, SelectionOptions{InteriorLevel: -1})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(9).
		Inject(faultinject.SiteIntersects, faultinject.KindDelay, 0.5).
		SetDelay(time.Microsecond)
	faulted := core.NewTester(core.Config{Resolution: 8, SWThreshold: 0, Faults: inj})
	got, _, err := IntersectionSelect(bg, layerA, q, faulted, SelectionOptions{InteriorLevel: -1})
	if err != nil {
		t.Fatal(err)
	}
	sameIDs(t, "delayed select", got, want)
}
