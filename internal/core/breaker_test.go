package core

import (
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/geom"
)

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker(3)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("new breaker state = %v, want closed", got)
	}
	if useHW, probe := b.Allow(); !useHW || probe {
		t.Fatalf("closed Allow = (%v,%v), want (true,false)", useHW, probe)
	}

	if !b.Trip() {
		t.Fatal("first Trip should report the transition")
	}
	if b.Trip() {
		t.Fatal("second Trip on an open breaker should be a no-op")
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after trip = %v, want open", got)
	}

	// The first cooldown-1 denials stay open; the cooldown-th flips to
	// half-open and the same call claims the probe.
	for i := 0; i < 2; i++ {
		if useHW, _ := b.Allow(); useHW {
			t.Fatalf("Allow %d during cooldown granted hardware", i)
		}
	}
	useHW, probe := b.Allow()
	if !useHW || !probe {
		t.Fatalf("post-cooldown Allow = (%v,%v), want probe grant", useHW, probe)
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("probing state reported as %v, want half-open", got)
	}
	// While the probe is outstanding nobody else gets hardware.
	if useHW, probe := b.Allow(); useHW || probe {
		t.Fatalf("concurrent Allow during probe = (%v,%v), want (false,false)", useHW, probe)
	}

	// Abort hands the probe back; the next Allow re-claims it.
	b.ProbeAbort()
	if useHW, probe := b.Allow(); !useHW || !probe {
		t.Fatalf("Allow after abort = (%v,%v), want probe grant", useHW, probe)
	}
	if !b.ProbeSuccess() {
		t.Fatal("ProbeSuccess should close the probing breaker")
	}
	if b.ProbeSuccess() {
		t.Fatal("ProbeSuccess on a closed breaker should be a no-op")
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after recovery = %v, want closed", got)
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if useHW, probe := b.Allow(); !useHW || probe {
		t.Fatalf("nil Allow = (%v,%v), want (true,false)", useHW, probe)
	}
	if b.Trip() {
		t.Fatal("nil Trip should report false")
	}
	if b.ProbeSuccess() {
		t.Fatal("nil ProbeSuccess should report false")
	}
	b.ProbeAbort() // must not panic
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("nil State = %v, want closed", got)
	}
}

func TestBreakerConcurrentProbeClaim(t *testing.T) {
	b := NewBreaker(1)
	b.Trip()
	const workers = 16
	var wg sync.WaitGroup
	probes := make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, probe := b.Allow(); probe {
				probes <- struct{}{}
			}
		}()
	}
	wg.Wait()
	close(probes)
	var claimed int
	for range probes {
		claimed++
	}
	if claimed != 1 {
		t.Fatalf("probe claimed by %d workers, want exactly 1", claimed)
	}
}

// TestSentinelTripsAndRecovers drives the full degradation loop through
// the Tester itself: a wrong-answer fault at the hardware filter flips
// negatives, the sentinel catches a flipped negative within SentinelEvery
// pairs, the breaker opens and routes pairs to exact software, and after
// the fault is disarmed the half-open probe restores the hardware filter.
func TestSentinelTripsAndRecovers(t *testing.T) {
	// Crossing rectangles: boundaries intersect but neither holds a vertex
	// of the other, so the point-in-polygon step cannot resolve the pair
	// and the verdict rests on the hardware filter. With the wrong-answer
	// fault at rate 1 the filter's true "overlap" verdict is flipped to a
	// false reject, which only the sentinel can catch. An L-shape and a
	// box in its notch provide a MBR-overlapping but truly disjoint pair
	// for the open-breaker phase. SWThreshold 0 sends everything to
	// hardware regardless of vertex count.
	horiz := rect(0, 4, 10, 6)
	vert := rect(4, 0, 6, 10)
	ell := geom.MustPolygon(
		geom.Point{X: 0, Y: 0}, geom.Point{X: 10, Y: 0},
		geom.Point{X: 10, Y: 2}, geom.Point{X: 2, Y: 2},
		geom.Point{X: 2, Y: 10}, geom.Point{X: 0, Y: 10},
	)
	notchBox := rect(5, 5, 8, 8)

	inj := faultinject.New(7)
	inj.Inject(faultinject.SiteHWFilter, faultinject.KindWrongAnswer, 1)
	tester := NewTester(Config{
		SWThreshold:   0,
		SentinelEvery: 1, // verify every negative: the first flip must be caught
		Faults:        inj,
	})
	br := NewBreaker(4)
	pc := PairContext{Breaker: br}

	if !tester.IntersectsCtx(horiz, vert, pc) {
		t.Fatal("sentinel failed to overturn the lying filter on an intersecting pair")
	}
	if tester.Stats.SentinelDisagreements == 0 {
		t.Fatal("expected a sentinel disagreement")
	}
	if br.State() != BreakerOpen {
		t.Fatalf("breaker state = %v, want open after disagreement", br.State())
	}
	if tester.Stats.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", tester.Stats.BreakerTrips)
	}

	// While open, pairs route through software and stay exact.
	skips0 := tester.Stats.BreakerOpenSkips
	if tester.IntersectsCtx(ell, notchBox, pc) {
		t.Fatal("disjoint pair reported intersecting while breaker open")
	}
	if tester.Stats.BreakerOpenSkips != skips0+1 {
		t.Fatalf("BreakerOpenSkips = %d, want %d", tester.Stats.BreakerOpenSkips, skips0+1)
	}

	// Disarm the fault; after the cooldown a probe runs under forced
	// verification and closes the breaker.
	inj.Disarm(faultinject.SiteHWFilter)
	for i := 0; i < 16 && br.State() != BreakerClosed; i++ {
		tester.IntersectsCtx(horiz, vert, pc)
	}
	if br.State() != BreakerClosed {
		t.Fatalf("breaker did not recover after fault removal: state = %v", br.State())
	}
	if tester.Stats.BreakerRecoveries == 0 {
		t.Fatal("expected a counted breaker recovery")
	}

	// Partition invariant still holds with the new bucket.
	s := tester.Stats
	sum := s.MBRRejects + s.PIPHits + s.SigRejects + s.SWDirect + s.HWRejects + s.HWPassed + s.HWFallbacks + s.BreakerOpenSkips
	if s.Tests != sum {
		t.Fatalf("stats partition broken: Tests=%d sum=%d (%+v)", s.Tests, sum, s)
	}
}

// rect builds an axis-aligned rectangle polygon.
func rect(x0, y0, x1, y1 float64) *geom.Polygon {
	return geom.MustPolygon(
		geom.Point{X: x0, Y: y0},
		geom.Point{X: x1, Y: y0},
		geom.Point{X: x1, Y: y1},
		geom.Point{X: x0, Y: y1},
	)
}
