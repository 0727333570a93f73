package core

import (
	"math/rand"
	"testing"

	"repro/internal/edgeindex"
	"repro/internal/geom"
)

// steadyStatePairs builds a pool of polygon pairs spanning the refinement
// paths: MBR rejects, containment hits, software-direct pairs, and pairs
// large enough to take the hardware path.
func steadyStatePairs(rng *rand.Rand) [][2]*geom.Polygon {
	var pairs [][2]*geom.Polygon
	for i := range 12 {
		n := 16 + rng.Intn(64)
		if i%3 == 0 {
			n = 300 + rng.Intn(300) // over DefaultSWThreshold combined
		}
		p := star(rng, rng.Float64()*4, rng.Float64()*4, 1+rng.Float64()*3, n)
		q := star(rng, rng.Float64()*4, rng.Float64()*4, 1+rng.Float64()*3, 16+rng.Intn(200))
		pairs = append(pairs, [2]*geom.Polygon{p, q})
	}
	// A guaranteed MBR reject.
	pairs = append(pairs, [2]*geom.Polygon{
		star(rng, 0, 0, 1, 32), star(rng, 100, 100, 1, 32),
	})
	return pairs
}

// TestIntersectsSteadyStateAllocFree pins the hot-path allocation contract:
// after warm-up (scratch buffers grown, sweeper storage sized), repeated
// Intersects calls perform zero allocations — with and without edge
// indexes in the PairContext.
func TestIntersectsSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pairs := steadyStatePairs(rng)
	tester := NewTester(Config{Resolution: 8, SWThreshold: DefaultSWThreshold})
	indexes := make([][2]*edgeindex.Index, len(pairs))
	for i, pr := range pairs {
		indexes[i] = [2]*edgeindex.Index{edgeindex.New(pr[0]), edgeindex.New(pr[1])}
	}

	run := func() {
		for i, pr := range pairs {
			tester.Intersects(pr[0], pr[1])
			tester.IntersectsCtx(pr[0], pr[1], PairContext{PIndex: indexes[i][0], QIndex: indexes[i][1]})
		}
	}
	run() // warm-up: grow every scratch buffer once
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("steady-state Intersects allocates %.1f times per round, want 0", allocs)
	}
}

// TestWithinDistanceSteadyStateAllocFree is the same contract for the
// distance test, covering the software minDist path and the widened-edge
// hardware path.
func TestWithinDistanceSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pairs := steadyStatePairs(rng)
	tester := NewTester(Config{Resolution: 8, SWThreshold: DefaultSWThreshold})
	indexes := make([][2]*edgeindex.Index, len(pairs))
	for i, pr := range pairs {
		indexes[i] = [2]*edgeindex.Index{edgeindex.New(pr[0]), edgeindex.New(pr[1])}
	}

	run := func() {
		for i, pr := range pairs {
			tester.WithinDistance(pr[0], pr[1], 0.5)
			tester.WithinDistanceCtx(pr[0], pr[1], 0.5, PairContext{PIndex: indexes[i][0], QIndex: indexes[i][1]})
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("steady-state WithinDistance allocates %.1f times per round, want 0", allocs)
	}
}

// TestSpannedIntersectsAllocFree is the same contract over the bench
// pairs that carry spans and reach refinement: the interval verdict and
// the distance kernel on the layers' edge indexes, or the card, reuse the
// tester's scratch.
func TestSpannedIntersectsAllocFree(t *testing.T) {
	var pairs []spannedPair
	probe := NewTester(Config{DisableHardware: true})
	for _, sp := range benchSpannedPairs(t) {
		if probe.FilterIntersects(sp.p, sp.q, sp.pc) == VerdictUndecided {
			pairs = append(pairs, sp)
		}
	}
	if len(pairs) == 0 {
		t.Fatal("no bench pair reaches refinement")
	}
	for _, cfg := range []Config{{DisableHardware: true}, {SWThreshold: DefaultSWThreshold}} {
		tester := NewTester(cfg)
		run := func() {
			for _, sp := range pairs {
				tester.IntersectsCtx(sp.p, sp.q, sp.pc)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
			t.Errorf("%+v: Intersects allocates %.1f times per round of %d spanned pairs, want 0", cfg, allocs, len(pairs))
		}
	}
}

// TestSignatureFilterAllocFree is the same contract for the filter stage
// over the within_single candidates, whose PairContexts carry persisted
// signatures: the containment probe and the signature kernel, at d = 0
// and at the bench's D, allocate nothing.
func TestSignatureFilterAllocFree(t *testing.T) {
	pairs := benchPairs(t, benchD)
	tester := NewTester(Config{DisableHardware: true})
	run := func() {
		for _, pr := range pairs {
			tester.FilterWithin(pr.p, pr.q, benchD, pr.pc)
			tester.FilterIntersects(pr.p, pr.q, pr.pc)
		}
	}
	run()
	if tester.Stats.SigChecks == 0 {
		t.Fatal("no bench pair reached the signature kernel")
	}
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Errorf("filtering %d signed pairs allocates %.1f times per round, want 0", len(pairs), allocs)
	}
}
