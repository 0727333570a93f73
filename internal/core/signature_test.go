package core

import (
	"math/rand"
	"testing"

	"repro/internal/raster"
)

// TestSignatureFilterDifferential is the tentpole's differential test:
// refinement with persisted signatures in the PairContext must produce
// bit-identical verdicts to refinement without them, for intersection and
// within-distance alike — the signature filter may only reject pairs the
// exact test would reject too. The run must also demonstrate actual
// filtering power (SigRejects > 0), or the test proves nothing.
func TestSignatureFilterDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	plain := NewTester(Config{SWThreshold: DefaultSWThreshold})
	signed := NewTester(Config{SWThreshold: DefaultSWThreshold})

	for trial := 0; trial < 300; trial++ {
		p := star(rng, 40+rng.Float64()*40, 40+rng.Float64()*40, 4+rng.Float64()*22, 4+rng.Intn(60))
		q := star(rng, 40+rng.Float64()*40, 40+rng.Float64()*40, 4+rng.Float64()*22, 4+rng.Intn(60))
		ps := raster.ComputeSignature(p, raster.DefaultSignatureRes)
		qs := raster.ComputeSignature(q, raster.DefaultSignatureRes)
		pc := PairContext{PSig: &ps, QSig: &qs}

		if got, want := signed.IntersectsCtx(p, q, pc), plain.Intersects(p, q); got != want {
			t.Fatalf("trial %d: Intersects with signatures %v, without %v", trial, got, want)
		}
		for _, d := range []float64{0.5, 2, 8} {
			if got, want := signed.WithinDistanceCtx(p, q, d, pc), plain.WithinDistance(p, q, d); got != want {
				t.Fatalf("trial %d d=%g: WithinDistance with signatures %v, without %v", trial, d, got, want)
			}
		}
	}
	if signed.Stats.SigChecks == 0 {
		t.Fatal("signatures were never consulted")
	}
	if signed.Stats.SigRejects == 0 {
		t.Fatal("signatures never rejected a pair — no filtering power demonstrated")
	}
	if plain.Stats.SigChecks != 0 {
		t.Fatalf("plain tester consulted signatures: %+v", plain.Stats)
	}

	// Partition invariant with the new bucket.
	s := signed.Stats
	if sum := partitionSum(s); s.Tests != sum {
		t.Fatalf("stats partition broken: Tests=%d sum=%d (%+v)", s.Tests, sum, s)
	}
	t.Logf("signature stats: %d checks, %d rejects over %d tests", s.SigChecks, s.SigRejects, s.Tests)
}

// TestSignatureMismatchIgnored pins the PairContext safety rule: a
// signature whose bounds do not match the tested polygon is ignored, not
// trusted.
func TestSignatureMismatchIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := star(rng, 30, 30, 10, 40)
	q := star(rng, 70, 70, 10, 40)
	other := star(rng, 200, 200, 5, 40)
	ps := raster.ComputeSignature(p, 16)
	wrong := raster.ComputeSignature(other, 16)
	tester := NewTester(Config{})
	// A far-away object's signature would "prove" disjointness for any
	// pair; with the bounds check it must simply not be consulted.
	tester.IntersectsCtx(p, q, PairContext{PSig: &ps, QSig: &wrong})
	if tester.Stats.SigChecks != 0 {
		t.Fatalf("mismatched signature was consulted: %+v", tester.Stats)
	}
}
