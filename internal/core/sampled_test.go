package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/faultinject"
	"repro/internal/geom"
)

// densify subdivides every edge of p into k pieces: the same region with
// k times the vertices, so small test shapes clear DefaultSWThreshold.
func densify(p *geom.Polygon, k int) *geom.Polygon {
	var pts []geom.Point
	n := len(p.Verts)
	for i, a := range p.Verts {
		b := p.Verts[(i+1)%n]
		for j := range k {
			f := float64(j) / float64(k)
			pts = append(pts, geom.Pt(a.X+f*(b.X-a.X), a.Y+f*(b.Y-a.Y)))
		}
	}
	return geom.MustPolygon(pts...)
}

// Test shapes above the threshold (each pair has more than 500 vertices):
// two triangles whose hypotenuses run parallel 2.8 apart, which the card
// rejects; two crossing bars, which it passes; an L and a box in its
// notch, whose MBR overlap holds no edge of the L.
var (
	nearTri  = densify(geom.MustPolygon(geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 10)), 90)
	farTri   = densify(geom.MustPolygon(geom.Pt(10, 10), geom.Pt(4, 10), geom.Pt(10, 4)), 90)
	horizBar = densify(rect(0, 4, 10, 6), 70)
	vertBar  = densify(rect(4, 0, 6, 10), 70)
	ell      = densify(geom.MustPolygon(geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 2), geom.Pt(2, 2), geom.Pt(2, 10), geom.Pt(0, 10)), 50)
	notchBox = densify(rect(5, 5, 8, 8), 70)
)

// card counts the pairs that ran the card (or tried to: a width fallback
// is decided after the dispatch).
func card(s Stats) int64 { return s.HWRejects + s.HWPassed + s.HWFallbacks }

// TestSampledDispatch: under the sampled dispatch a pair of at most
// DefaultSWThreshold vertices goes to software without moving the sample,
// and of the larger pairs exactly every cardSample-th runs the card —
// counted on the layer pair's breaker, across testers — where the fixed
// threshold, and the sampled dispatch without a breaker, run the card on
// every one. Every verdict is the software test's.
func TestSampledDispatch(t *testing.T) {
	const rounds = 320 // 640 pairs above the threshold, 320 below
	sw := NewTester(Config{DisableHardware: true})
	smallH, smallV := rect(0, 4, 10, 6), rect(4, 0, 6, 10) // crossing bars, 8 vertices
	for _, tc := range []struct {
		name    string
		cfg     Config
		breaker *Breaker
		card    int64
	}{
		{"fixed", Config{SWThreshold: DefaultSWThreshold}, NewBreaker(0), 2 * rounds},
		{"sampled without a breaker", Config{SWThreshold: SampledSWThreshold}, nil, 2 * rounds},
		{"sampled", Config{SWThreshold: SampledSWThreshold}, NewBreaker(0), 2 * rounds / cardSample},
	} {
		// Two testers take turns on the layer pair, as a pool's workers do.
		testers := []*Tester{NewTester(tc.cfg), NewTester(tc.cfg)}
		pc := PairContext{Breaker: tc.breaker}
		for i := range rounds {
			tester := testers[i%2]
			if tester.IntersectsCtx(nearTri, farTri, pc) != sw.Intersects(nearTri, farTri) ||
				tester.WithinDistanceCtx(horizBar, vertBar, 0.5, pc) != sw.WithinDistance(horizBar, vertBar, 0.5) ||
				tester.IntersectsCtx(smallH, smallV, pc) != sw.Intersects(smallH, smallV) {
				t.Fatalf("%s: a verdict differs from the software test's", tc.name)
			}
		}
		var s Stats
		s.Add(testers[0].Stats)
		s.Add(testers[1].Stats)
		if card(s) != tc.card || s.SWDirect != 3*rounds-tc.card || s.Tests != partitionSum(s) {
			t.Errorf("%s: card ran on %d pairs, %d went straight to software; want %d and %d (%+v)",
				tc.name, card(s), s.SWDirect, tc.card, 3*rounds-tc.card, s)
		}
	}
}

// TestSampleRoutesBeforeBreaker: a pair the sampled dispatch sends to
// software never calls Allow, so an open breaker's cooldown does not
// advance and a half-open breaker's probe stays unclaimed; the sampled
// pair asks the breaker like any card pair, and here claims the probe and
// closes it.
func TestSampleRoutesBeforeBreaker(t *testing.T) {
	tester := NewTester(Config{SWThreshold: SampledSWThreshold})
	b := NewBreaker(3)
	pc := PairContext{Breaker: b}
	b.Trip()
	for range cardSample - 1 { // pairs 1..31: software
		if tester.IntersectsCtx(nearTri, farTri, pc) {
			t.Fatal("disjoint pair reported intersecting")
		}
	}
	if s := tester.Stats; s.SWDirect != cardSample-1 || s.BreakerOpenSkips != 0 || b.denied.Load() != 0 || b.State() != BreakerOpen {
		t.Fatalf("software-routed pairs touched the open breaker: denied %d, state %v, stats %+v", b.denied.Load(), b.State(), s)
	}
	tester.IntersectsCtx(nearTri, farTri, pc) // pair 32: the sample, denied
	if s := tester.Stats; s.BreakerOpenSkips != 1 || b.denied.Load() != 1 {
		t.Fatalf("sampled pair did not ask the open breaker: denied %d, stats %+v", b.denied.Load(), s)
	}

	b.state.Store(int32(BreakerHalfOpen))
	for range cardSample - 1 { // pairs 33..63: software
		tester.IntersectsCtx(nearTri, farTri, pc)
	}
	if b.State() != BreakerHalfOpen || b.state.Load() == int32(breakerProbing) || tester.Stats.BreakerRecoveries != 0 {
		t.Fatalf("software-routed pairs claimed the half-open probe: state %v, stats %+v", b.State(), tester.Stats)
	}
	tester.IntersectsCtx(nearTri, farTri, pc) // pair 64: the sample
	if b.State() != BreakerClosed || tester.Stats.BreakerRecoveries != 1 || tester.Stats.SentinelChecks != 1 {
		t.Fatalf("sampled pair did not probe the breaker: state %v, stats %+v", b.State(), tester.Stats)
	}
}

// TestSampledConcurrent shares one short-cooldown Breaker among eight
// goroutines, each with its own sampled tester over a card that lies on
// every verdict and a sentinel that checks every negative. Under -race
// every verdict must still be the software test's, exactly one pair in
// cardSample must reach the card side whatever the breaker's state, the
// breaker must trip, and each tester's partition must hold.
func TestSampledConcurrent(t *testing.T) {
	const workers, rounds = 8, 64
	inj := faultinject.New(7).Inject(faultinject.SiteHWFilter, faultinject.KindWrongAnswer, 1)
	b := NewBreaker(4)
	pairs := [][2]*geom.Polygon{{nearTri, farTri}, {horizBar, vertBar}, {ell, notchBox}}
	sw := NewTester(Config{DisableHardware: true})
	want := make([]bool, len(pairs))
	for i, pq := range pairs {
		want[i] = sw.Intersects(pq[0], pq[1])
	}
	testers := make([]*Tester, workers)
	var wg sync.WaitGroup
	for w := range testers {
		tester := NewTester(Config{SWThreshold: SampledSWThreshold, SentinelEvery: 1, Faults: inj})
		testers[w] = tester
		wg.Add(1)
		go func() {
			defer wg.Done()
			pc := PairContext{Breaker: b}
			for range rounds {
				for i, pq := range pairs {
					if tester.IntersectsCtx(pq[0], pq[1], pc) != want[i] {
						t.Error("sampled tester gave a wrong verdict under a lying card")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	var sum Stats
	for w, tester := range testers {
		if s := tester.Stats; s.Tests != partitionSum(s) {
			t.Errorf("tester %d: partition broken: %+v", w, s)
		}
		sum.Add(tester.Stats)
	}
	total := int64(workers * len(pairs) * rounds)
	if got := sum.HWRejects + sum.HWPassed + sum.BreakerOpenSkips; got != total/cardSample || sum.SWDirect != total-got {
		t.Errorf("%d of %d pairs on the card side, %d direct; want %d sampled (%+v)", got, total, sum.SWDirect, total/cardSample, sum)
	}
	if sum.BreakerTrips == 0 {
		t.Error("a card lying on every verdict never tripped the shared breaker")
	}
}

// partitionSum is the resolution partition: every test is decided by
// exactly one of these.
func partitionSum(s Stats) int64 {
	return s.MBRRejects + s.IntervalTrueHits + s.IntervalRejects + s.PIPHits + s.SigRejects +
		s.SWDirect + s.HWRejects + s.HWPassed + s.HWFallbacks + s.BreakerOpenSkips
}

// TestSampledDispatchDifferential runs every pair of LANDC⋈LANDO 0.01 and
// WATER⋈PRISM 0.02, for intersection and within d ∈ {0, BaseD}, through
// the fixed-threshold tester and the sampled tester. The verdicts must
// agree pair for pair, both testers' resolution partitions must hold, and
// the sampled tester must send exactly every cardSample-th pair the fixed
// tester carded to the card (some, over the whole run).
func TestSampledDispatchDifferential(t *testing.T) {
	var sampledCard int64
	for _, set := range []struct{ a, b *data.Dataset }{
		{data.MustLoad("LANDC", 0.01), data.MustLoad("LANDO", 0.01)},
		{data.MustLoad("WATER", 0.02), data.MustLoad("PRISM", 0.02)},
	} {
		baseD := data.BaseD(set.a, set.b)
		for _, pred := range []struct {
			within bool
			d      float64
		}{{false, 0}, {true, 0}, {true, baseD}} {
			name := fmt.Sprintf("%s⋈%s within=%v d=%g", set.a.Name, set.b.Name, pred.within, pred.d)
			fixed := NewTester(Config{SWThreshold: DefaultSWThreshold})
			sampled := NewTester(Config{SWThreshold: SampledSWThreshold})
			pc := PairContext{Breaker: NewBreaker(0)}
			run := func(tester *Tester, p, q *geom.Polygon) bool {
				if pred.within {
					return tester.WithinDistanceCtx(p, q, pred.d, pc)
				}
				return tester.IntersectsCtx(p, q, pc)
			}
			for i, p := range set.a.Objects {
				for j, q := range set.b.Objects {
					if want := run(fixed, p, q); run(sampled, p, q) != want {
						t.Fatalf("%s: pair (%d, %d) verdict differs from the fixed threshold's %v", name, i, j, want)
					}
				}
			}
			f, s := fixed.Stats, sampled.Stats
			for tname, st := range map[string]Stats{"fixed": f, "sampled": s} {
				if st.Tests != partitionSum(st) {
					t.Errorf("%s %s: partition broken: %d tests, %d resolved (%+v)", name, tname, st.Tests, partitionSum(st), st)
				}
			}
			if card(f) == 0 {
				t.Fatalf("%s: no pair above the threshold reached the card; the differential is vacuous", name)
			}
			sampledCard += card(s)
			if want := card(f) / cardSample; card(s) != want || s.SWDirect != f.SWDirect+card(f)-want {
				t.Errorf("%s: sampled tester ran the card on %d of %d eligible pairs, want %d", name, card(s), card(f), want)
			}
		}
	}
	if sampledCard == 0 {
		t.Error("the sampled tester never ran the card; its card path went untested")
	}
}
