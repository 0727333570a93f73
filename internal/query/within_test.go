package query

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/geom"
	"repro/internal/interval"
)

// benchWithinD is the within_single workload's D (bench/README.md), on
// WATER and PRISM at scale 0.1.
const benchWithinD = 1.0

// withinBenchLayers returns WATER and PRISM at the within_single scale as
// snapshot layers, as the benchmark's server holds them.
func withinBenchLayers(tb testing.TB) (water, prism *Layer) {
	return snapshotLayer(tb, data.MustLoad("WATER", 0.1), false), snapshotLayer(tb, data.MustLoad("PRISM", 0.1), false)
}

// TestWithinBenchCounters pins what the within verb's filter decides on the
// within_single join from snapshots: of the 10 686 candidates the interval
// verdict reports 4 403 within outright — a cell of the order-12 pair grid
// (0.5 units, diagonal 0.71 ≤ D) full or certain in both lists suffices —
// and rejects 4 946, containment decides none, no signature is checked,
// and 1 337 pairs reach the distance kernel. With intervals off the
// signature stage decides as before. Both answer the same pairs.
func TestWithinBenchCounters(t *testing.T) {
	water, prism := withinBenchLayers(t)
	on, st, err := PipelineWithinDistanceJoinView(bg, water.View(), prism.View(), benchWithinD, JoinOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	kernel := st.Tests - st.MBRRejects - st.IntervalTrueHits - st.IntervalRejects - st.PIPHits - st.SigRejects
	got := [6]int64{int64(st.Candidates), st.IntervalTrueHits, st.IntervalRejects, st.PIPHits, st.SigChecks, kernel}
	if want := [6]int64{10686, 4403, 4946, 0, 0, 1337}; got != want {
		t.Errorf("candidates, interval true hits, interval rejects, containment hits, signature checks, kernel pairs = %v, want %v", got, want)
	}
	off, st, err := PipelineWithinDistanceJoinView(bg, water.View(), prism.View(), benchWithinD, JoinOptions{Workers: 2, NoIntervals: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.IntervalChecks != 0 || st.SigChecks != 9554 || st.SigRejects != 4321 || st.PIPHits != 1132 {
		t.Errorf("intervals off: %d interval checks, %d signature checks, %d rejects, %d containment hits; want 0, 9554, 4321, 1132",
			st.IntervalChecks, st.SigChecks, st.SigRejects, st.PIPHits)
	}
	samePairs(t, "intervals on vs off", on, off)
}

// adversarialWithin places pairs whose distances sit exactly on cell
// multiples, off them, on axes and on diagonals at offsets (x, 0) of a
// layer pair whose grid is a 2^11-unit square: squares a whole number of
// units apart on an axis and on a diagonal, touching at a corner, sharing
// an edge, nested, and the staircases of the distance kernel's tests
// (stairs and its complement) apart by fractions of a unit. Every
// coordinate is a small dyadic rational, so distances and cell borders are
// exact.
func adversarialWithin() (a, b []*geom.Polygon) {
	rect := func(x0, y0, x1, y1 float64) *geom.Polygon {
		return geom.MustPolygon(geom.Pt(x0, y0), geom.Pt(x1, y0), geom.Pt(x1, y1), geom.Pt(x0, y1))
	}
	stairs := func(x, y, u float64, n int, dx, dy float64, under bool) *geom.Polygon {
		var pts []geom.Point
		if under {
			x, y = x+dx, y+dy
			pts = append(pts, geom.Pt(x+u, y), geom.Pt(x+float64(n)*u, y))
			for k := n - 1; k > 0; k-- {
				f := float64(k) * u
				pts = append(pts, geom.Pt(x+f+u, y+f), geom.Pt(x+f, y+f))
			}
			return geom.MustPolygon(pts...)
		}
		for k := range n {
			f := float64(k) * u
			pts = append(pts, geom.Pt(x+f, y+f), geom.Pt(x+f+u, y+f))
		}
		top := float64(n) * u
		return geom.MustPolygon(append(pts, geom.Pt(x+top, y+top), geom.Pt(x, y+top))...)
	}
	x := 16.0
	add := func(p, q *geom.Polygon, width float64) {
		a, b = append(a, p), append(b, q)
		x += width + 16
	}
	for _, gap := range []float64{0, 0.5, 1, 1.5, 2, 3, 4, 8, 16} {
		add(rect(x, 16, x+4, 20), rect(x+4+gap, 16, x+8+gap, 20), 8+gap)            // on an axis
		add(rect(x, 16, x+4, 20), rect(x+4+gap, 20+gap, x+8+gap, 24+gap), 8+gap)    // corner to corner
		add(rect(x, 16, x+3, 19), rect(x+3+gap, 19+gap/2, x+6+gap, 22+gap), 6+gap)  // off the diagonal
		add(rect(x, 16.25, x+1, 17), rect(x+1+gap, 16.5, x+1.75+gap, 30), 1.75+gap) // off the cell grid
	}
	add(rect(x, 16, x+32, 48), rect(x+8, 24, x+9, 25), 32) // nested
	add(rect(x, 16, x+32, 48), rect(x+2, 10, x+3, 16), 32) // sharing a border
	// A square on the 8-unit lattice deep inside another: at order 8 it is
	// one cell whose edges lie on the cell's borders, so its list holds no
	// full or certain cell, and only its overlap with the outer square's
	// cover keeps the pair from the reject.
	x = math.Ceil(x/8) * 8
	add(rect(x+24, 40, x+32, 48), rect(x, 16, x+64, 80), 64)
	for _, u := range []float64{1, 0.25, 2} {
		for _, t := range []float64{0, u / 4, u / 2, u, 2 * u} {
			add(stairs(x, 16, u, 12, 0, 0, false), stairs(x, 16, u, 12, t, -t, true), 14*u)
		}
		add(stairs(x, 16, u, 12, 0, 0, false), stairs(x, 16, u, 12, u, 0, true), 14*u) // corners touch
	}
	// A square in the notch of an L, gap units from both arms, in a row of
	// its own: its MBR lies inside the L's, so only the interval reject can
	// keep a pair this far apart from the kernel, at d past MaxDilation
	// cells through the block band; the L is the inner side twice and the
	// outer side twice.
	for i, gap := range []float64{24, 40, 100, 140} {
		x0 := 16 + 500*float64(i)
		l := geom.MustPolygon(geom.Pt(x0, 200), geom.Pt(x0+400, 200), geom.Pt(x0+400, 240), geom.Pt(x0+40, 240),
			geom.Pt(x0+40, 600), geom.Pt(x0, 600))
		sq := rect(x0+40+gap, 240+gap, x0+48+gap, 248+gap)
		if i%2 == 0 {
			l, sq = sq, l
		}
		a, b = append(a, l), append(b, sq)
	}
	return a, b
}

// TestWithinIntervalStageAdversarial runs the within join over
// adversarialWithin with the interval stage on, at grid orders that put
// cell borders on, between and off the pairs' edges and at d on, off and
// below cell multiples, 0, one ulp on each side of the hit band's edges
// (j+1)·cell·√2 for j = 0, 1, 2, and of 8 and 9 cells, where the reject
// band turns to blocks, and compares it with NoIntervals and with brute
// force (dist.MinDistBrute), inline and pooled. Over the family the hit
// band must decide more at each edge than one ulp below it, and the block
// band must reject.
func TestWithinIntervalStageAdversarial(t *testing.T) {
	pa, pb := adversarialWithin()
	la, lb := NewLayer(&data.Dataset{Name: "A", Objects: pa}), NewLayer(&data.Dataset{Name: "B", Objects: pb})
	g, ok := pairGrid(la, lb, 0)
	if !ok || g.Size != 2048 {
		t.Fatalf("pair grid %+v, want a 2048-unit square", g)
	}
	around := func(e float64) []float64 { return []float64{math.Nextafter(e, 0), e, math.Nextafter(e, math.Inf(1))} }
	var rejects, hits, blockRejects int64
	var hitsAt, hitsBelow [3]int64
	for _, order := range []int{8, 10, 11, 12} {
		cell := 2048 / float64(int(1)<<order)
		ds := []float64{0, 0.25, 0.5, 1, 1.5, 2, 3, 4, cell, 2 * cell, cell * interval.MaxDilation, cell*interval.MaxDilation + 0.25, 16}
		for j := range 3 {
			ds = append(ds, around(float64(j+1)*(cell*math.Sqrt2))...)
		}
		ds = append(append(ds, around(8*cell)...), around(9*cell)...)
		for _, d := range ds {
			var want []Pair
			for i := range pa {
				for j := range pb {
					if dist.MinDistBrute(pa[i], pb[j]) <= d {
						want = append(want, Pair{i, j})
					}
				}
			}
			name := fmt.Sprintf("order %d d %v", order, d)
			off, _, err := WithinDistanceJoinView(bg, la.View(), lb.View(), d, swTester(), JoinOptions{IntervalOrder: order, NoIntervals: true})
			if err != nil {
				t.Fatal(err)
			}
			samePairs(t, name+" intervals off", off, want)
			for _, workers := range []int{-1, 2} {
				opt := JoinOptions{IntervalOrder: order, Workers: workers}
				var got []Pair
				var st Stats
				if workers < 0 {
					got, st, err = WithinDistanceJoinView(bg, la.View(), lb.View(), d, swTester(), opt)
				} else {
					got, st, err = PipelineWithinDistanceJoinView(bg, la.View(), lb.View(), d, opt)
				}
				if err != nil {
					t.Fatal(err)
				}
				samePairs(t, fmt.Sprintf("%s workers %d", name, workers), got, want)
				if st.IntervalChecks == 0 || st.SigChecks != 0 {
					t.Fatalf("%s: %d interval checks, %d signature checks", name, st.IntervalChecks, st.SigChecks)
				}
				rejects += st.IntervalRejects
				hits += st.IntervalTrueHits
				if d > cell*interval.MaxDilation {
					blockRejects += st.IntervalRejects
				}
				for j := range 3 {
					switch e := float64(j+1) * (cell * math.Sqrt2); d {
					case e:
						hitsAt[j] += st.IntervalTrueHits
					case math.Nextafter(e, 0):
						hitsBelow[j] += st.IntervalTrueHits
					}
				}
			}
		}
	}
	if rejects == 0 || hits == 0 || blockRejects == 0 {
		t.Fatalf("the stage decided %d rejects (%d past MaxDilation cells) and %d true hits over the family; the test is vacuous",
			rejects, blockRejects, hits)
	}
	for j := range 3 {
		if hitsAt[j] <= hitsBelow[j] {
			t.Errorf("at d = %d·cell·√2 the stage reported %d true hits, one ulp below %d: the hit band for j = %d decided nothing",
				j+1, hitsAt[j], hitsBelow[j], j)
		}
	}
}

// BenchmarkWithinJoin times the within verb's join, pooled on WATER⋈PRISM
// from snapshots at D = 1: one op is one warm join. The first join on the
// layer pair pays the pair-grid builds; first_ms reports it, and
// column_ms and dilate_ms PRISM's order-12 column and its dilated lists
// built alone on fresh layers.
func BenchmarkWithinJoin(b *testing.B) {
	water, prism := withinBenchLayers(b)
	join := func() int {
		pairs, _, err := PipelineWithinDistanceJoinView(bg, water.View(), prism.View(), benchWithinD, JoinOptions{})
		if err != nil {
			b.Fatal(err)
		}
		return len(pairs)
	}
	start := time.Now()
	n := join()
	first := time.Since(start)
	_, fresh := withinBenchLayers(b)
	g, ok := pairGrid(water, fresh, 0)
	if !ok {
		b.Fatal("no pair grid")
	}
	start = time.Now()
	col := fresh.Intervals(g)
	column := time.Since(start)
	start = time.Now()
	col.Dilate(g.RejectDilation(benchWithinD))
	dilate := time.Since(start)
	b.ResetTimer()
	for range b.N {
		if join() != n {
			b.Fatal("result changed between joins")
		}
	}
	b.ReportMetric(float64(first)/1e6, "first_ms")
	b.ReportMetric(float64(column)/1e6, "column_ms")
	b.ReportMetric(float64(dilate)/1e6, "dilate_ms")
}

// servedWithin returns the within_single candidates in the executor's
// order and the predicate the within verb binds for them: pair-grid
// columns, reject band and hit band, edge indexes and signatures as
// bind attaches them.
func servedWithin(tb testing.TB) (predicate, []Pair) {
	water, prism := withinBenchLayers(tb)
	k := withinDistance(benchWithinD)
	pairs, _, err := generate(bg, water.Data.Objects, prism, k, 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return k.bind(water, prism, JoinOptions{}), pairs
}

// BenchmarkWithinRefine times the software tester's RefineWithin over the
// within_single candidates the served filter leaves undecided: the exact
// distance step of every within verb. One op is one pass over those pairs.
func BenchmarkWithinRefine(b *testing.B) {
	p, pairs := servedWithin(b)
	benchRefine(b, swTester(), p, pairs)
}

// benchRefine times t's refine step of p over the pairs its filter
// leaves undecided, one pass an op.
func benchRefine(b *testing.B, t *core.Tester, p predicate, pairs []Pair) {
	var open []Pair
	for _, pr := range pairs {
		if p.filter(t, pr) == core.VerdictUndecided {
			open = append(open, pr)
		}
	}
	pass := func() (hits int) {
		for _, pr := range open {
			if p.refine(t, pr) {
				hits++
			}
		}
		return hits
	}
	hits := pass() // grows the tester's scratch: the timed passes are steady state
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if pass() != hits {
			b.Fatal("verdicts changed between passes")
		}
	}
	b.ReportMetric(float64(len(open)), "pairs/op")
	b.ReportMetric(float64(hits), "hits/op")
}

// BenchmarkWithinFilter times the software tester's FilterWithin over
// every within_single candidate as the within verb binds it: the MBR
// pre-test, the interval verdict with both bands and the containment
// probe. One op is one pass.
func BenchmarkWithinFilter(b *testing.B) {
	p, pairs := servedWithin(b)
	benchFilter(b, swTester(), p, pairs)
}

// benchFilter times t's filter step of p over every pair, one pass an
// op.
func benchFilter(b *testing.B, t *core.Tester, p predicate, pairs []Pair) {
	pass := func() (open int) {
		for _, pr := range pairs {
			if p.filter(t, pr) == core.VerdictUndecided {
				open++
			}
		}
		return open
	}
	before := t.Stats
	open := pass()
	hits, rejects := t.Stats.IntervalTrueHits-before.IntervalTrueHits, t.Stats.IntervalRejects-before.IntervalRejects
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if pass() != open {
			b.Fatal("verdicts changed between passes")
		}
	}
	b.ReportMetric(float64(len(pairs)), "pairs/op")
	b.ReportMetric(float64(hits), "true_hits/op")
	b.ReportMetric(float64(rejects), "rejects/op")
	b.ReportMetric(float64(open), "open/op")
}

// joinBenchLayers returns LANDC and LANDO at the join_single scale as
// snapshot layers, as the benchmark's server holds them.
func joinBenchLayers(tb testing.TB) (landc, lando *Layer) {
	return snapshotLayer(tb, data.MustLoad("LANDC", 0.2), false), snapshotLayer(tb, data.MustLoad("LANDO", 0.2), false)
}

// TestJoinBenchCounters pins what the join verb's filter decides on the
// join_single join from snapshots, where intersection is the within test
// at d = 0: of the 39 106 candidates the interval verdict reports 17 235
// intersecting outright and rejects 15 679, containment decides 551, no
// signature is checked — every pair carries spans — and 5 641 pairs reach
// the distance kernel, which finds 2 890 of them intersecting: 20 676
// results.
func TestJoinBenchCounters(t *testing.T) {
	landc, lando := joinBenchLayers(t)
	pairs, st, err := PipelineIntersectionJoinView(bg, landc.View(), lando.View(), JoinOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	kernel := st.Tests - st.MBRRejects - st.IntervalTrueHits - st.IntervalRejects - st.PIPHits - st.SigRejects
	got := [7]int64{int64(st.Candidates), st.IntervalTrueHits, st.IntervalRejects, st.PIPHits, st.SigChecks, kernel, int64(len(pairs))}
	if want := [7]int64{39106, 17235, 15679, 551, 0, 5641, 20676}; got != want {
		t.Errorf("candidates, interval true hits, interval rejects, containment hits, signature checks, kernel pairs, results = %v, want %v", got, want)
	}
}

// servedJoin returns the join_single candidates in the executor's order
// and the predicate the join verb binds for them: pair-grid columns,
// the reject band at d = 0 (the column itself), edge indexes and
// signatures as bind attaches them.
func servedJoin(tb testing.TB) (predicate, []Pair) {
	landc, lando := joinBenchLayers(tb)
	pairs, _, err := generate(bg, landc.Data.Objects, lando, intersects, 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return intersects.bind(landc, lando, JoinOptions{}), pairs
}

// BenchmarkJoinRefine times the verbs' software-only tester's
// RefineIntersects over the join_single candidates the served filter
// leaves undecided: the distance kernel at d = 0, the exact step of every
// join verb. One op is one pass over those pairs.
func BenchmarkJoinRefine(b *testing.B) {
	p, pairs := servedJoin(b)
	benchRefine(b, core.NewTester(core.Config{DisableHardware: true}), p, pairs)
}

// BenchmarkJoinFilter times the verbs' software-only tester's
// FilterIntersects over every join_single candidate as the join verb
// binds it: the MBR pre-test, the interval verdict and the containment
// probe. One op is one pass.
func BenchmarkJoinFilter(b *testing.B) {
	p, pairs := servedJoin(b)
	benchFilter(b, core.NewTester(core.Config{DisableHardware: true}), p, pairs)
}
