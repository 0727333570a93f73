package core

import (
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/edgeindex"
	"repro/internal/geom"
	"repro/internal/interval"
)

// The exact software intersection test searches only the cells partial in
// both interval lists (sharedCellsIntersect). These tests hold it to the
// soundness argument it rests on — every point where two boundaries cross
// or touch lies in a box interval.SharedPartial yields — and to the
// unnarrowed test, verdict for verdict, on the bench layers and on an
// adversarial family placed on Hilbert cell borders.

// spannedPair is one candidate pair with the PairContext the join executor
// hands the tester: both edge indexes, both span lists and their grid.
type spannedPair struct {
	name string
	p, q *geom.Polygon
	pc   PairContext
}

// benchSpannedPairs returns every MBR-intersecting pair of LANDC⋈LANDO
// 0.01 and WATER⋈PRISM 0.02 with spans on the pair's canonical grid.
func benchSpannedPairs(t *testing.T) []spannedPair {
	t.Helper()
	var out []spannedPair
	for _, set := range []struct{ a, b *data.Dataset }{
		{data.MustLoad("LANDC", 0.01), data.MustLoad("LANDO", 0.01)},
		{data.MustLoad("WATER", 0.02), data.MustLoad("PRISM", 0.02)},
	} {
		all := append(append([]*geom.Polygon(nil), set.a.Objects...), set.b.Objects...)
		g, ok := interval.GridFor(all, 0)
		if !ok {
			t.Fatalf("%s⋈%s: no grid", set.a.Name, set.b.Name)
		}
		ca, cb := interval.Build(set.a.Objects, g), interval.Build(set.b.Objects, g)
		ib := make([]*edgeindex.Index, len(set.b.Objects))
		for j, q := range set.b.Objects {
			ib[j] = edgeindex.New(q)
		}
		for i, p := range set.a.Objects {
			ia := edgeindex.New(p)
			for j, q := range set.b.Objects {
				if !p.Bounds().Intersects(q.Bounds()) {
					continue
				}
				out = append(out, spannedPair{
					name: fmt.Sprintf("%s⋈%s (%d, %d)", set.a.Name, set.b.Name, i, j),
					p:    p, q: q,
					pc: PairContext{PIndex: ia, QIndex: ib[j], PIv: ca.Spans(i), QIv: cb.Spans(j), Grid: g},
				})
			}
		}
	}
	return out
}

// adversarialSpannedPairs lifts rasterize_test.go's adversarial family to
// pairs: shapes given in cell units with edges on cell borders, vertices on
// cell corners, slivers thinner than a cell, paired with each other and
// with copies shifted by a cell, half a cell and nothing (collinear
// overlaps), plus the kernels' staircases — boundaries running a fraction
// of a cell apart, sharing a path, touching at every step corner — on grids
// whose cells are one and a quarter stair unit. Each family runs on a unit
// grid, where integer coordinates are exactly cell borders, and on an
// offset grid of inexact cell size.
func adversarialSpannedPairs(t *testing.T) []spannedPair {
	t.Helper()
	const order = 5
	comb := []geom.Point{{X: 1, Y: 1}, {X: 31, Y: 1}, {X: 31, Y: 30}}
	for x := 29.0; x > 1; x -= 4 {
		comb = append(comb, geom.Pt(x, 30), geom.Pt(x, 3), geom.Pt(x-1.5, 3), geom.Pt(x-1.5, 30))
	}
	comb = append(comb, geom.Pt(1, 30))
	shapes := []struct {
		name  string
		verts []geom.Point
	}{
		{"rect on cell borders", []geom.Point{{X: 2, Y: 2}, {X: 7, Y: 2}, {X: 7, Y: 5}, {X: 2, Y: 5}}},
		{"diamond through cell corners", []geom.Point{{X: 16, Y: 4}, {X: 28, Y: 16}, {X: 16, Y: 28}, {X: 4, Y: 16}}},
		{"L on cell borders", []geom.Point{{X: 1, Y: 1}, {X: 9, Y: 1}, {X: 9, Y: 4}, {X: 4, Y: 4}, {X: 4, Y: 12}, {X: 1, Y: 12}}},
		{"edges on Hilbert quadrant borders", []geom.Point{{X: 8, Y: 8}, {X: 24, Y: 8}, {X: 24, Y: 16}, {X: 16, Y: 16}, {X: 16, Y: 24}, {X: 8, Y: 24}}},
		{"sliver thinner than a cell", []geom.Point{{X: 0.5, Y: 3.4}, {X: 30.5, Y: 3.45}, {X: 30.5, Y: 3.5}}},
		{"one cell exactly", []geom.Point{{X: 5, Y: 5}, {X: 6, Y: 5}, {X: 6, Y: 6}, {X: 5, Y: 6}}},
		{"inside one cell", []geom.Point{{X: 5.25, Y: 5.25}, {X: 5.75, Y: 5.25}, {X: 5.75, Y: 5.75}}},
		{"comb", comb},
	}
	side := float64(int(1) << order)
	grids := []interval.Grid{
		{MinX: -side / 2, MinY: -side / 2, Size: 2 * side, Order: order + 1},
		{MinX: -3.7, MinY: 11.1, Size: 0.3 * side * 2, Order: order + 1},
	}
	shifts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 0.5, Y: 0.5}, {X: 4, Y: 4}}
	var out []spannedPair
	add := func(name string, g interval.Grid, p, q *geom.Polygon) {
		out = append(out, spannedPair{name: name, p: p, q: q, pc: PairContext{
			PIndex: edgeindex.New(p), QIndex: edgeindex.New(q),
			PIv: interval.Rasterize(p, g), QIv: interval.Rasterize(q, g), Grid: g,
		}})
	}
	for gi, g := range grids {
		cs := g.CellSize()
		origin := geom.Pt(g.MinX+side/2*cs, g.MinY+side/2*cs)
		lift := func(verts []geom.Point, d geom.Point) *geom.Polygon {
			out := make([]geom.Point, len(verts))
			for i, v := range verts {
				out[i] = geom.Pt(origin.X+(v.X+d.X)*cs, origin.Y+(v.Y+d.Y)*cs)
			}
			return geom.MustPolygon(out...)
		}
		for _, a := range shapes {
			for _, b := range shapes {
				for _, d := range shifts {
					add(fmt.Sprintf("grid %d: %s / %s shifted %v", gi, a.name, b.name, d), g, lift(a.verts, geom.Point{}), lift(b.verts, d))
				}
			}
		}
	}
	for _, kp := range adversarialPairs() {
		for _, g := range []interval.Grid{
			{MinX: -256, MinY: -256, Size: 512, Order: 9},
			{MinX: -256, MinY: -256, Size: 512, Order: 11},
			{MinX: -201.3, MinY: -187.9, Size: 437.1, Order: 10},
		} {
			add(fmt.Sprintf("%s on %+v", kp.name, g), g, kp.p, kp.q)
		}
	}
	return out
}

// boundaryContacts returns, by brute force over every edge pair, the
// points where the boundaries of p and q cross or touch: each endpoint of
// one edge lying on the other, a proper crossing's intersection point, and
// the midpoint of a collinear overlap.
func boundaryContacts(p, q *geom.Polygon) []geom.Point {
	on := func(v geom.Point, s geom.Segment) bool {
		return geom.Orient(s.A, s.B, v) == geom.Collinear && s.Bounds().ContainsPoint(v)
	}
	var pts []geom.Point
	for i := range p.NumEdges() {
		e := p.Edge(i)
		for j := range q.NumEdges() {
			f := q.Edge(j)
			if !e.Intersects(f) {
				continue
			}
			n := len(pts)
			for _, c := range []struct {
				v geom.Point
				s geom.Segment
			}{{e.A, f}, {e.B, f}, {f.A, e}, {f.B, e}} {
				if on(c.v, c.s) {
					pts = append(pts, c.v)
				}
			}
			switch {
			case len(pts) == n: // a proper crossing
				ex, ey := e.B.X-e.A.X, e.B.Y-e.A.Y
				fx, fy := f.B.X-f.A.X, f.B.Y-f.A.Y
				s := ((f.A.X-e.A.X)*fy - (f.A.Y-e.A.Y)*fx) / (ex*fy - ey*fx)
				pts = append(pts, geom.Pt(e.A.X+s*ex, e.A.Y+s*ey))
			case len(pts)-n >= 2 && geom.Orient(e.A, e.B, f.A) == geom.Collinear && geom.Orient(e.A, e.B, f.B) == geom.Collinear:
				a, b := pts[n], pts[len(pts)-1]
				pts = append(pts, geom.Pt((a.X+b.X)/2, (a.Y+b.Y)/2))
			}
		}
	}
	return pts
}

// checkContactsInBoxes asserts that every boundary contact of the pair
// lies in a box SharedPartial yields, clipped to the MBR intersection — the
// box whose edges sharedCellsIntersect would collect. The window clip is
// exact in the tester; here it gets a relative 1e-9 of a cell for the
// rounding of the brute-force crossing point.
func checkContactsInBoxes(t *testing.T, sp spannedPair) (contacts int) {
	t.Helper()
	window := sp.p.Bounds().Intersection(sp.q.Bounds())
	loose := window.Expand(1e-9 * sp.pc.Grid.CellSize())
	for _, pt := range boundaryContacts(sp.p, sp.q) {
		found := false
		interval.SharedPartial(sp.pc.PIv, sp.pc.QIv, sp.pc.Grid, func(box geom.Rect) bool {
			found = box.ContainsPoint(pt) && loose.ContainsPoint(pt)
			return !found
		})
		if !found {
			t.Fatalf("%s: boundary contact %v lies in no shared partial box", sp.name, pt)
		}
		contacts++
	}
	return contacts
}

func TestNarrowedContactsInSharedBoxes(t *testing.T) {
	for _, family := range []struct {
		name  string
		pairs []spannedPair
	}{{"bench", benchSpannedPairs(t)}, {"adversarial", adversarialSpannedPairs(t)}} {
		checked, contacts := 0, 0
		for _, sp := range family.pairs {
			if len(sp.pc.PIv) == 0 || len(sp.pc.QIv) == 0 || !narrows(sp.pc, sp.p.Bounds().Intersection(sp.q.Bounds())) {
				continue
			}
			// The bench pairs are held to the argument where refinement
			// needs it, on inconclusive verdicts; the adversarial family on
			// every verdict.
			if family.name == "bench" && interval.Compare(sp.pc.PIv, sp.pc.QIv) != interval.Inconclusive {
				continue
			}
			checked++
			contacts += checkContactsInBoxes(t, sp)
		}
		t.Logf("%s: %d pairs, %d boundary contacts, each in a shared partial box", family.name, checked, contacts)
		if checked == 0 || contacts == 0 {
			t.Fatalf("%s: %d pairs and %d contacts checked; the test is vacuous", family.name, checked, contacts)
		}
	}
}

// countersOf is a Stats with what the narrowing may move zeroed: the
// edge-index counters and the timings.
func countersOf(s Stats) Stats {
	s.EdgeIndexHits, s.EdgeIndexSkippedEdges = 0, 0
	s.HWTime, s.SWTime, s.CollectTime = 0, 0, 0
	return s
}

// TestNarrowedMatchesWindowTest runs every candidate through a tester
// whose PairContexts carry the grid and one whose do not (the MBR-window
// test), on the software tester and the fixed-threshold card tester. The
// verdicts must agree pair for pair, the resolution partitions hold, and
// every resolution counter match; only the edge-index counters and the
// timings may differ.
func TestNarrowedMatchesWindowTest(t *testing.T) {
	pairs := append(benchSpannedPairs(t), adversarialSpannedPairs(t)...)
	for _, cfg := range []Config{{DisableHardware: true}, {SWThreshold: DefaultSWThreshold}} {
		narrowed, window := NewTester(cfg), NewTester(cfg)
		hits := 0
		for _, sp := range pairs {
			plain := sp.pc
			plain.Grid = interval.Grid{}
			want := window.IntersectsCtx(sp.p, sp.q, plain)
			if got := narrowed.IntersectsCtx(sp.p, sp.q, sp.pc); got != want {
				t.Fatalf("%+v: %s: narrowed verdict %v, MBR-window verdict %v", cfg, sp.name, got, want)
			}
			if want {
				hits++
			}
		}
		n, w := narrowed.Stats, window.Stats
		for name, st := range map[string]Stats{"narrowed": n, "window": w} {
			if st.Tests != partitionSum(st) {
				t.Errorf("%+v %s: partition broken: %d tests, %d resolved", cfg, name, st.Tests, partitionSum(st))
			}
		}
		if countersOf(n) != countersOf(w) {
			t.Errorf("%+v: resolution counters differ:\nnarrowed %+v\nwindow   %+v", cfg, countersOf(n), countersOf(w))
		}
		t.Logf("%+v: %d pairs, %d hits; edge-index skipped %d narrowed, %d MBR window", cfg, len(pairs), hits, n.EdgeIndexSkippedEdges, w.EdgeIndexSkippedEdges)
	}
}

// TestNarrowedRunCap counts, over the bench and adversarial pairs the
// software test refines, how many the narrowed search decides and how many
// reach maxSharedRuns and fall back; each verdict must be the MBR-window
// test's. A staircase whose path runs a quarter cell from its complement's
// through every step must hit the cap.
func TestNarrowedRunCap(t *testing.T) {
	tester := NewTester(Config{DisableHardware: true})
	decided, capped := 0, 0
	for _, sp := range append(benchSpannedPairs(t), adversarialSpannedPairs(t)...) {
		window := sp.p.Bounds().Intersection(sp.q.Bounds())
		if tester.FilterIntersects(sp.p, sp.q, sp.pc) != VerdictUndecided || !narrows(sp.pc, window) {
			continue
		}
		plain := sp.pc
		plain.Grid = interval.Grid{}
		want := tester.softwareIntersects(sp.p, sp.q, plain)
		hit, ok := tester.sharedCellsIntersect(sp.p, sp.q, window, sp.pc)
		if !ok {
			capped++
			continue
		}
		decided++
		if hit != want {
			t.Fatalf("%s: narrowed search says %v, the MBR-window test %v", sp.name, hit, want)
		}
	}
	t.Logf("narrowed search decided %d pairs, %d reached the %d-run cap", decided, capped, maxSharedRuns)
	if decided == 0 {
		t.Fatal("the narrowed search decided nothing; the test is vacuous")
	}

	g := interval.Grid{MinX: -256, MinY: -256, Size: 512, Order: 9}
	p, q := stairs(0, 0, 1, 48), understairs(0, 0, 1, 48, 0.25, -0.25)
	pc := PairContext{PIv: interval.Rasterize(p, g), QIv: interval.Rasterize(q, g), Grid: g}
	runs := 0
	interval.SharedPartial(pc.PIv, pc.QIv, g, func(geom.Rect) bool { runs++; return true })
	if runs <= maxSharedRuns {
		t.Fatalf("staircase pair shares %d partial runs, want more than %d", runs, maxSharedRuns)
	}
	if hit, ok := tester.sharedCellsIntersect(p, q, p.Bounds().Intersection(q.Bounds()), pc); ok || hit {
		t.Fatalf("staircase pair with %d shared runs: narrowed search returned (%v, %v), want the fallback", runs, hit, ok)
	}
	capStats := NewTester(Config{DisableHardware: true})
	windowStats := NewTester(Config{DisableHardware: true})
	plain := pc
	plain.Grid = interval.Grid{}
	if capStats.softwareIntersects(p, q, pc) || windowStats.softwareIntersects(p, q, plain) {
		t.Fatal("staircase boundaries a quarter unit apart reported intersecting")
	}
	if c, w := capStats.Stats, windowStats.Stats; c.EdgeIndexHits != w.EdgeIndexHits || c.EdgeIndexSkippedEdges != w.EdgeIndexSkippedEdges || c.CollectTime == 0 {
		t.Fatalf("capped pair did not fall back to the MBR-window collection: %+v vs %+v", c, w)
	}
}

// TestNarrowingFallbacks: the MBR-window test runs unchanged without a
// grid, without spans on either side, on an invalid grid, and when the MBR
// intersection reaches off the grid; a pair whose lists share no partial
// run is decided false with nothing collected.
func TestNarrowingFallbacks(t *testing.T) {
	p, q := square(0, 0, 4), square(2, 2, 4)
	g := interval.Grid{MinX: -8, MinY: -8, Size: 32, Order: 5}
	pc := PairContext{PIv: interval.Rasterize(p, g), QIv: interval.Rasterize(q, g), Grid: g}
	window := p.Bounds().Intersection(q.Bounds())
	if !narrows(pc, window) {
		t.Fatal("a pair with spans on a grid covering its MBRs is not narrowed")
	}
	for name, mod := range map[string]func(*PairContext){
		"zero grid":       func(pc *PairContext) { pc.Grid = interval.Grid{} },
		"no spans (P)":    func(pc *PairContext) { pc.PIv = nil },
		"no spans (Q)":    func(pc *PairContext) { pc.QIv = interval.Spans{} },
		"invalid order":   func(pc *PairContext) { pc.Grid.Order = interval.MaxOrder + 1 },
		"window off grid": func(pc *PairContext) { pc.Grid.MinX = 3 },
		"window past max": func(pc *PairContext) { pc.Grid.Size = 11 },
	} {
		c := pc
		mod(&c)
		if narrows(c, window) {
			t.Errorf("%s: narrowed", name)
		}
	}

	far := PairContext{PIv: interval.Rasterize(square(20, 20, 1), g), QIv: pc.QIv, Grid: g, PIndex: edgeindex.New(p), QIndex: edgeindex.New(q)}
	tester := NewTester(Config{DisableHardware: true})
	if hit, ok := tester.sharedCellsIntersect(p, q, window, far); hit || !ok {
		t.Fatalf("lists sharing no partial run: (%v, %v), want (false, true)", hit, ok)
	}
	if s := tester.Stats; s.EdgeIndexHits != 0 || s.EdgeIndexSkippedEdges != 0 || s.CollectTime != 0 {
		t.Fatalf("lists sharing no partial run collected edges: %+v", s)
	}
}
