package core

import (
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/edgeindex"
	"repro/internal/geom"
	"repro/internal/interval"
	"repro/internal/sweep"
)

// The intersection test is the within test at d = 0: the filter's
// interval verdict, containment and the distance kernel's edge test.
// These tests hold it to the all-pairs cross test on pairs that carry
// spans — the bench layers and an adversarial family placed on Hilbert
// cell borders.

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

// intersectsBrute is the intersection predicate by brute force:
// containment, or some edge of p intersecting some edge of q by the
// all-pairs cross test, whose predicate (geom.Segment.Intersects) the
// kernel asks at d = 0.
func intersectsBrute(p, q *geom.Polygon) bool {
	if sweep.ContainmentPossible(p, q) {
		return true
	}
	edges := func(p *geom.Polygon) []geom.Segment {
		out := make([]geom.Segment, p.NumEdges())
		for i := range out {
			out[i] = p.Edge(i)
		}
		return out
	}
	return sweep.CrossIntersectsBrute(edges(p), edges(q))
}

// TestSpannedIntersectsMatchBruteForce runs every spanned pair through the
// software tester and the fixed-threshold card tester, with the spans and
// without them, and holds each verdict to intersectsBrute; the resolution
// partition must hold.
func TestSpannedIntersectsMatchBruteForce(t *testing.T) {
	pairs := append(benchSpannedPairs(t), adversarialSpannedPairs(t)...)
	for _, cfg := range []Config{{DisableHardware: true}, {SWThreshold: DefaultSWThreshold}} {
		spanned, plain := NewTester(cfg), NewTester(cfg)
		hits := 0
		for _, sp := range pairs {
			want := intersectsBrute(sp.p, sp.q)
			if got := spanned.IntersectsCtx(sp.p, sp.q, sp.pc); got != want {
				t.Fatalf("%+v: %s: verdict %v with spans, brute force's %v", cfg, sp.name, got, want)
			}
			if got := plain.IntersectsCtx(sp.p, sp.q, PairContext{PIndex: sp.pc.PIndex, QIndex: sp.pc.QIndex}); got != want {
				t.Fatalf("%+v: %s: verdict %v without spans, brute force's %v", cfg, sp.name, got, want)
			}
			if want {
				hits++
			}
		}
		for name, st := range map[string]Stats{"spanned": spanned.Stats, "plain": plain.Stats} {
			if st.Tests != partitionSum(st) {
				t.Errorf("%+v %s: partition broken: %d tests, %d resolved", cfg, name, st.Tests, partitionSum(st))
			}
		}
		if spanned.Stats.IntervalTrueHits == 0 || spanned.Stats.IntervalRejects == 0 {
			t.Errorf("%+v: the interval verdict decided nothing: %+v", cfg, spanned.Stats)
		}
		t.Logf("%+v: %d pairs, %d hits; interval true hits %d, rejects %d", cfg, len(pairs), hits, spanned.Stats.IntervalTrueHits, spanned.Stats.IntervalRejects)
	}
}
