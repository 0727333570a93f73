package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/interval"
	"repro/internal/sweep"
)

// withoutCertain returns s with every certain flag (bit 31) cleared: the
// list Compare judges by its full/full rule alone.
func withoutCertain(s interval.Spans) interval.Spans {
	out := make(interval.Spans, len(s))
	for i, v := range s {
		out[i] = v &^ (1 << 31)
	}
	return out
}

// landPairs returns every MBR-intersecting pair of LANDC⋈LANDO 0.2, the
// join_single layers, with their lists on the grid both persist.
func landPairs(t *testing.T) []spannedPair {
	t.Helper()
	a, b := data.MustLoad("LANDC", 0.2), data.MustLoad("LANDO", 0.2)
	g, ok := interval.GridFor(a.Objects, 0)
	if gb, okb := interval.GridFor(b.Objects, 0); !ok || !okb || g != gb {
		t.Fatalf("LANDC and LANDO 0.2 persist grids %+v and %+v, not one", g, gb)
	}
	ca, cb := interval.Build(a.Objects, g), interval.Build(b.Objects, g)
	var out []spannedPair
	for i, p := range a.Objects {
		for j, q := range b.Objects {
			if p.Bounds().Intersects(q.Bounds()) {
				out = append(out, spannedPair{
					name: fmt.Sprintf("LANDC⋈LANDO 0.2 (%d, %d)", i, j),
					p:    p, q: q,
					pc: PairContext{PIv: ca.Spans(i), QIv: cb.Spans(j), Grid: g},
				})
			}
		}
	}
	return out
}

// vertexBorderPairs places a thin triangle's apex on and around cell
// borders beside shapes given in cell units: on every border and corner of
// a 16×16 block of cells and half a cell off them, each exactly there, one
// ulp either side, and cellEps and twice it either side, the sliver
// pointing one of four ways, so its long edges run within a fiftieth of a
// cell's slope of a cell border. Each shape runs on a unit grid, where
// integer coordinates are exactly cell borders, and on an offset grid of
// inexact cell size.
func vertexBorderPairs() []spannedPair {
	// order 5; eps is the rasterizer's outward slack, cellEps, in cells.
	const order, eps = 5, 1e-6
	shapes := []struct {
		name  string
		verts []geom.Point
	}{
		{"rect on cell borders", []geom.Point{{X: 8, Y: 8}, {X: 20, Y: 8}, {X: 20, Y: 19}, {X: 8, Y: 19}}},
		{"diamond through cell corners", []geom.Point{{X: 16, Y: 4}, {X: 28, Y: 16}, {X: 16, Y: 28}, {X: 4, Y: 16}}},
		{"sliver thinner than a cell", []geom.Point{{X: 6.5, Y: 14.4}, {X: 26.5, Y: 14.45}, {X: 26.5, Y: 14.5}}},
	}
	side := float64(int(1) << order)
	grids := []interval.Grid{
		{MinX: 0, MinY: 0, Size: side, Order: order},
		{MinX: -3.7, MinY: 11.1, Size: 0.3 * side, Order: order},
	}
	dirs := []geom.Point{{X: 1, Y: 0.02}, {X: -0.02, Y: 1}, {X: -1, Y: -0.02}, {X: 0.02, Y: -1}}
	var out []spannedPair
	for gi, g := range grids {
		cs := g.CellSize()
		at := func(x, y float64) geom.Point { return geom.Pt(g.MinX+x*cs, g.MinY+y*cs) }
		for _, sh := range shapes {
			verts := make([]geom.Point, len(sh.verts))
			for i, v := range sh.verts {
				verts[i] = at(v.X, v.Y)
			}
			p := geom.MustPolygon(verts...)
			pc := PairContext{PIv: interval.Rasterize(p, g), Grid: g}
			for x := 6.0; x <= 22; x += 0.5 {
				for y := 6.0; y <= 22; y += 0.5 {
					base := at(x, y)
					for k, d := range []float64{0, 1, -1, eps, -eps, 2 * eps, -2 * eps} {
						apex := base
						switch k {
						case 1, 2:
							apex = geom.Pt(math.Nextafter(base.X, base.X+d), math.Nextafter(base.Y, base.Y-d))
						default:
							apex = geom.Pt(base.X+d*cs, base.Y-d*cs)
						}
						dir := dirs[int(2*x+2*y+float64(k))%len(dirs)]
						q := geom.MustPolygon(apex,
							geom.Pt(apex.X+3*dir.X*cs, apex.Y+3*dir.Y*cs),
							geom.Pt(apex.X+3*dir.X*cs-0.1*dir.Y*cs, apex.Y+3*dir.Y*cs+0.1*dir.X*cs))
						qpc := pc
						qpc.QIv = interval.Rasterize(q, g)
						out = append(out, spannedPair{name: fmt.Sprintf("grid %d: %s / apex at (%v, %v) nudge %d", gi, sh.name, x, y, k), p: p, q: q, pc: qpc})
					}
				}
			}
		}
	}
	return out
}

// TestFullCertainSound holds the full/certain true hit to the exact
// predicate: every pair Compare calls a true hit that its full/full rule
// alone would not must intersect. The pairs are the join_single layers on
// their persisted grid, the spanned adversarial family (shapes on
// cell borders and the kernels' staircases) and thin triangles with an
// apex on, an ulp off and cellEps off cell borders beside shapes on a
// grid.
//
// The oracle is sweep.PolygonsIntersect, backed by a point-in-polygon test
// of every vertex of each side against the other. The sweep tests only
// each side's first vertex for containment and leaves the rest to the
// float crossing test, which an apex lying on the other's edge can fool:
// ContainsPoint puts the apex outside, Orient puts it on the inner side,
// and the sweep then misses that the triangle's other vertices lie cells
// deep inside. Those pairs are logged apart; they intersect.
func TestFullCertainSound(t *testing.T) {
	vertexInside := func(p, q *geom.Polygon) bool {
		for _, v := range q.Verts {
			if p.ContainsPoint(v) {
				return true
			}
		}
		return false
	}
	for _, family := range []struct {
		name  string
		pairs []spannedPair
	}{{"LANDC⋈LANDO 0.2", landPairs(t)}, {"adversarial", adversarialSpannedPairs(t)}, {"apex on cell borders", vertexBorderPairs()}} {
		hits, certain, sweepMissed, wrong := 0, 0, 0, 0
		for _, sp := range family.pairs {
			if interval.Compare(sp.pc.PIv, sp.pc.QIv) != interval.TrueHit {
				continue
			}
			hits++
			if interval.Compare(withoutCertain(sp.pc.PIv), withoutCertain(sp.pc.QIv)) == interval.TrueHit {
				continue
			}
			certain++
			switch {
			case sweep.PolygonsIntersect(sp.p, sp.q, sweep.Options{}):
			case vertexInside(sp.p, sp.q) || vertexInside(sp.q, sp.p):
				sweepMissed++
				t.Logf("%s: the sweep calls the regions disjoint, and a vertex of one lies inside the other", sp.name)
			default:
				wrong++
				t.Errorf("%s: a full/certain true hit, and the regions are disjoint", sp.name)
			}
		}
		t.Logf("%s: %d pairs, %d true hits, %d of them decided by full/certain (%d the float sweep misses), %d wrongly",
			family.name, len(family.pairs), hits, certain, sweepMissed, wrong)
		if certain == 0 {
			t.Errorf("%s: no pair decided by full/certain; the test is vacuous", family.name)
		}
	}
}
