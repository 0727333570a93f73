package geom_test

import (
	"testing"

	"repro/internal/data"
	"repro/internal/edgeindex"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// BenchmarkContainsPoint runs the containment step of Algorithm 3.1 —
// a vertex of each polygon against the other — over the MBR candidates of
// LANDC⋈LANDO at the benchmark workload's scale (bench/README.md), by the
// linear scan and through the polygons' edge indexes. One op is one pass
// over the whole candidate list.
func BenchmarkContainsPoint(b *testing.B) {
	landc, lando := data.MustLoad("LANDC", 0.2).Objects, data.MustLoad("LANDO", 0.2).Objects
	type pair struct {
		p, q     *geom.Polygon
		pix, qix *edgeindex.Index
	}
	cix, oix := indexAll(landc), indexAll(lando)
	var pairs []pair
	rtree.Join(bulk(landc), bulk(lando), func(ea, eb rtree.Entry) bool {
		pairs = append(pairs, pair{landc[ea.ID], lando[eb.ID], cix[ea.ID], oix[eb.ID]})
		return true
	})
	run := func(b *testing.B, contains func(pr pair) bool) {
		b.ReportAllocs()
		hits := 0
		for range b.N {
			hits = 0
			for _, pr := range pairs {
				if contains(pr) {
					hits++
				}
			}
		}
		b.ReportMetric(float64(len(pairs)), "pairs/op")
		b.ReportMetric(float64(hits), "hits/op")
	}
	b.Run("linear", func(b *testing.B) {
		run(b, func(pr pair) bool { return pr.q.ContainsPoint(pr.p.Verts[0]) || pr.p.ContainsPoint(pr.q.Verts[0]) })
	})
	b.Run("indexed", func(b *testing.B) {
		run(b, func(pr pair) bool { return pr.qix.ContainsPoint(pr.p.Verts[0]) || pr.pix.ContainsPoint(pr.q.Verts[0]) })
	})
}

func indexAll(objs []*geom.Polygon) []*edgeindex.Index {
	out := make([]*edgeindex.Index, len(objs))
	for i, o := range objs {
		out[i] = edgeindex.New(o)
	}
	return out
}

func bulk(objs []*geom.Polygon) *rtree.Tree {
	entries := make([]rtree.Entry, len(objs))
	for i, o := range objs {
		entries[i] = rtree.Entry{Bounds: o.Bounds(), ID: i}
	}
	return rtree.NewBulk(entries)
}
