package dist

import (
	"testing"

	"repro/internal/data"
	"repro/internal/edgeindex"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// benchScale and benchD are the benchmark workload's (bench/README.md):
// WATER and PRISM at scale 0.1, joined at D = 1.
const (
	benchScale = 0.1
	benchD     = 1
)

// BenchmarkBoundaryWithin runs the kernel over the MBR-distance candidates
// of WATER⋈PRISM — the pairs the within join refines — with and without
// edge indexes. One op is one pass over the whole candidate list.
func BenchmarkBoundaryWithin(b *testing.B) {
	water, prism := data.MustLoad("WATER", benchScale).Objects, data.MustLoad("PRISM", benchScale).Objects
	type pair struct {
		p, q     *geom.Polygon
		pix, qix *edgeindex.Index
	}
	wix, pix := indexAll(water), indexAll(prism)
	var pairs []pair
	rtree.JoinWithin(bulk(water), bulk(prism), benchD, func(ea, eb rtree.Entry) bool {
		pairs = append(pairs, pair{water[ea.ID], prism[eb.ID], wix[ea.ID], pix[eb.ID]})
		return true
	})
	run := func(b *testing.B, indexed bool) {
		var s Scratch
		pass := func() (within int) {
			for _, pr := range pairs {
				pix, qix := pr.pix, pr.qix
				if !indexed {
					pix, qix = nil, nil
				}
				if s.BoundaryWithin(pr.p, pr.q, pix, qix, benchD, Options{}) {
					within++
				}
			}
			return within
		}
		within := pass() // grows the Scratch: the timed passes are steady state
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if pass() != within {
				b.Fatal("verdicts changed between passes")
			}
		}
		b.ReportMetric(float64(len(pairs)), "pairs/op")
		b.ReportMetric(float64(within), "within/op")
	}
	b.Run("indexed", func(b *testing.B) { run(b, true) })
	b.Run("linear", func(b *testing.B) { run(b, false) })
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
