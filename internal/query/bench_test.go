package query

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
)

// benchWindows is the load benchmark's select window mix for a seed: one
// window per cell of a 32×32 grid over the data domain, jittered inside
// its cell, 5×5 km and every fifth 20×20 km, then shuffled.
func benchWindows(seed int64) []*geom.Polygon {
	rng := rand.New(rand.NewSource(seed))
	const side = 32
	dom := data.Domain
	cellW, cellH := dom.Width()/side, dom.Height()/side
	var out []*geom.Polygon
	for i := range side * side {
		size := 5.0
		if i%5 == 0 {
			size = 20
		}
		x := min(dom.MinX+(float64(i%side)+rng.Float64())*cellW, dom.MaxX-size)
		y := min(dom.MinY+(float64(i/side)+rng.Float64())*cellH, dom.MaxY-size)
		out = append(out, geom.MustPolygon(geom.Pt(x, y), geom.Pt(x+size, y), geom.Pt(x+size, y+size), geom.Pt(x, y+size)))
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// BenchmarkSelect times one in-process select as the select verb runs
// it — IntersectionSelectView at interior level 4 on the verbs' software
// tester — over snapshot layers: the 1 024 windows of seed 1 over LANDC
// 0.2 (select_wire's mix), and its 205 20 km windows over LANDO 0.2
// (ingest_read's). One tester serves every select, so the benchmark
// cannot see what a select pays per request before the query runs (a
// tester of its own, the WKT parse): shellcmd's BenchmarkExecSelect
// times the served select. A warm pass first hydrates the edge indexes.
// One op is one select, so ns/op is ns a select and allocs/op
// allocations a select.
func BenchmarkSelect(b *testing.B) {
	windows := benchWindows(1)
	var wide []*geom.Polygon
	for _, w := range windows {
		if w.Bounds().Width() > 10 {
			wide = append(wide, w)
		}
	}
	for _, tc := range []struct {
		name    string
		dataset string
		windows []*geom.Polygon
	}{{"landc", "LANDC", windows}, {"lando_20km", "LANDO", wide}} {
		b.Run(tc.name, func(b *testing.B) {
			v := snapshotLayer(b, data.MustLoad(tc.dataset, 0.2), false).View()
			tester := core.NewTester(core.Config{DisableHardware: true})
			opt := JoinOptions{InteriorLevel: 4}
			for _, w := range tc.windows {
				if _, _, err := IntersectionSelectView(bg, v, w, tester, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				if _, _, err := IntersectionSelectView(bg, v, tc.windows[i%len(tc.windows)], tester, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
