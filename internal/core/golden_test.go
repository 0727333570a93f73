package core

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/edgeindex"
	"repro/internal/geom"
)

// TestGoldenDispatch pins how the filter decides a fixed workload: every
// pair of two seeded layers, threshold 0 (every pair the MBR and
// containment steps leave goes to the rasterizer), both predicates, four
// window resolutions. The constants were recorded before the rasterizer
// became two bit planes; a covered-cell set that differs by one cell on
// one edge moves HWRejects/HWPassed here.
func TestGoldenDispatch(t *testing.T) {
	type golden struct {
		rejects, passed, fallbacks int64
		results                    int
	}
	water, prism := data.MustLoad("WATER", 0.02), data.MustLoad("PRISM", 0.02)
	landc, lando := data.MustLoad("LANDC", 0.01), data.MustLoad("LANDO", 0.01)
	d := data.BaseD(water, prism)

	want := map[string]golden{
		"intersects/res4":  {526, 930, 0, 1014},
		"intersects/res8":  {586, 870, 0, 1014},
		"intersects/res16": {637, 819, 0, 1014},
		"intersects/res32": {679, 777, 0, 1014},
		"within/res4":      {336, 6018, 0, 5116},
		"within/res8":      {355, 5999, 0, 5116},
		"within/res16":     {388, 5966, 0, 5116},
		// Above 20 px a window maps d to more than MaxLineWidth for the
		// smaller objects: the only resolution here with fallbacks.
		"within/res32": {94, 1613, 4647, 5116},
	}
	for _, res := range []int{4, 8, 16, 32} {
		for _, pred := range []string{"intersects", "within"} {
			name := fmt.Sprintf("%s/res%d", pred, res)
			tester := NewTester(Config{Resolution: res})
			results := 0
			if pred == "intersects" {
				for _, p := range landc.Objects {
					for _, q := range lando.Objects {
						if tester.Intersects(p, q) {
							results++
						}
					}
				}
			} else {
				for _, p := range water.Objects {
					for _, q := range prism.Objects {
						if tester.WithinDistance(p, q, d) {
							results++
						}
					}
				}
			}
			st := tester.Stats
			got := golden{st.HWRejects, st.HWPassed, st.HWFallbacks, results}
			if got != want[name] {
				t.Errorf("%s: rejects/passed/fallbacks/results = %+v, recorded %+v", name, got, want[name])
			}
		}
	}
}

// TestGoldenStats pins every counter of the refine chain, not only the
// filter's verdicts: each non-duration Stats field (the record's JSON)
// and the result count, for both predicates. Threshold 0 at res 8 and
// res 32 (which has width fallbacks) runs every pair the filter leaves
// through the card with edge indexes.
func TestGoldenStats(t *testing.T) {
	water, prism := data.MustLoad("WATER", 0.02), data.MustLoad("PRISM", 0.02)
	landc, lando := data.MustLoad("LANDC", 0.01), data.MustLoad("LANDO", 0.01)
	d := data.BaseD(water, prism)
	index := func(objs []*geom.Polygon) []*edgeindex.Index {
		ix := make([]*edgeindex.Index, len(objs))
		for i, p := range objs {
			ix[i] = edgeindex.New(p)
		}
		return ix
	}
	landcIx, landoIx, waterIx, prismIx := index(landc.Objects), index(lando.Objects), index(water.Objects), index(prism.Objects)

	want := map[string]string{
		"threshold0/res8/intersects":  `results=1014 {"tests":49686,"mbr_rejects":47951,"pip_hits":279,"sw_direct":0,"hw_rejects":586,"hw_passed":870,"hw_fallbacks":0,"panics":0,"quarantined":0,"edge_index_hits":791,"edge_index_skipped_edges":283262}`,
		"threshold0/res8/within":      `results=5116 {"tests":54188,"mbr_rejects":47657,"pip_hits":177,"sw_direct":0,"hw_rejects":355,"hw_passed":5999,"hw_fallbacks":0,"panics":0,"quarantined":0,"edge_index_hits":2054,"edge_index_skipped_edges":53871}`,
		"threshold0/res32/intersects": `results=1014 {"tests":49686,"mbr_rejects":47951,"pip_hits":279,"sw_direct":0,"hw_rejects":679,"hw_passed":777,"hw_fallbacks":0,"panics":0,"quarantined":0,"edge_index_hits":791,"edge_index_skipped_edges":283262}`,
		"threshold0/res32/within":     `results=5116 {"tests":54188,"mbr_rejects":47657,"pip_hits":177,"sw_direct":0,"hw_rejects":94,"hw_passed":1613,"hw_fallbacks":4647,"panics":0,"quarantined":0,"edge_index_hits":734,"edge_index_skipped_edges":24189}`,
	}
	for _, res := range []int{8, 32} {
		for _, pred := range []string{"intersects", "within"} {
			name := fmt.Sprintf("threshold0/res%d/%s", res, pred)
			tester := NewTester(Config{Resolution: res})
			ps, qs, pIx, qIx := landc.Objects, lando.Objects, landcIx, landoIx
			if pred == "within" {
				ps, qs, pIx, qIx = water.Objects, prism.Objects, waterIx, prismIx
			}
			results := 0
			for i, p := range ps {
				for j, q := range qs {
					pc := PairContext{PIndex: pIx[i], QIndex: qIx[j]}
					var hit bool
					if pred == "intersects" {
						hit = tester.IntersectsCtx(p, q, pc)
					} else {
						hit = tester.WithinDistanceCtx(p, q, d, pc)
					}
					if hit {
						results++
					}
				}
			}
			counters, err := json.Marshal(tester.Stats)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("results=%d %s", results, counters)
			if got != want[name] {
				t.Errorf("%s:\n got  %s\n want %s", name, got, want[name])
			}
		}
	}
}
