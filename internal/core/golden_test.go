package core

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/edgeindex"
	"repro/internal/faultinject"
	"repro/internal/geom"
)

// TestGoldenDispatch pins how the filter decides a fixed workload: every
// pair of two seeded layers, threshold 0 (every pair the MBR and
// containment steps leave goes to the rasterizer), both predicates, four
// window resolutions. The constants were recorded before the rasterizer
// became two bit planes; a covered-cell set that differs by one cell on
// one edge moves HWRejects/HWPassed here. Sentinel re-checks are off so
// the counts are the filter's own verdicts.
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
			tester := NewTester(Config{Resolution: res, SentinelEvery: -1})
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
// and the result count, for both predicates, in runs that reach each
// branch of the threshold, breaker, probe and sentinel guard. Threshold 0
// at res 8 and res 32 (which has width fallbacks) runs every pair the
// filter leaves through the card with edge indexes and the default
// sentinel; the sampled dispatch shares one Breaker over the layer pair;
// the faults runs lie at the card on every verdict under SentinelEvery 1,
// armed for the first half of the pairs and disarmed for the rest, so the
// breaker trips, skips pairs while open and probes closed again (at res 32
// a claimed probe can also meet a width fallback and hand it back).
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
		"threshold0/res8/intersects":  `results=1014 {"tests":49686,"mbr_rejects":47951,"pip_hits":279,"sw_direct":0,"hw_rejects":586,"hw_passed":870,"hw_fallbacks":0,"panics":0,"quarantined":0,"sentinel_checks":1,"sentinel_disagreements":0,"breaker_trips":0,"breaker_recoveries":0,"breaker_open_skips":0,"edge_index_hits":791,"edge_index_skipped_edges":283262}`,
		"threshold0/res8/within":      `results=5116 {"tests":54188,"mbr_rejects":47657,"pip_hits":177,"sw_direct":0,"hw_rejects":355,"hw_passed":5999,"hw_fallbacks":0,"panics":0,"quarantined":0,"sentinel_checks":0,"sentinel_disagreements":0,"breaker_trips":0,"breaker_recoveries":0,"breaker_open_skips":0,"edge_index_hits":2054,"edge_index_skipped_edges":53871}`,
		"threshold0/res32/intersects": `results=1014 {"tests":49686,"mbr_rejects":47951,"pip_hits":279,"sw_direct":0,"hw_rejects":679,"hw_passed":777,"hw_fallbacks":0,"panics":0,"quarantined":0,"sentinel_checks":3,"sentinel_disagreements":0,"breaker_trips":0,"breaker_recoveries":0,"breaker_open_skips":0,"edge_index_hits":791,"edge_index_skipped_edges":283262}`,
		"threshold0/res32/within":     `results=5116 {"tests":54188,"mbr_rejects":47657,"pip_hits":177,"sw_direct":0,"hw_rejects":94,"hw_passed":1613,"hw_fallbacks":4647,"panics":0,"quarantined":0,"sentinel_checks":0,"sentinel_disagreements":0,"breaker_trips":0,"breaker_recoveries":0,"breaker_open_skips":0,"edge_index_hits":734,"edge_index_skipped_edges":24189}`,
		"sampled/intersects":          `results=1014 {"tests":49686,"mbr_rejects":47951,"pip_hits":279,"sw_direct":1451,"hw_rejects":1,"hw_passed":4,"hw_fallbacks":0,"panics":0,"quarantined":0,"sentinel_checks":0,"sentinel_disagreements":0,"breaker_trips":0,"breaker_recoveries":0,"breaker_open_skips":0,"edge_index_hits":791,"edge_index_skipped_edges":283262}`,
		"sampled/within":              `results=5116 {"tests":54188,"mbr_rejects":47657,"pip_hits":177,"sw_direct":6351,"hw_rejects":0,"hw_passed":3,"hw_fallbacks":0,"panics":0,"quarantined":0,"sentinel_checks":0,"sentinel_disagreements":0,"breaker_trips":0,"breaker_recoveries":0,"breaker_open_skips":0,"edge_index_hits":3,"edge_index_skipped_edges":0}`,
		"faults/res8/intersects":      `results=1014 {"tests":49686,"mbr_rejects":47951,"pip_hits":279,"sw_direct":0,"hw_rejects":365,"hw_passed":521,"hw_fallbacks":0,"panics":0,"quarantined":0,"sentinel_checks":94,"sentinel_disagreements":38,"breaker_trips":38,"breaker_recoveries":11,"breaker_open_skips":570,"edge_index_hits":791,"edge_index_skipped_edges":283262}`,
		"faults/res8/within":          `results=5116 {"tests":54188,"mbr_rejects":47657,"pip_hits":177,"sw_direct":0,"hw_rejects":236,"hw_passed":3178,"hw_fallbacks":0,"panics":0,"quarantined":0,"sentinel_checks":243,"sentinel_disagreements":196,"breaker_trips":196,"breaker_recoveries":32,"breaker_open_skips":2940,"edge_index_hits":1042,"edge_index_skipped_edges":22683}`,
		"faults/res32/intersects":     `results=1014 {"tests":49686,"mbr_rejects":47951,"pip_hits":279,"sw_direct":0,"hw_rejects":414,"hw_passed":472,"hw_fallbacks":0,"panics":0,"quarantined":0,"sentinel_checks":143,"sentinel_disagreements":38,"breaker_trips":38,"breaker_recoveries":11,"breaker_open_skips":570,"edge_index_hits":791,"edge_index_skipped_edges":283262}`,
		"faults/res32/within":         `results=5116 {"tests":54188,"mbr_rejects":47657,"pip_hits":177,"sw_direct":0,"hw_rejects":70,"hw_passed":871,"hw_fallbacks":3823,"panics":0,"quarantined":0,"sentinel_checks":142,"sentinel_disagreements":106,"breaker_trips":106,"breaker_recoveries":16,"breaker_open_skips":1590,"edge_index_hits":398,"edge_index_skipped_edges":7675}`,
	}
	type run struct {
		name    string
		cfg     Config
		breaker func() *Breaker
		faults  bool
	}
	for _, r := range []run{
		{"threshold0/res8", Config{Resolution: 8}, func() *Breaker { return nil }, false},
		{"threshold0/res32", Config{Resolution: 32}, func() *Breaker { return nil }, false},
		{"sampled", Config{SWThreshold: SampledSWThreshold}, func() *Breaker { return NewBreaker(0) }, false},
		{"faults/res8", Config{Resolution: 8, SentinelEvery: 1}, func() *Breaker { return NewBreaker(16) }, true},
		{"faults/res32", Config{Resolution: 32, SentinelEvery: 1}, func() *Breaker { return NewBreaker(16) }, true},
	} {
		for _, pred := range []string{"intersects", "within"} {
			name := r.name + "/" + pred
			cfg := r.cfg
			var inj *faultinject.Injector
			if r.faults {
				inj = faultinject.New(7).Inject(faultinject.SiteHWFilter, faultinject.KindWrongAnswer, 1)
				cfg.Faults = inj
			}
			tester := NewTester(cfg)
			br := r.breaker()
			ps, qs, pIx, qIx := landc.Objects, lando.Objects, landcIx, landoIx
			if pred == "within" {
				ps, qs, pIx, qIx = water.Objects, prism.Objects, waterIx, prismIx
			}
			results := 0
			for i, p := range ps {
				if inj != nil && i == len(ps)/2 {
					inj.Disarm(faultinject.SiteHWFilter)
				}
				for j, q := range qs {
					pc := PairContext{PIndex: pIx[i], QIndex: qIx[j], Breaker: br}
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
