package core

import (
	"fmt"
	"testing"

	"repro/internal/data"
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
