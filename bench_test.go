// Package repro's benchmarks regenerate every table and figure of the
// paper's evaluation as testing.B benchmarks: each BenchmarkFigNN sweeps
// the same parameter its figure plots (tiling level, window resolution,
// software threshold, query distance) and reports ns/op for the workload
// the figure's Y axis measures. Run them all with
//
//	go test -bench=. -benchmem
//
// Dataset scale is deliberately small here so the full sweep stays in CPU
// minutes; cmd/spatialbench runs the same experiments at larger scales and
// prints the paper-style series.
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/query"
)

// benchScale keeps `go test -bench=.` affordable.
const benchScale = 0.01

var (
	layersOnce sync.Once
	layers     map[string]*query.Layer
	baseDs     map[string]float64
)

func benchLayers() map[string]*query.Layer {
	layersOnce.Do(func() {
		layers = map[string]*query.Layer{}
		for _, name := range data.Names {
			layers[name] = query.NewLayer(data.MustLoad(name, benchScale))
		}
		baseDs = map[string]float64{
			"LANDC⋈LANDO": data.BaseD(layers["LANDC"].Data, layers["LANDO"].Data),
			"WATER⋈PRISM": data.BaseD(layers["WATER"].Data, layers["PRISM"].Data),
		}
	})
	return layers
}

// BenchmarkTable2 measures dataset generation, whose statistics are the
// content of Table 2.
func BenchmarkTable2(b *testing.B) {
	for _, name := range data.Names {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				d := data.MustLoad(name, benchScale)
				if len(d.Objects) == 0 {
					b.Fatal("empty dataset")
				}
			}
		})
	}
}

// BenchmarkFig10 runs intersection selections over WATER with the software
// test at each interior-filter tiling level (Figure 10's X axis).
func BenchmarkFig10(b *testing.B) {
	ls := benchLayers()
	queries := ls["STATES50"].Data.Objects
	for _, level := range experiments.TilingLevels {
		b.Run(fmt.Sprintf("WATER/level=%d", level), func(b *testing.B) {
			b.ReportAllocs()
			tester := core.NewTester(core.Config{DisableHardware: true})
			for range b.N {
				for _, q := range queries {
					query.IntersectionSelect(context.Background(), ls["WATER"], q, tester,
						query.SelectionOptions{InteriorLevel: level})
				}
			}
		})
	}
}

// BenchmarkFig11 compares software vs hardware selection refinement across
// window resolutions (Figure 11).
func BenchmarkFig11(b *testing.B) {
	ls := benchLayers()
	queries := ls["STATES50"].Data.Objects
	for _, ds := range []string{"WATER", "PRISM"} {
		b.Run(ds+"/software", func(b *testing.B) {
			b.ReportAllocs()
			tester := core.NewTester(core.Config{DisableHardware: true})
			for range b.N {
				for _, q := range queries {
					query.IntersectionSelect(context.Background(), ls[ds], q, tester, query.SelectionOptions{InteriorLevel: -1})
				}
			}
		})
		for _, res := range experiments.Resolutions {
			b.Run(fmt.Sprintf("%s/hw/res=%d", ds, res), func(b *testing.B) {
				b.ReportAllocs()
				tester := core.NewTester(core.Config{Resolution: res})
				for range b.N {
					for _, q := range queries {
						query.IntersectionSelect(context.Background(), ls[ds], q, tester, query.SelectionOptions{InteriorLevel: -1})
					}
				}
			})
		}
	}
}

// BenchmarkFig12 compares software vs hardware intersection joins across
// window resolutions (Figure 12).
func BenchmarkFig12(b *testing.B) {
	ls := benchLayers()
	joins := [][2]string{{"LANDC", "LANDO"}, {"WATER", "PRISM"}}
	for _, j := range joins {
		name := j[0] + "-" + j[1]
		b.Run(name+"/software", func(b *testing.B) {
			b.ReportAllocs()
			tester := core.NewTester(core.Config{DisableHardware: true})
			for range b.N {
				query.IntersectionJoinView(context.Background(), ls[j[0]].View(), ls[j[1]].View(), tester, query.JoinOptions{})
			}
		})
		for _, res := range experiments.Resolutions {
			b.Run(fmt.Sprintf("%s/hw/res=%d", name, res), func(b *testing.B) {
				b.ReportAllocs()
				tester := core.NewTester(core.Config{Resolution: res})
				for range b.N {
					query.IntersectionJoinView(context.Background(), ls[j[0]].View(), ls[j[1]].View(), tester, query.JoinOptions{})
				}
			})
		}
	}
}

// BenchmarkFig13 sweeps the software threshold for the hardware
// LANDC⋈LANDO join (Figure 13).
func BenchmarkFig13(b *testing.B) {
	ls := benchLayers()
	for _, res := range []int{8, 16} {
		for _, th := range experiments.Thresholds {
			b.Run(fmt.Sprintf("res=%d/threshold=%d", res, th), func(b *testing.B) {
				b.ReportAllocs()
				tester := core.NewTester(core.Config{Resolution: res, SWThreshold: th})
				for range b.N {
					query.IntersectionJoinView(context.Background(), ls["LANDC"].View(), ls["LANDO"].View(), tester, query.JoinOptions{})
				}
			})
		}
	}
}

// BenchmarkFig14 runs the software within-distance join with the 0/1-object
// filters across the distance sweep (Figure 14).
func BenchmarkFig14(b *testing.B) {
	ls := benchLayers()
	filters := query.JoinOptions{Use0Object: true, Use1Object: true}
	for _, j := range []string{"LANDC⋈LANDO", "WATER⋈PRISM"} {
		a, c := splitJoin(ls, j)
		for _, mult := range experiments.DistanceMultipliers {
			b.Run(fmt.Sprintf("%s/D=%gxBaseD", j, mult), func(b *testing.B) {
				b.ReportAllocs()
				tester := core.NewTester(core.Config{DisableHardware: true})
				d := baseDs[j] * mult
				for range b.N {
					query.WithinDistanceJoinView(context.Background(), a.View(), c.View(), d, tester, filters)
				}
			})
		}
	}
}

// BenchmarkFig15 compares software vs hardware within-distance joins at
// D=1×BaseD across window resolutions (Figure 15).
func BenchmarkFig15(b *testing.B) {
	ls := benchLayers()
	filters := query.JoinOptions{Use0Object: true, Use1Object: true}
	for _, j := range []string{"LANDC⋈LANDO", "WATER⋈PRISM"} {
		a, c := splitJoin(ls, j)
		d := baseDs[j]
		b.Run(j+"/software", func(b *testing.B) {
			b.ReportAllocs()
			tester := core.NewTester(core.Config{DisableHardware: true})
			for range b.N {
				query.WithinDistanceJoinView(context.Background(), a.View(), c.View(), d, tester, filters)
			}
		})
		for _, res := range experiments.Resolutions {
			b.Run(fmt.Sprintf("%s/hw/res=%d", j, res), func(b *testing.B) {
				b.ReportAllocs()
				tester := core.NewTester(core.Config{Resolution: res})
				for range b.N {
					query.WithinDistanceJoinView(context.Background(), a.View(), c.View(), d, tester, filters)
				}
			})
		}
	}
}

// BenchmarkFig16 compares software vs hardware within-distance joins as a
// function of the query distance at an 8×8 window with threshold 500
// (Figure 16).
func BenchmarkFig16(b *testing.B) {
	ls := benchLayers()
	filters := query.JoinOptions{Use0Object: true, Use1Object: true}
	for _, j := range []string{"LANDC⋈LANDO", "WATER⋈PRISM"} {
		a, c := splitJoin(ls, j)
		for _, mult := range experiments.DistanceMultipliers {
			d := baseDs[j] * mult
			b.Run(fmt.Sprintf("%s/sw/D=%gxBaseD", j, mult), func(b *testing.B) {
				b.ReportAllocs()
				tester := core.NewTester(core.Config{DisableHardware: true})
				for range b.N {
					query.WithinDistanceJoinView(context.Background(), a.View(), c.View(), d, tester, filters)
				}
			})
			b.Run(fmt.Sprintf("%s/hw/D=%gxBaseD", j, mult), func(b *testing.B) {
				b.ReportAllocs()
				tester := core.NewTester(core.Config{Resolution: 8, SWThreshold: 500})
				for range b.N {
					query.WithinDistanceJoinView(context.Background(), a.View(), c.View(), d, tester, filters)
				}
			})
		}
	}
}

// BenchmarkJoinLocality is the refinement hot path A/B: the LANDC⋈LANDO
// intersection join with the edge-indexed, locality-scheduled,
// adaptively-dispatched refinement (indexed) against the pre-edge-index
// path — linear candidate scans, plane-sweep-only cross tests, R-tree
// emission order (baseline). Same window and threshold, identical result
// set — the delta is pure hot-path work.
func BenchmarkJoinLocality(b *testing.B) {
	ls := benchLayers()
	for _, cfg := range []struct {
		name string
		core core.Config
		opt  query.JoinOptions
	}{
		{
			"baseline",
			core.Config{Resolution: 8, SWThreshold: core.DefaultSWThreshold, CrossCutoff: -1},
			query.JoinOptions{NoEdgeIndex: true, NoLocalityOrder: true},
		},
		{
			"indexed",
			core.Config{Resolution: 8, SWThreshold: core.DefaultSWThreshold},
			query.JoinOptions{},
		},
		{
			// indexed with self-verification ablated: the delta against
			// "indexed" is the sentinel + breaker overhead (bounded at 5%).
			"indexed-nosentinel",
			core.Config{Resolution: 8, SWThreshold: core.DefaultSWThreshold, SentinelEvery: -1},
			query.JoinOptions{NoBreaker: true},
		},
	} {
		b.Run("LANDC-LANDO/"+cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			tester := core.NewTester(cfg.core)
			for range b.N {
				query.IntersectionJoinView(context.Background(), ls["LANDC"].View(), ls["LANDO"].View(), tester, cfg.opt)
			}
		})
	}
}

func splitJoin(ls map[string]*query.Layer, j string) (*query.Layer, *query.Layer) {
	switch j {
	case "LANDC⋈LANDO":
		return ls["LANDC"], ls["LANDO"]
	case "WATER⋈PRISM":
		return ls["WATER"], ls["PRISM"]
	}
	panic("unknown join " + j)
}
