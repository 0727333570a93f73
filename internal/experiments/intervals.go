package experiments

import (
	"fmt"
	"time"

	"repro/internal/query"
)

// IntervalPoint is one configuration's measurement of the v2
// interval-approximation filter: join wall clock, refine-stage time, and
// the three-valued verdict breakdown.
type IntervalPoint struct {
	Config       string // "off", "auto", or "order=<n>"
	Wall         time.Duration
	RefineNS     int64
	Results      int
	Checks       int64
	TrueHits     int64
	Rejects      int64
	Inconclusive int64
}

// IntervalResult is the grid-resolution sweep for one join workload,
// differentially checked against the intervals-off baseline.
type IntervalResult struct {
	Workload string
	Points   []IntervalPoint
}

// Intervals measures what the interval filter buys across grid
// resolutions on two contrasting workloads: LANDC ⋈ LANDO, where most
// candidate pairs genuinely intersect (the true-hit regime), and PRISM ⋈
// WATER, where most are disjoint (the reject regime). Each arm runs the
// staged pipeline join; the "off" arm is the NoIntervals ablation whose
// refine-stage time anchors the savings column. Every arm must reproduce
// the baseline's result count exactly — the filter may only move pairs
// between resolution stages, never change the answer.
func (r *Runner) Intervals() []IntervalResult {
	workloads := []struct {
		name string
		a, b *query.Layer
	}{
		{"LANDC⋈LANDO", r.Layer("LANDC"), r.Layer("LANDO")},
		{"PRISM⋈WATER", r.Layer("PRISM"), r.Layer("WATER")},
	}
	var out []IntervalResult
	for _, w := range workloads {
		res := IntervalResult{Workload: w.name}
		r.printf("\nInterval filter sweep (%s, %d+%d objects): verdicts vs grid resolution\n",
			w.name, len(w.a.Data.Objects), len(w.b.Data.Objects))
		r.printf("%-10s %10s %12s %8s %9s %9s %9s %7s\n",
			"config", "wall(ms)", "refine(ms)", "results", "truehits", "rejects", "inconcl", "checks")

		arms := []struct {
			config string
			noIval bool
			order  int
		}{
			{"off", true, 0},
			{"auto", false, 0},
			{"order=6", false, 6},
			{"order=8", false, 8},
			{"order=10", false, 10},
		}
		base := -1
		for _, arm := range arms {
			start := time.Now()
			pairs, stats, err := query.PipelineIntersectionJoinView(r.ctx(), w.a.View(), w.b.View(),
				query.JoinOptions{NoIntervals: arm.noIval, IntervalOrder: arm.order})
			wall := time.Since(start)
			if r.check(err) {
				return out
			}
			if base < 0 {
				base = len(pairs)
			} else if len(pairs) != base {
				panic(fmt.Sprintf("intervals %s %s: %d results, baseline %d — filter changed the answer",
					w.name, arm.config, len(pairs), base))
			}
			res.Points = append(res.Points, IntervalPoint{
				Config: arm.config, Wall: wall, RefineNS: stats.PipelineRefineNS,
				Results: len(pairs), Checks: stats.IntervalChecks,
				TrueHits: stats.IntervalTrueHits, Rejects: stats.IntervalRejects,
				Inconclusive: stats.IntervalInconclusive,
			})
			r.printf("%-10s %10.1f %12.1f %8d %9d %9d %9d %7d\n",
				arm.config, ms(wall), float64(stats.PipelineRefineNS)/1e6, len(pairs),
				stats.IntervalTrueHits, stats.IntervalRejects, stats.IntervalInconclusive,
				stats.IntervalChecks)
		}
		out = append(out, res)
	}
	return out
}

// IntervalRecords flattens the interval sweep. The verdict fractions and
// per-arm refine-time savings against the "off" baseline ride in their
// own columns so the filter's effectiveness trajectory is tracked run
// over run.
func IntervalRecords(rows []IntervalResult, scale float64) []BenchRecord {
	var out []BenchRecord
	for _, row := range rows {
		var baseRefine int64
		for _, p := range row.Points {
			if p.Config == "off" {
				baseRefine = p.RefineNS
			}
		}
		for _, p := range row.Points {
			rec := BenchRecord{
				Experiment: "intervals", Workload: row.Workload, Tester: "sw",
				Param: p.Config, Scale: scale,
				WallMS: ms(p.Wall), Results: p.Results,
			}
			if p.Checks > 0 {
				if p.Results > 0 {
					rec.TrueHitFrac = float64(p.TrueHits) / float64(p.Results)
				}
				rec.RejectFrac = float64(p.Rejects) / float64(p.Checks)
				rec.InconclusiveFrac = float64(p.Inconclusive) / float64(p.Checks)
				rec.RefineNSSaved = baseRefine - p.RefineNS
			}
			out = append(out, rec)
		}
	}
	return out
}
