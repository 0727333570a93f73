package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/query"
)

// BenchRecord is one machine-readable measurement from the evaluation
// harness: a (workload, tester, parameter) point with its wall time and
// filter-effectiveness counters. spatialbench -json writes these so the
// performance trajectory of the repository can be tracked run over run
// (BENCH_*.json files diffed across commits).
type BenchRecord struct {
	Experiment   string  `json:"experiment"`
	Workload     string  `json:"workload"`
	Tester       string  `json:"tester"`          // "sw" or "hw" with its parameters
	Param        string  `json:"param,omitempty"` // swept x-value, e.g. "res=8", "level=3"
	Scale        float64 `json:"scale"`
	WallMS       float64 `json:"wall_ms"`
	Candidates   int     `json:"candidates,omitempty"`
	Results      int     `json:"results,omitempty"`
	Tests        int64   `json:"tests,omitempty"`
	HWRejectRate float64 `json:"hw_reject_rate,omitempty"`

	// Interval-filter effectiveness (the intervals experiment).
	// TrueHitFrac is the fraction of intersecting pairs (Results) the
	// filter resolved positive without refinement; RejectFrac and
	// InconclusiveFrac are fractions of interval checks. RefineNSSaved is
	// the refine-stage wall-clock saved against the NoIntervals baseline
	// arm of the same workload (negative when the filter cost more than
	// it saved).
	TrueHitFrac      float64 `json:"true_hit_frac,omitempty"`
	RejectFrac       float64 `json:"reject_frac,omitempty"`
	InconclusiveFrac float64 `json:"inconclusive_frac,omitempty"`
	RefineNSSaved    int64   `json:"refine_ns_saved,omitempty"`
}

func hwRejectRate(s core.Stats) float64 {
	if s.Tests == 0 {
		return 0
	}
	return float64(s.HWRejects) / float64(s.Tests)
}

// Table2Records flattens dataset statistics (object counts stand in for
// Results; Table 2 has no timings).
func Table2Records(rows []Table2Row, scale float64) []BenchRecord {
	var out []BenchRecord
	for _, row := range rows {
		out = append(out, BenchRecord{
			Experiment: "table2", Workload: row.Name, Tester: "-",
			Scale: scale, Results: row.Stats.N,
		})
	}
	return out
}

// costRecord builds a record from a staged Cost breakdown.
func costRecord(exp, workload, tester, param string, scale float64, c query.Cost) BenchRecord {
	return BenchRecord{
		Experiment: exp, Workload: workload, Tester: tester, Param: param,
		Scale:      scale,
		WallMS:     float64(c.Total()) / float64(time.Millisecond),
		Candidates: c.Candidates, Results: c.Results,
	}
}

// Fig10Records flattens the tiling-level sweep (software tester).
func Fig10Records(rows []Fig10Result, scale float64) []BenchRecord {
	var out []BenchRecord
	for _, row := range rows {
		for _, p := range row.Points {
			out = append(out, costRecord("fig10", "selection/"+row.Dataset, "sw",
				fmt.Sprintf("level=%d", p.Level), scale, p.Cost))
		}
	}
	return out
}

// SweepRecords flattens a software-vs-hardware resolution sweep
// (Figures 11, 12, 15).
func SweepRecords(exp string, rows []SweepResult, scale float64) []BenchRecord {
	var out []BenchRecord
	for _, row := range rows {
		out = append(out, BenchRecord{
			Experiment: exp, Workload: row.Workload, Tester: "sw", Scale: scale,
			WallMS: float64(row.SW) / float64(time.Millisecond),
		})
		for _, p := range row.Points {
			out = append(out, BenchRecord{
				Experiment: exp, Workload: row.Workload, Tester: "hw",
				Param: fmt.Sprintf("res=%d", p.Resolution), Scale: scale,
				WallMS:       float64(p.HW) / float64(time.Millisecond),
				Tests:        p.HWStats.Tests,
				HWRejectRate: hwRejectRate(p.HWStats),
			})
		}
	}
	return out
}

// Fig13Records flattens the software-threshold sweep.
func Fig13Records(rows []Fig13Result, scale float64) []BenchRecord {
	var out []BenchRecord
	for _, row := range rows {
		out = append(out, BenchRecord{
			Experiment: "fig13", Workload: "LANDC⋈LANDO", Tester: "sw", Scale: scale,
			WallMS: float64(row.SW) / float64(time.Millisecond),
		})
		for _, p := range row.Points {
			out = append(out, BenchRecord{
				Experiment: "fig13", Workload: "LANDC⋈LANDO", Tester: "hw",
				Param: fmt.Sprintf("res=%d,threshold=%d", row.Resolution, p.Threshold),
				Scale: scale, WallMS: float64(p.HW) / float64(time.Millisecond),
			})
		}
	}
	return out
}

// Fig14Records flattens the software within-distance D sweep.
func Fig14Records(rows []Fig14Result, scale float64) []BenchRecord {
	var out []BenchRecord
	for _, row := range rows {
		for _, p := range row.Points {
			out = append(out, costRecord("fig14", row.Workload, "sw",
				fmt.Sprintf("d_mult=%g", p.Multiplier), scale, p.Cost))
		}
	}
	return out
}

// Fig16Records flattens the software-vs-hardware D sweep.
func Fig16Records(rows []Fig16Result, scale float64) []BenchRecord {
	var out []BenchRecord
	for _, row := range rows {
		for _, p := range row.Points {
			param := fmt.Sprintf("d_mult=%g", p.Multiplier)
			out = append(out,
				BenchRecord{
					Experiment: "fig16", Workload: row.Workload, Tester: "sw",
					Param: param, Scale: scale,
					WallMS: float64(p.SW) / float64(time.Millisecond),
				},
				BenchRecord{
					Experiment: "fig16", Workload: row.Workload, Tester: "hw",
					Param: param, Scale: scale,
					WallMS:       float64(p.HW) / float64(time.Millisecond),
					Tests:        p.HWStats.Tests,
					HWRejectRate: hwRejectRate(p.HWStats),
				})
		}
	}
	return out
}

// LocalityRecords flattens the refinement hot path comparison.
func LocalityRecords(rows []LocalityResult, scale float64) []BenchRecord {
	var out []BenchRecord
	for _, row := range rows {
		for _, p := range row.Points {
			out = append(out, BenchRecord{
				Experiment: "locality", Workload: row.Workload, Tester: p.Config,
				Scale:  scale,
				WallMS: float64(p.Wall) / float64(time.Millisecond),
				Tests:  p.Stats.Tests, Results: p.Results,
			})
		}
	}
	return out
}

// ColdstartRecords flattens the snapshot warm-start comparison. Bytes
// rides in Candidates (artifact size on disk) so the record stays flat.
func ColdstartRecords(rows []ColdstartResult, scale float64) []BenchRecord {
	var out []BenchRecord
	for _, row := range rows {
		for _, p := range row.Points {
			out = append(out, BenchRecord{
				Experiment: "coldstart", Workload: row.Dataset, Tester: p.Config,
				Scale:      scale,
				WallMS:     float64(p.Wall) / float64(time.Millisecond),
				Candidates: int(p.Bytes),
				Results:    p.Results,
			})
		}
	}
	return out
}

// HullRecords flattens the pre-processing-technique comparison.
func HullRecords(rows []HullResult, scale float64) []BenchRecord {
	var out []BenchRecord
	for _, row := range rows {
		for _, p := range row.Points {
			out = append(out, BenchRecord{
				Experiment: "hull", Workload: row.Workload, Tester: p.Config,
				Scale:  scale,
				WallMS: float64(p.Geom+p.Filter) / float64(time.Millisecond),
			})
		}
	}
	return out
}
