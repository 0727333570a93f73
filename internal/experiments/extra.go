package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/query"
	"repro/internal/rtree"
)

// HullPoint is one configuration's cost in the hull-filter comparison.
type HullPoint struct {
	Config  string
	Geom    time.Duration
	Filter  time.Duration
	Rejects int
}

// HullResult compares refinement configurations for one join.
type HullResult struct {
	Workload string
	Points   []HullPoint
}

// ExtraHull runs the Table 1 comparison the paper frames but does not
// measure: the pre-processing techniques — Brinkhoff's convex-hull
// geometric filter and the TR*-tree per-object edge index — against (and
// combined with) the runtime hardware filter, on both evaluation joins.
// Pre-computation (hulls, edge trees) is excluded from the reported costs,
// mirroring how pre-processing techniques amortize their setup; the
// trade-offs the paper lists — update cost, extra storage, inapplicability
// to intermediate datasets — are structural and not timed here.
func (r *Runner) ExtraHull() []HullResult {
	var out []HullResult
	for _, j := range [][2]string{{"LANDC", "LANDO"}, {"WATER", "PRISM"}} {
		a, b := r.Layer(j[0]), r.Layer(j[1])
		a.Hulls() // pre-compute outside the timed region
		b.Hulls()
		res := HullResult{Workload: j[0] + "⋈" + j[1]}
		r.printf("\nExtra (Table 1 techniques, %s): intersection join geometry comparison\n", res.Workload)
		r.printf("%-16s %12s %12s %8s\n", "config", "filter(ms)", "geom(ms)", "rejects")
		configs := []struct {
			name string
			cfg  core.Config
			opt  query.JoinOptions
		}{
			{"software", core.Config{DisableHardware: true}, query.JoinOptions{}},
			{"software+hull", core.Config{DisableHardware: true}, query.JoinOptions{UseHullFilter: true}},
			{"hardware", core.Config{Resolution: 8}, query.JoinOptions{}},
			{"hardware+hull", core.Config{Resolution: 8}, query.JoinOptions{UseHullFilter: true}},
		}
		for _, c := range configs {
			tester := core.NewTester(c.cfg)
			_, cost, err := query.IntersectionJoinView(r.ctx(), a.View(), b.View(), tester, c.opt)
			if r.check(err) {
				return out
			}
			res.Points = append(res.Points, HullPoint{
				Config:  c.name,
				Geom:    cost.GeometryComparison,
				Filter:  cost.IntermediateFilter,
				Rejects: cost.FilterRejects,
			})
			r.printf("%-16s %12.3f %12.3f %8d\n",
				c.name, ms(cost.IntermediateFilter), ms(cost.GeometryComparison), cost.FilterRejects)
		}
		res.Points = append(res.Points, r.trStarJoin(a, b))
		r.printf("%-16s %12.3f %12.3f %8d\n", "tr*-tree",
			ms(res.Points[len(res.Points)-1].Filter),
			ms(res.Points[len(res.Points)-1].Geom),
			res.Points[len(res.Points)-1].Rejects)
		out = append(out, res)
	}
	return out
}

// LocalityPoint is one refinement-path arm of the locality comparison.
type LocalityPoint struct {
	Config  string
	Wall    time.Duration
	Results int
	Stats   core.Stats
}

// LocalityResult compares refinement hot paths for one join.
type LocalityResult struct {
	Workload string
	Points   []LocalityPoint
}

// ExtraLocality measures the edge-indexed, locality-scheduled refinement
// hot path against the pre-index path on the LANDC⋈LANDO intersection
// join: "baseline" restores linear candidate scans, sweep-only cross
// tests and R-tree emission order; the middle arms enable one lever each;
// "indexed" is the full production path. All arms compute the identical
// result set at identical window parameters.
func (r *Runner) ExtraLocality() []LocalityResult {
	a, b := r.Layer("LANDC"), r.Layer("LANDO")
	res := LocalityResult{Workload: "LANDC⋈LANDO"}
	r.printf("\nExtra (locality): LANDC⋈LANDO intersection join refinement paths\n")
	r.printf("%-14s %10s %10s %12s %14s\n", "config", "wall(ms)", "results", "index_hits", "edges_skipped")
	base := core.Config{Resolution: 8, SWThreshold: core.DefaultSWThreshold}
	legacy := base
	legacy.CrossCutoff = -1
	configs := []struct {
		name string
		cfg  core.Config
		opt  query.JoinOptions
	}{
		{"baseline", legacy, query.JoinOptions{NoEdgeIndex: true, NoLocalityOrder: true}},
		{"+edgeindex", legacy, query.JoinOptions{NoLocalityOrder: true}},
		{"+order", legacy, query.JoinOptions{}},
		{"indexed", base, query.JoinOptions{}},
	}
	for _, c := range configs {
		tester := core.NewTester(c.cfg)
		start := time.Now()
		pairs, _, err := query.IntersectionJoinView(r.ctx(), a.View(), b.View(), tester, c.opt)
		wall := time.Since(start)
		if r.check(err) {
			return nil
		}
		res.Points = append(res.Points, LocalityPoint{
			Config: c.name, Wall: wall, Results: len(pairs), Stats: tester.Stats,
		})
		r.printf("%-14s %10.3f %10d %12d %14d\n",
			c.name, ms(wall), len(pairs), tester.Stats.EdgeIndexHits, tester.Stats.EdgeIndexSkippedEdges)
	}
	return []LocalityResult{res}
}

// trStarJoin runs the intersection join with the TR*-tree refinement: the
// MBR join feeds pre-built per-object edge trees whose synchronized
// traversal replaces the plane sweep entirely.
func (r *Runner) trStarJoin(a, b *query.Layer) HullPoint {
	treesA := filter.NewEdgeTreeSet(a.Data.Objects)
	treesB := filter.NewEdgeTreeSet(b.Data.Objects)
	start := time.Now()
	results := 0
	rtree.Join(a.Index, b.Index, func(ea, eb rtree.Entry) bool {
		if treesA.Tree(ea.ID).Intersects(treesB.Tree(eb.ID)) {
			results++
		}
		return true
	})
	return HullPoint{Config: "tr*-tree", Geom: time.Since(start)}
}
