package query

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/geom"
	"repro/internal/sweep"
)

// testLayers builds two small overlapping layers once for the package.
var (
	layerA = NewLayer(data.MustLoad("LANDC", 0.004)) // ~58 objects
	layerB = NewLayer(data.MustLoad("LANDO", 0.002)) // ~67 objects
)

// bg is the uncancellable context used by the correctness tests; the
// cancellation paths are exercised in resilient_test.go.
var bg = context.Background()

func sortedIDs(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

func sortedPairs(ps []Pair) []Pair {
	out := append([]Pair(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// oracleSelect computes selection results with brute-force software tests.
func oracleSelect(layer *Layer, q *geom.Polygon) []int {
	var ids []int
	for i, p := range layer.Data.Objects {
		if bruteIntersects(q, p) {
			ids = append(ids, i)
		}
	}
	return ids
}

// The oracle matrix: every way of running the query executor against
// brute-force oracles (bruteIntersects, dist.MinDistBrute). One table for
// the joins' two predicates, one beside it for selections.

// matrixTesters are the matrix's tester configurations: software (the
// verbs' tester), and hardware at two resolutions, one with the tuned
// threshold's shape.
var matrixTesters = map[string]core.Config{
	"sw":   {DisableHardware: true},
	"hw8":  {Resolution: 8},
	"hw16": {Resolution: 16, SWThreshold: 100},
}

// TestIntersectionSelectMatchesOracle runs ten STATES50 windows, and a
// window over the whole view (the one whose candidates the interior
// filter can accept: no STATES50 window covers a whole LANDC object),
// over {layer view, snapshot layer, live view} × tester × batch {1, 7,
// 256} × interior level {-1, 0, 4}, and checks each selection against the
// brute-force oracle: the ids in ascending order, the stage counts, the
// tester's resolution partition, and that the concatenated sink batches
// are the returned slice (sorted, on a live view, which streams per
// component). A selection has no interval or signature stage, so no
// record may count an interval or a signature check — not even on the
// snapshot layer, whose objects carry persisted lists and signatures —
// and the live view's delta never builds an interval column.
func TestIntersectionSelectMatchesOracle(t *testing.T) {
	states := data.MustLoad("STATES50", 1).Objects[:10:10]
	results, interiorHits := 0, 0
	views := matrixViews(t)
	views["snapshot"] = snapshotLayer(t, matrixA.Data, false).View()
	for vname, v := range views {
		_, single := v.Single()
		domain := v.Dataset().Objects[0].Bounds()
		for _, p := range v.Dataset().Objects {
			domain = domain.Union(p.Bounds())
		}
		c := geom.Rect{MinX: domain.MinX - 1, MinY: domain.MinY - 1, MaxX: domain.MaxX + 1, MaxY: domain.MaxY + 1}.Corners()
		windows := append(states, geom.MustPolygon(c[:]...))
		for qi, q := range windows {
			var want []int
			for i, p := range v.Dataset().Objects {
				if bruteIntersects(q, p) {
					want = append(want, i)
				}
			}
			results += len(want)
			for tname, cfg := range matrixTesters {
				for _, batch := range []int{1, 7, 256} {
					for _, level := range []int{-1, 0, 4} {
						tester := core.NewTester(cfg)
						var streamed []int
						opt := JoinOptions{InteriorLevel: level, BatchSize: batch,
							Sink: func(pairs []Pair) error {
								streamed = innerIDs(streamed, pairs) // copy: the slice is reused
								return nil
							}}
						name := fmt.Sprintf("%s window %d %s batch=%d level=%d", vname, qi, tname, batch, level)
						got, st, err := IntersectionSelectView(bg, v, q, tester, opt)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						sameIDs(t, name, got, want)
						if single {
							sameIDs(t, name+" stream", streamed, got)
						} else {
							sameIDs(t, name+" stream", sortedIDs(streamed), got)
						}
						if st.Results != len(got) || st.Candidates < st.Results ||
							st.FilterHits+st.FilterRejects+st.Compared != st.Candidates {
							t.Fatalf("%s: stage counts inconsistent: %+v", name, st)
						}
						checkStatsPartition(t, name, st.Stats)
						if st.IntervalChecks != 0 || st.SigChecks != 0 {
							t.Fatalf("%s: a selection ran %d interval and %d signature checks", name, st.IntervalChecks, st.SigChecks)
						}
						if st.Stats != tester.Stats || st.Tests != int64(st.Compared) {
							t.Fatalf("%s: %d tests for %d compared, tester holds %+v", name, st.Tests, st.Compared, tester.Stats)
						}
						interiorHits += st.FilterHits
					}
				}
			}
		}
		if !single && v.delta.ivalCache != nil {
			t.Errorf("%s: selections built the delta's interval column", vname)
		}
	}
	if results == 0 || interiorHits == 0 {
		t.Fatalf("windows select %d objects, %d by the interior filter; generator broken", results, interiorHits)
	}
}

// The matrix runs thousands of joins, so its layers are half the size of
// the package's (~100 candidate pairs): matrixA as a plain layer view and
// as a live view with a delta and tombstones, joined against matrixB.
var (
	matrixA = NewLayer(data.MustLoad("LANDC", 0.002))
	matrixB = NewLayer(data.MustLoad("LANDO", 0.001))
)

func matrixViews(t *testing.T) map[string]*View {
	lv := NewLive(matrixA, nil, 0, 0)
	applyScript(t, lv, map[uint64]bool{3: true, 17: true, 25: true}, matrixB.Data.Objects[:8])
	v := lv.View()
	if _, ok := v.Single(); ok {
		t.Fatal("mutated view claims to be single-component")
	}
	return map[string]*View{"layer": matrixA.View(), "live": v}
}

// oraclePairs is the nested loop over the views' canonical object lists.
func oraclePairs(a, b *View, test func(p, q *geom.Polygon) bool) []Pair {
	var want []Pair
	for i, p := range a.Dataset().Objects {
		for j, q := range b.Dataset().Objects {
			if test(p, q) {
				want = append(want, Pair{i, j})
			}
		}
	}
	return want
}

// runOracleMatrix runs kind k — with each prefilter setting in pres — over
// {inline with the caller's tester, pooled workers 1/2/8} × batch {1, 7,
// 256} × tester {sw, hw res 8, hw res 16 + SWThreshold 100} × NoIntervals
// × {layer view, live view}, and checks each run against want: the pair set in
// (A, B) order, the stage counts, and that the concatenated sink batches
// are the returned slice.
func runOracleMatrix(t *testing.T, k joinKind, pres []JoinOptions, want func(a, b *View) []Pair) {
	for vname, a := range matrixViews(t) {
		b := matrixB.View()
		w := want(a, b)
		if len(w) == 0 {
			t.Fatal("test layers do not overlap; generator broken")
		}
		_, single := a.Single()
		for tname, cfg := range matrixTesters {
			inline := core.NewTester(cfg)
			for _, workers := range []int{-1, 1, 2, 8} { // -1: inline, caller's tester
				for _, batch := range []int{1, 7, 256} {
					for _, pre := range pres {
						for knob := range 2 {
							opt := pre
							opt.Workers, opt.BatchSize = workers, batch
							opt.Tester = func() *core.Tester { return core.NewTester(cfg) }
							opt.NoIntervals = knob == 1
							var streamed []Pair
							opt.Sink = func(pairs []Pair) error {
								streamed = append(streamed, pairs...) // copy: the slice is reused
								return nil
							}
							name := fmt.Sprintf("%s %s workers=%d batch=%d %+v", vname, tname, workers, batch,
								[]bool{opt.UseHullFilter, opt.Use0Object, opt.Use1Object, opt.NoIntervals})
							tester := inline
							if workers > 0 {
								tester = nil
							}
							got, st, err := joinViews(bg, a, b, k, tester, opt)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							// Candidates run in (A, B) order, and composed
							// views sort their union.
							samePairs(t, name, got, w)
							// A composed view streams per component pair.
							if single {
								samePairs(t, name+" stream", streamed, got)
							} else {
								samePairs(t, name+" stream", sortedPairs(streamed), got)
							}
							if st.Results != len(got) || st.Candidates < st.Results ||
								st.FilterHits+st.FilterRejects+st.Compared != st.Candidates {
								t.Fatalf("%s: stage counts inconsistent: %+v", name, st)
							}
							// Inline too: the record carries what the run
							// added to the caller's tester.
							checkStatsPartition(t, name, st.Stats)
							// A composed view's remap drops tombstoned rows
							// after the executor counted them.
							emitted, n := st.StreamRowsEmitted, int64(len(streamed))
							if st.Tests != int64(st.Compared) || emitted < n || single && emitted != n {
								t.Fatalf("%s: %d tests for %d compared, %d rows emitted for %d streamed",
									name, st.Tests, st.Compared, emitted, n)
							}
						}
					}
				}
			}
		}
	}
}

func TestIntersectionJoinMatchesOracle(t *testing.T) {
	runOracleMatrix(t, intersects, []JoinOptions{{}, {UseHullFilter: true}},
		func(a, b *View) []Pair { return oraclePairs(a, b, bruteIntersects) })
}

// bruteIntersects is the intersection oracle: containment either way, or
// the all-pairs edge test on the restricted search space.
func bruteIntersects(p, q *geom.Polygon) bool {
	if !p.Bounds().Intersects(q.Bounds()) {
		return false
	}
	red, blue := sweep.CandidateEdgesInto(p, q, nil, nil)
	return sweep.ContainmentPossible(p, q) || sweep.CrossIntersectsBrute(red, blue)
}

func TestWithinDistanceJoinMatchesOracle(t *testing.T) {
	pres := []JoinOptions{{}, {Use0Object: true}, {Use1Object: true}, {Use0Object: true, Use1Object: true}}
	baseD := data.BaseD(matrixA.Data, matrixB.Data)
	for _, mult := range []float64{0.1, 1.0} {
		d := baseD * mult
		runOracleMatrix(t, withinDistance(d), pres, func(a, b *View) []Pair {
			return oraclePairs(a, b, func(p, q *geom.Polygon) bool { return dist.MinDistBrute(p, q) <= d })
		})
	}
}

func TestFiltersReduceComparisons(t *testing.T) {
	baseD := data.BaseD(layerA.Data, layerB.Data)
	sw := core.NewTester(core.Config{DisableHardware: true})
	_, noFilter, err := WithinDistanceJoinView(bg, layerA.View(), layerB.View(), baseD, sw, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, filtered, err := WithinDistanceJoinView(bg, layerA.View(), layerB.View(), baseD, sw, JoinOptions{Use0Object: true, Use1Object: true})
	if err != nil {
		t.Fatal(err)
	}
	if filtered.Compared >= noFilter.Compared {
		t.Errorf("filters did not reduce comparisons: %d vs %d", filtered.Compared, noFilter.Compared)
	}
	if filtered.FilterHits == 0 {
		t.Error("0/1-object filters identified no positives at BaseD")
	}
}

func TestNewLayer(t *testing.T) {
	if layerA.Index.Len() != len(layerA.Data.Objects) {
		t.Errorf("index size %d != objects %d", layerA.Index.Len(), len(layerA.Data.Objects))
	}
	if err := layerA.Index.Validate(); err != nil {
		t.Error(err)
	}
}
