package query

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/data"
)

// TestIntervalJoinDifferentialGrid is the interval subsystem's acceptance
// differential: across {serial, pipeline, per-pair ablation} × {intervals
// on, intervals off} × {derived grid, forced orders} × {in-memory,
// snapshot-backed} the join result must be bit-identical — the interval
// filter may only change which stage resolves a pair, never the answer.
// The snapshot-backed intervals-off leg is the v1 raster-signature path,
// so the equality also pins v2-vs-v1 result identity. Run under -race
// this additionally exercises the lazy per-layer interval build from
// concurrent pipeline workers.
func TestIntervalJoinDifferentialGrid(t *testing.T) {
	da := data.MustLoad("LANDC", 0.01)
	db := data.MustLoad("LANDO", 0.01)

	for _, backing := range []string{"memory", "snapshot"} {
		t.Run(backing, func(t *testing.T) {
			var a, b *Layer
			if backing == "snapshot" {
				a, b = snapshotLayer(t, da, false), snapshotLayer(t, db, false)
			} else {
				a, b = NewLayer(da), NewLayer(db)
			}

			// Baseline: serial join with intervals ablated. On the snapshot
			// backing this is the v1 signature path; in memory it is the
			// plain exact path.
			base := swTester()
			want, _, err := IntersectionJoinView(bg, a.View(), b.View(), base, JoinOptions{NoIntervals: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("baseline join found no pairs; differential is vacuous")
			}
			if backing == "snapshot" && base.Stats.SigChecks == 0 {
				t.Fatal("intervals-off snapshot baseline did not exercise the v1 signature path")
			}
			want = sortedPairs(want)

			// Serial with intervals on: identical result, filter engaged.
			ser := swTester()
			got, _, err := IntersectionJoinView(bg, a.View(), b.View(), ser, JoinOptions{})
			if err != nil {
				t.Fatal(err)
			}
			samePairs(t, "serial intervals", sortedPairs(got), want)
			if ser.Stats.IntervalChecks == 0 || ser.Stats.IntervalTrueHits == 0 {
				t.Fatalf("interval filter idle on %s backing: %+v", backing, ser.Stats)
			}
			checkStatsPartition(t, "serial intervals", ser.Stats)

			// Pooled, intervals on/off, grid orders.
			for _, order := range []int{0, 6, 9} {
				for _, noIval := range []bool{false, true} {
					if noIval && order != 0 {
						continue // order is meaningless with intervals off
					}
					name := fmt.Sprintf("order=%d nointervals=%v", order, noIval)
					got, stats, err := pooledJoin(a, b, JoinOptions{
						Workers: 4, Tester: swTester, NoIntervals: noIval, IntervalOrder: order,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					samePairs(t, name, got, want)
					checkStatsPartition(t, name, stats.Stats)
					if !noIval && stats.IntervalChecks == 0 {
						t.Errorf("%s: interval filter idle", name)
					}
					if noIval && stats.IntervalChecks != 0 {
						t.Errorf("%s: NoIntervals leaked %d interval checks", name, stats.IntervalChecks)
					}
				}
			}
		})
	}
}

// TestIntervalJoinDifferentialSynthetic repeats the differential on the
// synthetic layer pair (PRISM grid cells against WATER polygons), whose
// mostly-disjoint geometry stresses the reject verdict rather than LANDC
// ⋈ LANDO's true hits.
func TestIntervalJoinDifferentialSynthetic(t *testing.T) {
	a := NewLayer(data.MustLoad("PRISM", 0.02))
	b := NewLayer(data.MustLoad("WATER", 0.02))

	want, _, err := IntersectionJoinView(bg, a.View(), b.View(), swTester(), JoinOptions{NoIntervals: true})
	if err != nil {
		t.Fatal(err)
	}
	want = sortedPairs(want)

	tester := swTester()
	got, _, err := IntersectionJoinView(bg, a.View(), b.View(), tester, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "synthetic serial", sortedPairs(got), want)
	if tester.Stats.IntervalChecks == 0 {
		t.Fatalf("interval filter idle on synthetic pair: %+v", tester.Stats)
	}
	checkStatsPartition(t, "synthetic serial", tester.Stats)

	pgot, pstats, err := pooledJoin(a, b, JoinOptions{Workers: 4, Tester: swTester})
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "synthetic pipeline", pgot, want)
	checkStatsPartition(t, "synthetic pipeline", pstats.Stats)
}

// TestIntervalConcurrentLazyBuild hammers one fresh layer pair with
// concurrent joins at two different forced orders, so multiple goroutines
// race into the per-(layer, grid) lazy interval construction. Meaningful
// chiefly under -race: the per-entry once must publish each column
// exactly once, and every join must still agree with the ablated answer.
func TestIntervalConcurrentLazyBuild(t *testing.T) {
	a := NewLayer(data.MustLoad("LANDC", 0.01))
	b := NewLayer(data.MustLoad("LANDO", 0.01))
	want, _, err := IntersectionJoinView(bg, a.View(), b.View(), swTester(), JoinOptions{NoIntervals: true})
	if err != nil {
		t.Fatal(err)
	}
	want = sortedPairs(want)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			order := 0
			if i%2 == 1 {
				order = 8
			}
			got, _, err := pooledJoin(a, b, JoinOptions{
				Workers: 2, BatchSize: 64, Tester: swTester, IntervalOrder: order,
			})
			if err != nil {
				errs <- err
				return
			}
			got = sortedPairs(got)
			if len(got) != len(want) {
				errs <- fmt.Errorf("concurrent join %d: %d pairs, want %d", i, len(got), len(want))
				return
			}
			for j := range want {
				if got[j] != want[j] {
					errs <- fmt.Errorf("concurrent join %d: pair %d = %v, want %v", i, j, got[j], want[j])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
