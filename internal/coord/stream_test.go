// Streaming-merge tests: the incremental fan-out must deliver the same
// deduplicated rows a buffered fan-out returns, hold nothing in
// coordinator memory while a RowSink drains, and treat a failing sink
// (the client hung up) as a partial of the session — never as shard
// failures that trip breakers.
package coord_test

import (
	"errors"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/coord"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/query"
)

// TestCoordinatorJoinStreamMatchesBuffered pins that JoinStream hands
// out exactly the buffered Join's pair set, one pair at a time, with
// zero rows buffered coordinator-side — and that the buffered path's
// high-water mark is, as expected, the whole result set.
func TestCoordinatorJoinStreamMatchesBuffered(t *testing.T) {
	f := bootFleet(t, 4)
	c := f.coordinator(t, coord.Config{})

	buffered, err := c.Join(qctx(t), "a", "b", "")
	if err != nil {
		t.Fatalf("buffered join: %v", err)
	}
	if len(buffered.Pairs) == 0 {
		t.Fatal("buffered join found no pairs; differential is vacuous")
	}
	if buffered.MaxBuffered != len(buffered.Pairs) {
		t.Fatalf("buffered join MaxBuffered=%d, want the full result set %d",
			buffered.MaxBuffered, len(buffered.Pairs))
	}

	got := map[[2]uint64]bool{}
	res, err := c.JoinStream(qctx(t), "a", "b", "", coord.RowSink{
		Pair: func(p [2]uint64) error {
			if got[p] {
				t.Errorf("pair %v streamed twice", p)
			}
			got[p] = true
			return nil
		},
	})
	if err != nil {
		t.Fatalf("streamed join: %v", err)
	}
	if len(got) != len(buffered.Pairs) {
		t.Fatalf("streamed %d pairs, buffered join has %d", len(got), len(buffered.Pairs))
	}
	for _, p := range buffered.Pairs {
		if !got[p] {
			t.Fatalf("pair %v missing from stream", p)
		}
	}
	if res.Stats.Results != len(got) {
		t.Fatalf("streamed Stats.Results=%d, want %d", res.Stats.Results, len(got))
	}
	if len(res.Pairs) != 0 || len(res.IDs) != 0 {
		t.Fatalf("streamed result still buffered %d pairs / %d ids", len(res.Pairs), len(res.IDs))
	}
	if res.MaxBuffered != 0 {
		t.Fatalf("streamed join buffered %d rows coordinator-side, want 0", res.MaxBuffered)
	}
}

// TestCoordinatorSelectStreamDedupsUnbuffered is the selection merge
// regression: ids from overlapping tiles must arrive deduplicated
// through the incremental merge, with no coordinator-side result
// buffer — previously the whole id set was collected, sorted, and
// re-emitted after the last shard answered.
func TestCoordinatorSelectStreamDedupsUnbuffered(t *testing.T) {
	f := bootFleet(t, 4)
	c := f.coordinator(t, coord.Config{})
	// A polygon spanning the tile seams, so border replicas answer from
	// several shards and the dedup actually has work to do.
	wkt := "POLYGON((10 10, 300 10, 300 300, 10 300, 10 10))"
	q, err := geom.ParsePolygonWKT(wkt)
	if err != nil {
		t.Fatal(err)
	}

	buffered, err := c.Select(qctx(t), "a", wkt, q.Bounds())
	if err != nil {
		t.Fatalf("buffered select: %v", err)
	}
	if len(buffered.IDs) == 0 {
		t.Fatal("buffered select found no ids; regression test is vacuous")
	}
	if buffered.MaxBuffered != len(buffered.IDs) {
		t.Fatalf("buffered select MaxBuffered=%d, want %d", buffered.MaxBuffered, len(buffered.IDs))
	}

	got := map[uint64]bool{}
	res, err := c.SelectStream(qctx(t), "a", wkt, q.Bounds(), coord.RowSink{
		ID: func(id uint64) error {
			if got[id] {
				t.Errorf("id %d streamed twice: dedup lost in the incremental merge", id)
			}
			got[id] = true
			return nil
		},
	})
	if err != nil {
		t.Fatalf("streamed select: %v", err)
	}
	if len(got) != len(buffered.IDs) {
		t.Fatalf("streamed %d ids, buffered select has %d", len(got), len(buffered.IDs))
	}
	for _, id := range buffered.IDs {
		if !got[id] {
			t.Fatalf("id %d missing from stream", id)
		}
	}
	if res.Stats.Results != len(got) {
		t.Fatalf("streamed Stats.Results=%d, want %d", res.Stats.Results, len(got))
	}
	if res.MaxBuffered != 0 || len(res.IDs) != 0 {
		t.Fatalf("streamed select buffered rows coordinator-side (MaxBuffered=%d, IDs=%d), want none",
			res.MaxBuffered, len(res.IDs))
	}
}

// TestCoordinatorFailedShardContributesNoRows severs one shard's stream
// mid-response and pins the buffered merge's failed-shard isolation:
// rows stage per shard until the status line proves the stream
// complete, so the partial result contains nothing from the cut shard
// and the reported-missing tile can be re-queried and unioned in
// without double-counting a single pair. Every probe fails too, so the
// prober never finds the cut shard alive and its tile is not retried.
func TestCoordinatorFailedShardContributesNoRows(t *testing.T) {
	f := bootFleet(t, 4)
	inj := faultinject.New(7)
	// Read sequence 12 lands inside some shard's data stream (greetings
	// and timeout-arming consume the first 8 reads across the 4 shards).
	inj.InjectAt(faultinject.SiteCoordRead, faultinject.KindDisconnect, 12)
	inj.Inject(faultinject.SiteCoordProbe, faultinject.KindDisconnect, 1)
	c := f.coordinator(t, coord.Config{Faults: inj})

	res, err := c.Join(qctx(t), "a", "b", "")
	var pe *query.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("join with a severed stream returned %v, want *query.PartialError", err)
	}
	var se *coord.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("partial cause is %v, want *coord.ShardError naming the cut tile", err)
	}

	// The cut tile's full answer, straight from the shard (the injector
	// only arms coord.* sites, so the direct dial is untouched).
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	region := f.m.Region(se.Tile)
	lines, status := wireExec(t, f.addrs[se.Tile],
		fmt.Sprintf("shardjoin a b %s %s %s %s", g(region.MinX), g(region.MinY), g(region.MaxX), g(region.MaxY)))
	if status != "ok" {
		t.Fatalf("direct shard %d join answered %q", se.Tile, status)
	}
	failed := map[[2]uint64]bool{}
	for _, l := range lines {
		var a, b uint64
		if n, _ := fmt.Sscanf(l, "pair %d %d", &a, &b); n == 2 {
			failed[[2]uint64{a, b}] = true
		}
	}

	// Disjointness: nothing from the cut shard leaked into the partial
	// buffered result...
	got := map[[2]uint64]bool{}
	for _, p := range res.Pairs {
		if failed[p] {
			t.Fatalf("partial result contains pair %v from failed shard %d", p, se.Tile)
		}
		got[p] = true
	}
	// ...and re-querying just the missing tile reassembles the
	// single-node answer exactly: no pair lost, none double-counted.
	for p := range failed {
		got[p] = true
	}
	want := f.singleJoin(t)
	if len(got) != len(want) {
		t.Fatalf("partial result + failed tile = %d pairs, single-node join has %d", len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("pair %v missing from the reassembled answer", p)
		}
	}
}

// TestCoordinatorSinkFailureIsNotAShardFailure aborts a streamed join
// from the consuming side (the client hung up after a few rows) and
// pins the wind-down contract: a typed partial carrying the sink's
// error, no breaker trips on the innocent shards, and a fully whole
// answer on the very next query.
func TestCoordinatorSinkFailureIsNotAShardFailure(t *testing.T) {
	f := bootFleet(t, 4)
	c := f.coordinator(t, coord.Config{})
	want := f.singleJoin(t)

	boom := fmt.Errorf("client hung up")
	streamed := 0
	_, err := c.JoinStream(qctx(t), "a", "b", "", coord.RowSink{
		Pair: func(p [2]uint64) error {
			if !want[p] {
				t.Errorf("streamed pair %v not in single-node join", p)
			}
			if streamed >= 3 {
				return boom
			}
			streamed++
			return nil
		},
	})
	var pe *query.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("aborted stream returned %v, want *query.PartialError", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("partial cause is %v, want the sink's error", err)
	}
	if streamed != 3 {
		t.Fatalf("sink accepted %d rows before aborting, want 3", streamed)
	}

	for _, h := range c.Health() {
		if h.Fails != 0 || h.Open {
			t.Fatalf("shard %d charged for the client's disappearance: fails=%d open=%v",
				h.Tile, h.Fails, h.Open)
		}
	}

	res, err := c.Join(qctx(t), "a", "b", "")
	if err != nil {
		t.Fatalf("join after aborted stream: %v", err)
	}
	if len(res.Pairs) != len(want) {
		t.Fatalf("join after aborted stream has %d pairs, want %d", len(res.Pairs), len(want))
	}
}
