// Differential and fault tests for the scatter-gather coordinator: a
// real 4-shard fleet of spatiald servers over partitioned tile
// snapshots, queried through a real Coordinator over TCP, checked
// set-equal against the single-node answer — including objects spanning
// tile borders — and then degraded with killed shards and injected
// dial/read faults to pin the typed-partial contract: never a hang,
// never a wrong (superset or duplicated) answer.
package coord_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/partition"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
)

const (
	fleetMargin = 2.0
	fleetScale  = 0.01
)

// fleet is a booted shard deployment plus the single-node ground truth.
type fleet struct {
	m      *partition.Manifest
	addrs  []string
	shards []*server.Server
	a, b   *query.Layer // unpartitioned layers: ids == global ids
}

func bootFleet(t *testing.T, tiles int) *fleet {
	t.Helper()
	dir := t.TempDir()
	da := data.MustLoad("LANDC", fleetScale)
	db := data.MustLoad("LANDO", fleetScale)
	if _, err := partition.Write(dir, "a", da, partition.Options{Tiles: tiles, Margin: fleetMargin}); err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Write(dir, "b", db, partition.Options{Tiles: tiles, Margin: fleetMargin}); err != nil {
		t.Fatal(err)
	}
	m, err := partition.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := &fleet{m: m, a: query.NewLayer(da), b: query.NewLayer(db)}
	for _, tile := range m.Tiles {
		srv := server.New(server.Config{Addr: "127.0.0.1:0", DrainGrace: 50 * time.Millisecond})
		for _, layer := range []string{"a", "b"} {
			s, err := store.Open(filepath.Join(dir, tile.Dir, partition.SnapshotName(layer)), store.OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			l, err := query.NewLayerFromSnapshot(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Catalog().Set(layer, l); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		f.shards = append(f.shards, srv)
		f.addrs = append(f.addrs, srv.Addr().String())
	}
	t.Cleanup(func() {
		for _, srv := range f.shards {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = srv.Shutdown(ctx)
			cancel()
		}
	})
	return f
}

func (f *fleet) coordinator(t *testing.T, cfg coord.Config) *coord.Coordinator {
	t.Helper()
	cfg.Manifest = f.m
	cfg.Addrs = f.addrs
	c, err := coord.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// singleJoin computes the single-node ground truth pair set.
func (f *fleet) singleJoin(t *testing.T) map[[2]uint64]bool {
	t.Helper()
	tester := core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold})
	pairs, _, err := query.IntersectionJoinView(context.Background(), f.a.View(), f.b.View(), tester, query.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return pairSet(pairs)
}

func pairSet(pairs []query.Pair) map[[2]uint64]bool {
	set := map[[2]uint64]bool{}
	for _, p := range pairs {
		set[[2]uint64{uint64(p.A), uint64(p.B)}] = true
	}
	return set
}

// qctx bounds every coordinator call so a regression hangs the test, not
// the suite.
func qctx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestCoordinatorJoinMatchesSingleNode is the acceptance differential: a
// partitioned intersection join over 4 shards must be set-equal to the
// single-node join, border-spanning objects included.
func TestCoordinatorJoinMatchesSingleNode(t *testing.T) {
	f := bootFleet(t, 4)
	c := f.coordinator(t, coord.Config{})
	res, err := c.Join(qctx(t), "a", "b", "")
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if res.ShardsOK != 4 || res.ShardsAsked != 4 {
		t.Fatalf("shards %d/%d, want 4/4", res.ShardsOK, res.ShardsAsked)
	}
	want := f.singleJoin(t)
	if len(want) == 0 {
		t.Fatal("single-node join found no pairs; differential is vacuous")
	}
	got := map[[2]uint64]bool{}
	for _, p := range res.Pairs {
		if got[p] {
			t.Fatalf("pair %v returned twice: reference-point dedup failed", p)
		}
		got[p] = true
	}
	if len(got) != len(want) {
		t.Fatalf("coordinator join has %d pairs, single-node has %d", len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("pair %v missing from coordinator join", p)
		}
	}
	if res.Stats.Results != len(res.Pairs) {
		t.Fatalf("merged stats Results=%d, want %d", res.Stats.Results, len(res.Pairs))
	}
	if res.Stats.Tests == 0 {
		t.Fatal("merged stats lost the shards' refinement counters")
	}
	// Tile snapshots persist the v2 interval column and shard engines run
	// with intervals on by default, so the merged record must carry the
	// interval verdict counters across the wire fold.
	if res.Stats.IntervalChecks == 0 || res.Stats.IntervalTrueHits == 0 {
		t.Fatalf("merged stats lost the shards' interval counters: %+v", res.Stats)
	}
}

// TestCoordinatorSelectRoutesAndMatches pins MBR routing: a small query
// polygon must not be fanned to every tile, and the deduplicated ids
// must equal the single-node selection.
func TestCoordinatorSelectRoutesAndMatches(t *testing.T) {
	f := bootFleet(t, 4)
	c := f.coordinator(t, coord.Config{})
	wkt := "POLYGON((10 10, 40 10, 40 40, 10 40, 10 10))"
	q, err := geom.ParsePolygonWKT(wkt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Select(qctx(t), "a", wkt, q.Bounds())
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	routed := len(f.m.OverlappingTiles(q.Bounds()))
	if res.ShardsAsked != routed {
		t.Fatalf("select asked %d shards, routing says %d", res.ShardsAsked, routed)
	}
	tester := core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold})
	ids, _, err := query.IntersectionSelectView(context.Background(), f.a.View(), q, tester,
		query.SelectionOptions{InteriorLevel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatal("single-node select found nothing; differential is vacuous")
	}
	want := map[uint64]bool{}
	for _, id := range ids {
		want[uint64(id)] = true
	}
	if len(res.IDs) != len(want) {
		t.Fatalf("coordinator select has %d ids, single-node has %d", len(res.IDs), len(want))
	}
	for _, id := range res.IDs {
		if !want[id] {
			t.Fatalf("id %d not in single-node selection", id)
		}
	}
}

// TestCoordinatorWithinMatchesSingleNode differentials the within-
// distance join at a distance inside the replication margin, and pins
// the typed refusal beyond it.
func TestCoordinatorWithinMatchesSingleNode(t *testing.T) {
	f := bootFleet(t, 4)
	c := f.coordinator(t, coord.Config{})
	d := fleetMargin // the largest supported distance
	res, err := c.Within(qctx(t), "a", "b", d, "")
	if err != nil {
		t.Fatalf("within: %v", err)
	}
	tester := core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold})
	pairs, _, err := query.WithinDistanceJoinView(context.Background(), f.a.View(), f.b.View(), d, tester,
		query.JoinOptions{Use0Object: true, Use1Object: true})
	if err != nil {
		t.Fatal(err)
	}
	want := pairSet(pairs)
	if len(want) == 0 {
		t.Fatal("single-node within found no pairs; differential is vacuous")
	}
	got := map[[2]uint64]bool{}
	for _, p := range res.Pairs {
		if got[p] {
			t.Fatalf("pair %v returned twice", p)
		}
		got[p] = true
	}
	if len(got) != len(want) {
		t.Fatalf("coordinator within has %d pairs, single-node has %d", len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("pair %v missing from coordinator within", p)
		}
	}

	var me *coord.MarginError
	if _, err := c.Within(qctx(t), "a", "b", fleetMargin*3, ""); !errors.As(err, &me) {
		t.Fatalf("within beyond the margin returned %v, want *coord.MarginError", err)
	}
}

// TestWithinRefusesNaNDistance pins the margin check against a distance
// that compares false both ways: NaN is refused like a distance beyond the
// margin, before any shard is asked (the one address here serves nothing).
func TestWithinRefusesNaNDistance(t *testing.T) {
	m := &partition.Manifest{GX: 1, GY: 1, Margin: fleetMargin, Bounds: geom.R(0, 0, 100, 100)}
	c, err := coord.New(coord.Config{Manifest: m, Addrs: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for _, d := range []float64{math.NaN(), math.Inf(1), fleetMargin * 3} {
		var me *coord.MarginError
		if _, err := c.Within(qctx(t), "a", "b", d, ""); !errors.As(err, &me) {
			t.Errorf("within at d=%v returned %v, want *coord.MarginError", d, err)
		}
	}
}

// TestCoordinatorShardDownYieldsTypedPartial kills one shard process and
// pins the degradation contract: the join completes promptly, returns a
// *query.PartialError with the shard arithmetic, and the pairs are a
// strict subset of the single-node answer — never wrong, never a hang.
func TestCoordinatorShardDownYieldsTypedPartial(t *testing.T) {
	f := bootFleet(t, 4)
	c := f.coordinator(t, coord.Config{})
	down := 2
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.shards[down].Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	res, err := c.Join(qctx(t), "a", "b", "")
	var pe *query.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("join with a dead shard returned %v, want *query.PartialError", err)
	}
	if pe.Done != 3 || pe.Total != 4 {
		t.Fatalf("partial reports %d/%d shards, want 3/4", pe.Done, pe.Total)
	}
	if res.ShardsOK != 3 {
		t.Fatalf("ShardsOK = %d, want 3", res.ShardsOK)
	}
	want := f.singleJoin(t)
	for _, p := range res.Pairs {
		if !want[p] {
			t.Fatalf("partial answer invented pair %v", p)
		}
	}
	if len(res.Pairs) == 0 || len(res.Pairs) >= len(want) {
		t.Fatalf("partial answer has %d pairs of %d; want a strict non-empty subset", len(res.Pairs), len(want))
	}
}

// TestCoordinatorBreakerSkipsDeadShard pins the breaker: after enough
// consecutive failures the dead shard is skipped without dialing, and
// /metrics-visible health reports it open.
func TestCoordinatorBreakerSkipsDeadShard(t *testing.T) {
	f := bootFleet(t, 4)
	c := f.coordinator(t, coord.Config{
		BreakerCooldown: time.Minute,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.shards[1].Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; !c.Health()[1].Open; i++ {
		if i == 10 {
			t.Fatalf("shard 1 breaker not open after %d failures: %+v", i, c.Health()[1])
		}
		if _, err := c.Join(qctx(t), "a", "b", ""); err == nil {
			t.Fatal("join with a dead shard must be partial")
		}
	}
	// With the breaker open the query must still answer (fast): the dead
	// shard is skipped, the other three merge.
	start := time.Now()
	res, err := c.Join(qctx(t), "a", "b", "")
	var pe *query.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("join with an open breaker returned %v, want *query.PartialError", err)
	}
	var se *coord.ShardError
	if !errors.As(err, &se) || !errors.Is(se.Err, coord.ErrBreakerOpen) {
		t.Fatalf("partial cause is %v, want breaker-open shard error", err)
	}
	if res.ShardsOK != 3 {
		t.Fatalf("ShardsOK = %d, want 3", res.ShardsOK)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("open breaker still cost %v; the skip must not dial", d)
	}
}

// TestCoordinatorReadFaultMidResponse severs one shard connection in the
// middle of a response stream (injected at coord.read) and pins that the
// query degrades to a typed partial — and that the very next query heals
// by redialing.
func TestCoordinatorReadFaultMidResponse(t *testing.T) {
	f := bootFleet(t, 4)
	inj := faultinject.New(7)
	// Sequence numbers at coord.read count every response line read across
	// all shards (greetings and timeout-arming included); any single firing
	// severs exactly one shard's connection mid-exchange.
	inj.InjectAt(faultinject.SiteCoordRead, faultinject.KindDisconnect, 10)
	c := f.coordinator(t, coord.Config{Faults: inj})

	res, err := c.Join(qctx(t), "a", "b", "")
	var pe *query.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("join with a severed stream returned %v, want *query.PartialError", err)
	}
	if pe.Done != 3 || pe.Total != 4 {
		t.Fatalf("partial reports %d/%d shards, want 3/4", pe.Done, pe.Total)
	}
	want := f.singleJoin(t)
	for _, p := range res.Pairs {
		if !want[p] {
			t.Fatalf("severed-stream answer invented pair %v", p)
		}
	}

	// The injector fires once; the coordinator redials and the next join
	// must be whole again.
	res, err = c.Join(qctx(t), "a", "b", "")
	if err != nil {
		t.Fatalf("join after recovery: %v", err)
	}
	if len(res.Pairs) != len(want) {
		t.Fatalf("recovered join has %d pairs, want %d", len(res.Pairs), len(want))
	}
}

// TestCoordinatorShardDownInjection drives the dedicated coord.shard_down
// site: the marked shard is treated as unreachable for exactly that
// query, without consuming a dial.
func TestCoordinatorShardDownInjection(t *testing.T) {
	f := bootFleet(t, 4)
	inj := faultinject.New(11)
	inj.InjectAt(faultinject.SiteCoordShardDown, faultinject.KindDisconnect, 1)
	c := f.coordinator(t, coord.Config{Faults: inj})

	_, err := c.Join(qctx(t), "a", "b", "")
	var pe *query.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("join with injected shard-down returned %v, want *query.PartialError", err)
	}
	if pe.Done != 3 || pe.Total != 4 {
		t.Fatalf("partial reports %d/%d shards, want 3/4", pe.Done, pe.Total)
	}
	if res, err := c.Join(qctx(t), "a", "b", ""); err != nil {
		t.Fatalf("join after one-shot injection: %v", err)
	} else if res.ShardsOK != 4 {
		t.Fatalf("recovered join answered %d/4 shards", res.ShardsOK)
	}
}

// TestCoordinatorEngineEndToEnd drives the full serving stack: a
// coordinator spatiald server with shellcmd routing, queried over its
// own TCP wire protocol, must frame the merged stream exactly like a
// single node would.
func TestCoordinatorEngineEndToEnd(t *testing.T) {
	f := bootFleet(t, 4)
	c := f.coordinator(t, coord.Config{})
	front := server.New(server.Config{Addr: "127.0.0.1:0", Coordinator: c, DrainGrace: 50 * time.Millisecond})
	if err := front.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = front.Shutdown(ctx)
	})

	lines, status := wireExec(t, front.Addr().String(), "join a b")
	if status != "ok" {
		t.Fatalf("front join status %q, want ok", status)
	}
	want := f.singleJoin(t)
	npairs := 0
	for _, l := range lines {
		var a, b uint64
		if n, _ := fmt.Sscanf(l, "pair %d %d", &a, &b); n == 2 {
			npairs++
			if !want[[2]uint64{a, b}] {
				t.Fatalf("front emitted pair %d %d not in single-node join", a, b)
			}
		}
	}
	if npairs != len(want) {
		t.Fatalf("front emitted %d pairs, single-node join has %d", npairs, len(want))
	}

	if _, status := wireExec(t, front.Addr().String(), "gen x LANDC 0.01"); status == "ok" {
		t.Fatal("gen must be refused on a coordinator")
	}
}

// wireExec dials a spatiald and runs one command, returning data lines
// and the status line.
func wireExec(t *testing.T, addr, cmd string) ([]string, string) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	r := bufio.NewReader(conn)
	if _, err := r.ReadString('\n'); err != nil { // greeting
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(conn, "%s\n", cmd); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for {
		raw, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		l := strings.TrimRight(raw, "\r\n")
		if l == "ok" || strings.HasPrefix(l, "partial:") || strings.HasPrefix(l, "error:") {
			return lines, l
		}
		lines = append(lines, l)
	}
}
