// Failover chaos tests: replicated fleets — R live spatiald processes
// per tile, each serving the bit-identical replica snapshots written by
// partition.Write — degraded by killed processes, injected per-replica
// faults, silent shards, and restarts. The contract under test is the
// replication headline: with R=2, killing any ONE shard of a tile —
// before or in the middle of a query — yields a COMPLETE, bit-identical
// answer, never a partial; the typed-partial degradation is reserved
// for tiles with every replica down. The prober tests pin the background
// loop: probes alone open a silent replica's breaker, and a restarted
// replica re-enters rotation through a probe success.
package coord_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
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

// repFleet is a booted replicated deployment: servers[t][r] serves
// replica r of tile t, table[t][r] is its (stable) address, and a/b are
// the unpartitioned ground-truth layers.
type repFleet struct {
	t       *testing.T
	dir     string
	m       *partition.Manifest
	table   [][]string
	servers [][]*server.Server
	a, b    *query.Layer
}

func bootReplicatedFleet(t *testing.T, tiles, replicas int) *repFleet {
	t.Helper()
	dir := t.TempDir()
	da := data.MustLoad("LANDC", fleetScale)
	db := data.MustLoad("LANDO", fleetScale)
	opts := partition.Options{Tiles: tiles, Replicas: replicas, Margin: fleetMargin}
	if _, err := partition.Write(dir, "a", da, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Write(dir, "b", db, opts); err != nil {
		t.Fatal(err)
	}
	m, err := partition.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := &repFleet{t: t, dir: dir, m: m, a: query.NewLayer(da), b: query.NewLayer(db)}
	f.servers = make([][]*server.Server, len(m.Tiles))
	f.table = make([][]string, len(m.Tiles))
	for ti, tile := range m.Tiles {
		for _, rep := range tile.Replicas {
			srv := f.boot(rep.Dir, "127.0.0.1:0")
			f.servers[ti] = append(f.servers[ti], srv)
			f.table[ti] = append(f.table[ti], srv.Addr().String())
		}
	}
	t.Cleanup(func() {
		for _, reps := range f.servers {
			for _, srv := range reps {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				_ = srv.Shutdown(ctx) // already-killed replicas error; ignore
				cancel()
			}
		}
	})
	return f
}

// boot starts one shard process over a replica directory's snapshots.
// The addr is fixed on restart (the coordinator's routing table never
// changes), so binding retries briefly while the old socket tears down.
func (f *repFleet) boot(repDir, addr string) *server.Server {
	f.t.Helper()
	var err error
	for i := 0; i < 200; i++ {
		srv := server.New(server.Config{Addr: addr, DrainGrace: 20 * time.Millisecond})
		for _, layer := range []string{"a", "b"} {
			s, serr := store.Open(filepath.Join(f.dir, repDir, partition.SnapshotName(layer)), store.OpenOptions{})
			if serr != nil {
				f.t.Fatal(serr)
			}
			l, lerr := query.NewLayerFromSnapshot(s)
			if lerr != nil {
				f.t.Fatal(lerr)
			}
			if cerr := srv.Catalog().Set(layer, l); cerr != nil {
				f.t.Fatal(cerr)
			}
		}
		if err = srv.Start(); err == nil {
			return srv
		}
		time.Sleep(10 * time.Millisecond)
	}
	f.t.Fatalf("boot shard %s on %s: %v", repDir, addr, err)
	return nil
}

// kill shuts one replica process down; its address stays in the routing
// table, modeling a crashed-but-not-deregistered shard.
func (f *repFleet) kill(tile, rep int) {
	f.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.servers[tile][rep].Shutdown(ctx); err != nil {
		f.t.Fatal(err)
	}
}

// restart boots a killed replica again on its original address.
func (f *repFleet) restart(tile, rep int) {
	f.t.Helper()
	f.servers[tile][rep] = f.boot(f.m.Tiles[tile].Replicas[rep].Dir, f.table[tile][rep])
}

func (f *repFleet) coordinator(t *testing.T, cfg coord.Config) *coord.Coordinator {
	t.Helper()
	cfg.Manifest = f.m
	cfg.ReplicaAddrs = f.table
	c, err := coord.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// singleJoinPairs computes the single-node ground-truth pair set.
func singleJoinPairs(t *testing.T, a, b *query.Layer) map[[2]uint64]bool {
	t.Helper()
	tester := core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold})
	pairs, _, err := query.IntersectionJoinView(context.Background(), a.View(), b.View(), tester, query.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return pairSet(pairs)
}

// TestFailoverHealthReportsReplicaTable pins the Health surface of a
// replicated deployment: tile-major, primary first, every breaker
// closed at boot — the ordering the shards verb and /metrics labels
// render.
func TestFailoverHealthReportsReplicaTable(t *testing.T) {
	f := bootReplicatedFleet(t, 2, 2)
	c := f.coordinator(t, coord.Config{})
	hs := c.Health()
	if len(hs) != 4 {
		t.Fatalf("Health has %d entries for 2 tiles x 2 replicas", len(hs))
	}
	for i, h := range hs {
		wantTile, wantRep := i/2, i%2
		if h.Tile != wantTile || h.Replica != wantRep {
			t.Fatalf("Health[%d] is tile %d replica %d, want %d/%d", i, h.Tile, h.Replica, wantTile, wantRep)
		}
		wantRole := "primary"
		if wantRep > 0 {
			wantRole = "replica"
		}
		if h.Role != wantRole {
			t.Fatalf("Health[%d] role %q, want %q", i, h.Role, wantRole)
		}
		if h.State != coord.BreakerClosed || h.Open {
			t.Fatalf("Health[%d] boots in state %q (open=%v), want closed", i, h.State, h.Open)
		}
		if h.Addr != f.table[wantTile][wantRep] {
			t.Fatalf("Health[%d] addr %q, want %q", i, h.Addr, f.table[wantTile][wantRep])
		}
	}
}

// TestFailoverKillOneReplicaCompletes is the headline acceptance: with
// R=2, killing a tile's primary must leave join, select, and within
// COMPLETE (err == nil, all shards accounted) and bit-identical to the
// healthy answers, with the failover visible in the retry counter and
// the corpse's failure count.
func TestFailoverKillOneReplicaCompletes(t *testing.T) {
	f := bootReplicatedFleet(t, 4, 2)
	c := f.coordinator(t, coord.Config{})

	healthyJoin, err := c.Join(qctx(t), "a", "b", "")
	if err != nil {
		t.Fatalf("healthy join: %v", err)
	}
	want := singleJoinPairs(t, f.a, f.b)
	if len(want) == 0 || len(healthyJoin.Pairs) != len(want) {
		t.Fatalf("healthy join has %d pairs, single-node has %d", len(healthyJoin.Pairs), len(want))
	}
	wkt := "POLYGON((10 10, 40 10, 40 40, 10 40, 10 10))"
	q, err := geom.ParsePolygonWKT(wkt)
	if err != nil {
		t.Fatal(err)
	}
	healthySel, err := c.Select(qctx(t), "a", wkt, q.Bounds())
	if err != nil {
		t.Fatalf("healthy select: %v", err)
	}
	healthyWithin, err := c.Within(qctx(t), "a", "b", fleetMargin, "")
	if err != nil {
		t.Fatalf("healthy within: %v", err)
	}

	// Kill tile 2's primary: every query touching tile 2 must now fail
	// over to its replica.
	f.kill(2, 0)

	degJoin, err := c.Join(qctx(t), "a", "b", "")
	if err != nil {
		t.Fatalf("join with a killed primary: %v (want a complete answer)", err)
	}
	if degJoin.ShardsOK != 4 || degJoin.ShardsAsked != 4 {
		t.Fatalf("degraded join answered %d/%d shards, want 4/4", degJoin.ShardsOK, degJoin.ShardsAsked)
	}
	if !reflect.DeepEqual(degJoin.Pairs, healthyJoin.Pairs) {
		t.Fatal("degraded join is not bit-identical to the healthy join")
	}
	degSel, err := c.Select(qctx(t), "a", wkt, q.Bounds())
	if err != nil {
		t.Fatalf("select with a killed primary: %v", err)
	}
	if !reflect.DeepEqual(degSel.IDs, healthySel.IDs) {
		t.Fatal("degraded select is not bit-identical to the healthy select")
	}
	degWithin, err := c.Within(qctx(t), "a", "b", fleetMargin, "")
	if err != nil {
		t.Fatalf("within with a killed primary: %v", err)
	}
	if !reflect.DeepEqual(degWithin.Pairs, healthyWithin.Pairs) {
		t.Fatal("degraded within is not bit-identical to the healthy within")
	}

	if c.Totals().Retries == 0 {
		t.Error("failover served queries without counting a single retry")
	}
	if h := c.Health()[2*2]; h.Fails == 0 {
		t.Errorf("the killed primary was never charged a failure: %+v", h)
	}
}

// TestFailoverAllReplicasDownTypedPartial pins where replication's cover
// ends: with every replica of one tile dead the query degrades to the
// same typed partial an unreplicated deployment reports — a strict,
// never-wrong subset, with the shard arithmetic intact.
func TestFailoverAllReplicasDownTypedPartial(t *testing.T) {
	f := bootReplicatedFleet(t, 4, 2)
	c := f.coordinator(t, coord.Config{})
	f.kill(1, 0)
	f.kill(1, 1)

	res, err := c.Join(qctx(t), "a", "b", "")
	var pe *query.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("join with every replica of tile 1 dead returned %v, want *query.PartialError", err)
	}
	if pe.Done != 3 || pe.Total != 4 {
		t.Fatalf("partial reports %d/%d shards, want 3/4", pe.Done, pe.Total)
	}
	if res.ShardsOK != 3 {
		t.Fatalf("ShardsOK = %d, want 3", res.ShardsOK)
	}
	want := singleJoinPairs(t, f.a, f.b)
	for _, p := range res.Pairs {
		if !want[p] {
			t.Fatalf("partial answer invented pair %v", p)
		}
	}
	if len(res.Pairs) == 0 || len(res.Pairs) >= len(want) {
		t.Fatalf("partial answer has %d pairs of %d; want a strict non-empty subset", len(res.Pairs), len(want))
	}
}

// TestFailoverReplicaDownInjection drives the coord.replica_down seam
// from both sides: a replicated tile absorbs one injected single-attempt
// fault on its next replica at once (complete answer, one retry), and an
// unreplicated tile asks its lone replica again once the probe the
// stalled tile asks for finds it alive (complete answer, one retry, after
// a probe).
func TestFailoverReplicaDownInjection(t *testing.T) {
	t.Run("R2Absorbs", func(t *testing.T) {
		f := bootReplicatedFleet(t, 2, 2)
		inj := faultinject.New(5)
		inj.InjectAt(faultinject.SiteCoordReplicaDown, faultinject.KindDisconnect, 0)
		c := f.coordinator(t, coord.Config{Faults: inj})
		res, err := c.Join(qctx(t), "a", "b", "")
		if err != nil {
			t.Fatalf("replicated join with one injected replica-down returned %v, want complete", err)
		}
		if res.ShardsOK != 2 {
			t.Fatalf("ShardsOK = %d, want 2", res.ShardsOK)
		}
		want := singleJoinPairs(t, f.a, f.b)
		if len(res.Pairs) != len(want) {
			t.Fatalf("join has %d pairs, single-node has %d", len(res.Pairs), len(want))
		}
		if got := c.Totals().Retries; got != 1 {
			t.Fatalf("Totals().Retries = %d, want exactly 1", got)
		}
	})
	t.Run("R1RetriesAfterProbe", func(t *testing.T) {
		f := bootReplicatedFleet(t, 2, 1)
		inj := faultinject.New(5)
		inj.InjectAt(faultinject.SiteCoordReplicaDown, faultinject.KindDisconnect, 0)
		c := f.coordinator(t, coord.Config{Faults: inj, ProbeInterval: time.Hour})
		res, err := c.Join(qctx(t), "a", "b", "")
		if err != nil {
			t.Fatalf("unreplicated join with one injected replica-down returned %v, want complete", err)
		}
		want := singleJoinPairs(t, f.a, f.b)
		if res.ShardsOK != 2 || len(res.Pairs) != len(want) {
			t.Fatalf("join answered %d/2 shards with %d pairs, single-node has %d", res.ShardsOK, len(res.Pairs), len(want))
		}
		if tot := c.Totals(); tot.Retries != 1 || tot.Probes != 1 {
			t.Fatalf("Totals() = %+v, want exactly 1 retry after 1 probe", tot)
		}
	})
}

// TestFailoverMidStreamReadFaultNoDuplicates severs one replica's
// connection in the middle of its response stream and pins the
// streaming-mode replay contract: the retry re-delivers rows the dead
// attempt already pushed, the merger's dedup suppresses them, and the
// client sees a COMPLETE answer with every pair exactly once.
func TestFailoverMidStreamReadFaultNoDuplicates(t *testing.T) {
	f := bootReplicatedFleet(t, 4, 2)
	inj := faultinject.New(7)
	// Sequence numbers at coord.read count every response line read across
	// all replicas (greetings and timeout-arming included); one firing
	// severs a single attempt mid-exchange.
	inj.InjectAt(faultinject.SiteCoordRead, faultinject.KindDisconnect, 12)
	c := f.coordinator(t, coord.Config{Faults: inj})

	var pairs [][2]uint64
	sink := coord.RowSink{Pair: func(p [2]uint64) error {
		pairs = append(pairs, p)
		return nil
	}}
	res, err := c.JoinStream(qctx(t), "a", "b", "", sink)
	if err != nil {
		t.Fatalf("streamed join with a severed attempt returned %v, want complete (failover)", err)
	}
	if res.ShardsOK != 4 {
		t.Fatalf("ShardsOK = %d, want 4", res.ShardsOK)
	}
	want := singleJoinPairs(t, f.a, f.b)
	got := map[[2]uint64]bool{}
	for _, p := range pairs {
		if got[p] {
			t.Fatalf("pair %v streamed twice: replay dedup failed", p)
		}
		got[p] = true
		if !want[p] {
			t.Fatalf("streamed pair %v not in the single-node join", p)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d distinct pairs, single-node join has %d", len(got), len(want))
	}
	if inj.Fired(faultinject.SiteCoordRead, faultinject.KindDisconnect) == 0 {
		t.Fatal("the read fault never fired; the test proved nothing")
	}
}

// stubSilentShard is a listener that greets like a spatiald and then
// never answers anything — the pathological slow replica.
func stubSilentShard(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				fmt.Fprintf(c, "spatiald ready\n")
				_, _ = io.Copy(io.Discard, c) // swallow commands, answer nothing
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestCloseCutsOffProbeInFlight: Close must not wait out the deadlines of
// a probe stuck on a replica that greets and then goes silent. It closes
// the probe's connection, the probe it cut off is not charged to the
// replica's breaker, and no goroutine is left behind — the stub's session
// included, which ends when the coordinator hangs up.
func TestCloseCutsOffProbeInFlight(t *testing.T) {
	stub := stubSilentShard(t)
	baseline := runtime.NumGoroutine()
	c, err := coord.New(coord.Config{
		Manifest:      &partition.Manifest{GX: 1, GY: 1, Bounds: geom.R(0, 0, 100, 100)},
		Addrs:         []string{stub},
		ProbeInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Totals().Probes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no probe began")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	c.Close()
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close took %v with a probe on a silent replica", took)
	}
	if h := c.Health()[0]; h.Fails != 0 || h.State != coord.BreakerClosed {
		t.Errorf("the probe Close cut off was charged: %+v", h)
	}
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before New\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailoverProbesOpenSilentReplica routes tile 0's primary slot to a
// shard that accepts and then goes silent. An attempt on it that the
// query's own context cuts off is not charged to its breaker; the probes
// alone, with no query traffic, must open that breaker (each probe times
// out after dialTimeout), and the next join then completes from tile 0's
// second replica, pair for pair the single-node join.
func TestFailoverProbesOpenSilentReplica(t *testing.T) {
	f := bootFleet(t, 2)
	stub := stubSilentShard(t)
	table := [][]string{{stub, f.addrs[0]}, {f.addrs[1]}}

	// A prober a minute away leaves the cut-off attempt the only traffic.
	quiet := f.coordinator(t, coord.Config{ReplicaAddrs: table, ProbeInterval: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	_, err := quiet.Join(ctx, "a", "b", "")
	cancel()
	var pe *query.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("join stalled on a silent primary returned %v, want *query.PartialError", err)
	}
	if h := quiet.Health()[0]; h.Queries != 1 || h.Fails != 0 || h.State != coord.BreakerClosed {
		t.Fatalf("an attempt cut off by its query's context was charged: %+v", h)
	}
	quiet.Close()

	c := f.coordinator(t, coord.Config{ReplicaAddrs: table, ProbeInterval: 20 * time.Millisecond})
	waitHealth(t, c, 0, func(h coord.Health) bool { return h.State == coord.BreakerOpen },
		"probes never opened the silent replica's breaker")
	if h := c.Health()[0]; h.Queries != 0 {
		t.Fatalf("the silent replica saw query traffic before its breaker opened: %+v", h)
	}
	res, err := c.Join(qctx(t), "a", "b", "")
	if err != nil {
		t.Fatalf("join past a probe-opened silent replica: %v", err)
	}
	if res.ShardsOK != 2 {
		t.Fatalf("ShardsOK = %d, want 2", res.ShardsOK)
	}
	want := f.singleJoin(t)
	if len(res.Pairs) != len(want) {
		t.Fatalf("join has %d pairs, single-node has %d", len(res.Pairs), len(want))
	}
	for _, p := range res.Pairs {
		if !want[p] {
			t.Fatalf("pair %v not in the single-node join", p)
		}
	}
}

// TestFailoverProberRecovery pins the recovery loop end to end: probes
// alone must open a dead replica's breaker, a restart must re-enter rotation via a
// probe success (half-open), and the first real query closes it.
func TestFailoverProberRecovery(t *testing.T) {
	f := bootReplicatedFleet(t, 2, 1)
	c := f.coordinator(t, coord.Config{
		ProbeInterval: 15 * time.Millisecond,
	})

	f.kill(1, 0)
	waitHealth(t, c, 1, func(h coord.Health) bool { return h.State == coord.BreakerOpen },
		"probes never opened the dead replica's breaker")

	// With the breaker open (and no query traffic having touched the
	// corpse) the join degrades to the typed partial without dialing.
	_, err := c.Join(qctx(t), "a", "b", "")
	var pe *query.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("join with a probe-opened breaker returned %v, want *query.PartialError", err)
	}

	f.restart(1, 0)
	waitHealth(t, c, 1, func(h coord.Health) bool { return h.State == coord.BreakerHalfOpen },
		"a probe success never half-opened the restarted replica's breaker")

	res, err := c.Join(qctx(t), "a", "b", "")
	if err != nil {
		t.Fatalf("join after prober readmission: %v", err)
	}
	if res.ShardsOK != 2 {
		t.Fatalf("ShardsOK = %d, want 2", res.ShardsOK)
	}
	want := singleJoinPairs(t, f.a, f.b)
	if len(res.Pairs) != len(want) {
		t.Fatalf("recovered join has %d pairs, single-node has %d", len(res.Pairs), len(want))
	}
	if h := c.Health()[1]; h.State != coord.BreakerClosed || h.ConsecFails != 0 {
		t.Fatalf("trial success did not close the breaker: %+v", h)
	}
	tot := c.Totals()
	if tot.Probes == 0 || tot.ProbeFails == 0 {
		t.Fatalf("probe counters %+v; want probes and probe failures recorded", tot)
	}
}

// waitHealth polls one replica's Health until cond holds.
func waitHealth(t *testing.T, c *coord.Coordinator, idx int, cond func(coord.Health) bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond(c.Health()[idx]) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s: %+v", msg, c.Health()[idx])
}

// TestFailoverChaosKillAnyOneShard is the kill-any-one acceptance loop:
// four rounds each kill a different replica (never two of one tile) in
// the MIDDLE of a running join, at varying points of the stream; every
// join must come back complete and bit-identical to the healthy
// baseline, including the final round where every tile has exactly one
// corpse. Run with -race in CI.
func TestFailoverChaosKillAnyOneShard(t *testing.T) {
	f := bootReplicatedFleet(t, 4, 2)
	c := f.coordinator(t, coord.Config{})
	baseline, err := c.Join(qctx(t), "a", "b", "")
	if err != nil {
		t.Fatalf("healthy baseline join: %v", err)
	}
	want := singleJoinPairs(t, f.a, f.b)
	if len(baseline.Pairs) != len(want) {
		t.Fatalf("baseline join has %d pairs, single-node has %d", len(baseline.Pairs), len(want))
	}

	type out struct {
		res coord.Result
		err error
	}
	for round := 0; round < 4; round++ {
		done := make(chan out, 1)
		go func() {
			res, err := c.Join(qctx(t), "a", "b", "")
			done <- out{res, err}
		}()
		// Vary where in the stream the kill lands round to round.
		time.Sleep(time.Duration(round) * 2 * time.Millisecond)
		f.kill(round, round%2)
		o := <-done
		if o.err != nil {
			t.Fatalf("round %d: join with replica %d/%d killed mid-query returned %v, want complete",
				round, round, round%2, o.err)
		}
		if o.res.ShardsOK != 4 {
			t.Fatalf("round %d: ShardsOK = %d, want 4", round, o.res.ShardsOK)
		}
		if !reflect.DeepEqual(o.res.Pairs, baseline.Pairs) {
			t.Fatalf("round %d: mid-kill join is not bit-identical to the baseline", round)
		}
	}

	// Every tile now has exactly one live replica; the fleet must still
	// answer completely, joins and selections alike.
	res, err := c.Join(qctx(t), "a", "b", "")
	if err != nil {
		t.Fatalf("join with one corpse per tile: %v", err)
	}
	if !reflect.DeepEqual(res.Pairs, baseline.Pairs) {
		t.Fatal("single-survivor join is not bit-identical to the baseline")
	}
	wres, err := c.Within(qctx(t), "a", "b", fleetMargin, "")
	if err != nil {
		t.Fatalf("within with one corpse per tile: %v", err)
	}
	if wres.ShardsOK != 4 {
		t.Fatalf("within answered %d/4 shards", wres.ShardsOK)
	}
}
