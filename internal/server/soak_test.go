package server

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/partition"
	"repro/internal/query"
	"repro/internal/store"
)

// Chaos soak harness: a live spatiald under randomized faults and
// concurrent clients, run as part of the ordinary test suite with a short
// default budget and stretchable for dedicated soaks:
//
//	go test -race ./internal/server/ -run Soak -soakdur 10s
//	go test ./internal/server/ -run Soak -faultseed 12345   # replay a run
//
// The harness asserts the degradation contract end to end:
//   - benign faults (delays, panics, disconnects) never change any
//     completed query's results — every "ok" join/select reports exactly
//     the unfaulted count;
//   - wrong-answer faults at the hardware filter are caught by the
//     sentinel, trip the per-layer-pair breaker, and still never change a
//     completed query's results;
//   - after shutdown no goroutine, admission slot, queue entry, or
//     watchdog registration leaks.
var (
	soakDur  = flag.Duration("soakdur", 2*time.Second, "wall-clock budget per soak phase")
	soakSeed = flag.Int64("faultseed", 0, "soak fault-injection seed (0 = derive from the clock; the chosen seed is logged)")
)

// soakTruth is the unfaulted ground truth the soak checks every completed
// response against.
type soakTruth struct {
	join   int
	sel    int
	selWKT string
}

// soakCmd is one command in a soak client's randomized mix: the count
// format extracts the result count from a completed response ("" skips
// the parity check) and want is the unfaulted ground truth.
type soakCmd struct {
	cmd   string
	count string
	want  int
}

func TestSoak(t *testing.T) {
	seed := *soakSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("soak: -soakdur=%v -faultseed=%d (rerun with these flags to reproduce)", *soakDur, seed)

	t.Run("BenignFaults", func(t *testing.T) {
		// Delays, quarantined panics, and wire disconnects — every fault
		// class the engine claims to absorb without changing answers.
		inj := faultinject.New(seed).
			Inject(faultinject.SiteIntersects, faultinject.KindDelay, 0.02).
			Inject(faultinject.SiteRenderDraw, faultinject.KindPanic, 0.005).
			Inject(faultinject.SiteServerRead, faultinject.KindDelay, 0.05).
			Inject(faultinject.SiteServerWrite, faultinject.KindDisconnect, 0.005).
			SetDelay(200 * time.Microsecond)
		s := runSoakPhase(t, seed, inj, nil)
		if got := s.Metrics().Query().SentinelDisagreements; got != 0 {
			t.Errorf("benign faults produced %d sentinel disagreements", got)
		}
		if got := s.Metrics().Query().BreakerTrips; got != 0 {
			t.Errorf("benign faults tripped the breaker %d times", got)
		}
	})

	t.Run("WrongAnswerFaults", func(t *testing.T) {
		// The hardware filter lies on ~25% of verdicts. The sentinel
		// (cadence 1 in this server) must catch every flipped negative, trip
		// the breaker, and keep all completed counts exact. The verbs'
		// sampled dispatch sends one large pair in 32 to the card, and an
		// open breaker keeps even those off it, so the card sees little of
		// the traffic: the phase runs past its budget, by up to
		// soakOvertime, until the breaker has tripped or ten faults have
		// fired, and then asserts.
		inj := faultinject.New(seed).
			Inject(faultinject.SiteHWFilter, faultinject.KindWrongAnswer, 0.25).
			Inject(faultinject.SiteServerWrite, faultinject.KindDisconnect, 0.005)
		fired := func() int64 { return inj.Fired(faultinject.SiteHWFilter, faultinject.KindWrongAnswer) }
		s := runSoakPhase(t, seed, inj, func(s *Server) bool {
			return s.Metrics().Query().BreakerTrips > 0 || fired() >= 10
		})
		m := s.Metrics().Query()
		t.Logf("wrong-answer faults fired: %d; sentinel checks %d, disagreements %d, breaker trips %d",
			fired(), m.SentinelChecks, m.SentinelDisagreements, m.BreakerTrips)
		if fired() == 0 {
			t.Fatalf("no wrong-answer fault fired within %v; the card saw no traffic", *soakDur+soakOvertime)
		}
		if m.SentinelChecks == 0 {
			t.Error("sentinel never ran")
		}
		if m.SentinelDisagreements == 0 {
			t.Errorf("sentinel caught no disagreements despite %d wrong-answer faults", fired())
		}
		if m.BreakerTrips == 0 {
			t.Error("breaker never tripped despite sentinel disagreements")
		}
	})

	t.Run("CoordinatorFailover", func(t *testing.T) {
		// A replicated coordinator deployment under random replica kills
		// and restarts: with at least one routable replica per tile at all
		// times, every completed query must be exact and NO query may
		// degrade to a partial — and after shutdown nothing leaks.
		runCoordSoakPhase(t, seed)
	})
}

// runCoordSoakPhase runs the coordinator-mode soak: a 2-tile x 2-replica
// in-process fleet behind a coordinator front end, concurrent clients
// checking every completed count against single-node ground truth, and a
// chaos loop killing and restarting one replica at a time — waiting for
// the prober to readmit each restart before the next kill, so every tile
// always has a routable replica and the zero-partials invariant holds.
func runCoordSoakPhase(t *testing.T, seed int64) {
	baseline := runtime.NumGoroutine()
	const (
		tiles    = 2
		replicas = 2
		margin   = 2.0
		scale    = 0.01
		coordWKT = "POLYGON((10 10, 40 10, 40 40, 10 40, 10 10))"
	)
	dir := t.TempDir()
	da := data.MustLoad("LANDC", scale)
	db := data.MustLoad("LANDO", scale)
	opts := partition.Options{Tiles: tiles, Replicas: replicas, Margin: margin}
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

	// boot starts one shard over a replica directory, retrying the bind
	// briefly on restarts (the routing table pins each replica's address).
	boot := func(ti, ri int, addr string) (*Server, error) {
		var err error
		for i := 0; i < 200; i++ {
			srv := New(Config{
				Addr:          addr,
				DrainGrace:    20 * time.Millisecond,
				MaxConcurrent: 64,
				QueueWait:     2 * time.Second,
				MaxQueue:      256,
			})
			for _, layer := range []string{"a", "b"} {
				st, serr := store.Open(filepath.Join(dir, m.Tiles[ti].Replicas[ri].Dir, partition.SnapshotName(layer)), store.OpenOptions{})
				if serr != nil {
					return nil, serr
				}
				l, lerr := query.NewLayerFromSnapshot(st)
				if lerr != nil {
					return nil, lerr
				}
				if cerr := srv.Catalog().Set(layer, l); cerr != nil {
					return nil, cerr
				}
			}
			if err = srv.Start(); err == nil {
				return srv, nil
			}
			time.Sleep(10 * time.Millisecond)
		}
		return nil, err
	}
	servers := make([][]*Server, tiles)
	table := make([][]string, tiles)
	for ti := 0; ti < tiles; ti++ {
		for ri := 0; ri < replicas; ri++ {
			srv, err := boot(ti, ri, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			servers[ti] = append(servers[ti], srv)
			table[ti] = append(table[ti], srv.Addr().String())
		}
	}
	c, err := coord.New(coord.Config{
		Manifest:      m,
		ReplicaAddrs:  table,
		ProbeInterval: 20 * time.Millisecond,
		HedgeDelay:    25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := New(Config{
		Addr:            "127.0.0.1:0",
		MaxConcurrent:   4,
		QueueWait:       500 * time.Millisecond,
		MaxQueue:        8,
		QueryTimeout:    10 * time.Second,
		WatchdogTimeout: 20 * time.Second,
		DrainGrace:      50 * time.Millisecond,
		Coordinator:     c,
	})
	if err := front.Start(); err != nil {
		t.Fatal(err)
	}

	// Single-node ground truth over the unpartitioned layers.
	la, lb := query.NewLayer(da), query.NewLayer(db)
	truthCtx := context.Background()
	joinPairs, _, err := query.IntersectionJoinView(truthCtx, la.View(), lb.View(),
		core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold}), query.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := geom.ParsePolygonWKT(coordWKT)
	if err != nil {
		t.Fatal(err)
	}
	selIDs, _, err := query.IntersectionSelectView(truthCtx, la.View(), q,
		core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold}),
		query.JoinOptions{InteriorLevel: 4})
	if err != nil {
		t.Fatal(err)
	}
	const withinD = 1.5 // inside the replication margin
	withinPairs, _, err := query.WithinDistanceJoinView(truthCtx, la.View(), lb.View(), withinD,
		core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold}),
		query.JoinOptions{Use0Object: true, Use1Object: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(joinPairs) == 0 || len(selIDs) == 0 || len(withinPairs) == 0 {
		t.Fatalf("vacuous ground truth: join=%d select=%d within=%d", len(joinPairs), len(selIDs), len(withinPairs))
	}
	cmds := []soakCmd{
		{"join a b hw", "join: %d results", len(joinPairs)},
		{"join a b sw", "join: %d results", len(joinPairs)},
		{"pjoin a b", "join: %d results", len(joinPairs)}, // pjoin aliases join on a coordinator
		{fmt.Sprintf("select a %s", coordWKT), "select: %d results", len(selIDs)},
		{fmt.Sprintf("within a b %g", withinD), "within: %d results", len(withinPairs)},
		{"layers", "", 0},
		{"shards", "", 0},
	}

	// Chaos loop: kill one replica, let traffic hit the corpse, restart
	// it on the same address, wait for the prober to readmit it, repeat.
	// One victim at a time keeps >= 1 routable replica per tile — the
	// regime in which partials are forbidden.
	t0 := time.Now()
	t.Logf("chaos t0 = %s", t0.Format("15:04:05.000"))
	stamp := func() float64 { return float64(time.Since(t0).Microseconds()) / 1000 }
	stopChaos := make(chan struct{})
	chaosDone := make(chan struct{})
	var kills atomic.Int64
	go func() {
		defer close(chaosDone)
		rng := rand.New(rand.NewSource(seed ^ 0x6b6b))
		for {
			select {
			case <-stopChaos:
				return
			default:
			}
			ti, ri := rng.Intn(tiles), rng.Intn(replicas)
			t.Logf("%8.1fms chaos: killing %d/%d", stamp(), ti, ri)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := servers[ti][ri].Shutdown(ctx)
			cancel()
			if err != nil {
				t.Errorf("chaos kill %d/%d: %v", ti, ri, err)
				return
			}
			kills.Add(1)
			time.Sleep(time.Duration(20+rng.Intn(60)) * time.Millisecond)
			srv, err := boot(ti, ri, table[ti][ri])
			if err != nil {
				t.Errorf("chaos restart %d/%d: %v", ti, ri, err)
				return
			}
			servers[ti][ri] = srv
			t.Logf("%8.1fms chaos: restarted %d/%d", stamp(), ti, ri)
			idx := ti*replicas + ri
			readmit := time.Now().Add(10 * time.Second)
			for time.Now().Before(readmit) {
				if c.Health()[idx].State != coord.BreakerOpen {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			t.Logf("%8.1fms chaos: readmitted %d/%d (%s)", stamp(), ti, ri, c.Health()[idx].State)
		}
	}()
	stopMon := make(chan struct{})
	monDone := make(chan struct{})
	go func() {
		defer close(monDone)
		last := make([]string, tiles*replicas)
		for i := range last {
			last[i] = coord.BreakerClosed
		}
		for {
			select {
			case <-stopMon:
				return
			case <-time.After(time.Millisecond):
			}
			for i, h := range c.Health() {
				st := h.State
				if st == "" {
					st = coord.BreakerClosed
				}
				if st != last[i] {
					t.Logf("%8.1fms health: %d/%d %s -> %s consec=%d lastErr=%q", stamp(), h.Tile, h.Replica, last[i], st, h.ConsecFails, h.LastErr)
					last[i] = st
				}
			}
		}
	}()

	const clients = 6
	deadline := time.Now().Add(*soakDur)
	var wg sync.WaitGroup
	errs := make(chan error, clients*4)
	var completed, redials atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			soakClient(front.Addr().String(), rand.New(rand.NewSource(seed+int64(i))), deadline, cmds, true, errs, &completed, &redials)
		}(i)
	}
	wg.Wait()
	close(stopChaos)
	<-chaosDone
	close(stopMon)
	<-monDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := completed.Load(); n == 0 {
		t.Error("coordinator soak completed zero queries")
	} else {
		tot := c.Totals()
		t.Logf("coordinator soak: %d queries completed, %d replica kills, %d redials, failover totals %+v",
			n, kills.Load(), redials.Load(), tot)
	}
	if kills.Load() == 0 {
		t.Error("chaos loop killed nothing; the soak proved nothing")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := front.Shutdown(ctx); err != nil {
		t.Fatalf("front Shutdown: %v", err)
	}
	c.Close()
	for _, reps := range servers {
		for _, srv := range reps {
			sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = srv.Shutdown(sctx)
			scancel()
		}
	}
	if got := front.lim.snapshot().InFlight; got != 0 {
		t.Errorf("admission slots leaked: inFlight=%d", got)
	}
	if got := front.lim.snapshot().Queued; got != 0 {
		t.Errorf("queue entries leaked: queued=%d", got)
	}
	if got := front.dog.active(); got != 0 {
		t.Errorf("watchdog registrations leaked: active=%d", got)
	}
	waitGoroutines(t, baseline)
}

// soakOvertime bounds how long a soak phase runs past its budget while
// its until condition is false.
const soakOvertime = 30 * time.Second

// runSoakPhase runs one soak phase to completion — server up, concurrent
// clients hammering it with a mixed workload until the budget elapses
// and, when until is non-nil, on in one-second rounds while until reports
// false (for at most soakOvertime), server drained — asserting result
// parity throughout and zero leaks at the end. It returns the (stopped)
// server so phases can inspect metrics.
func runSoakPhase(t *testing.T, seed int64, inj *faultinject.Injector, until func(*Server) bool) *Server {
	baseline := runtime.NumGoroutine()
	s := New(Config{
		Addr:            "127.0.0.1:0",
		MaxConcurrent:   4,
		QueueWait:       500 * time.Millisecond,
		MaxQueue:        8,
		QueryTimeout:    10 * time.Second,
		WatchdogTimeout: 20 * time.Second,
		SentinelEvery:   1,
		Faults:          inj,
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	water, prism := preload(t, s)
	truth := soakTruth{
		join:   directJoinCount(t, water, prism),
		selWKT: e2eQueryWKT,
	}
	truth.sel = directSelectCount(t, water)

	cmds := []soakCmd{
		{"join water prism hw", "join: %d results", truth.join},
		{"join water prism sw", "join: %d results", truth.join},
		{"pjoin water prism 2", "pjoin: %d results", truth.join},
		{fmt.Sprintf("select water %s", truth.selWKT), "select: %d results", truth.sel},
		{"layers", "", 0},
		{"stats water", "", 0},
	}
	const clients = 6
	start := time.Now()
	deadline := start.Add(*soakDur)
	errs := make(chan error, clients*4)
	var completed, redials atomic.Int64
	for round := 0; ; round++ {
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				soakClient(s.Addr().String(), rand.New(rand.NewSource(seed+int64(round*clients+i))), deadline, cmds, false, errs, &completed, &redials)
			}(i)
		}
		wg.Wait()
		if until == nil || until(s) || time.Since(start) >= *soakDur+soakOvertime {
			break
		}
		deadline = time.Now().Add(time.Second)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := completed.Load(); n == 0 {
		t.Error("soak completed zero queries")
	} else {
		t.Logf("soak phase: %d queries completed, %d redials after injected disconnects", n, redials.Load())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := s.lim.snapshot().InFlight; got != 0 {
		t.Errorf("admission slots leaked: inFlight=%d", got)
	}
	if got := s.lim.snapshot().Queued; got != 0 {
		t.Errorf("queue entries leaked: queued=%d", got)
	}
	if got := s.dog.active(); got != 0 {
		t.Errorf("watchdog registrations leaked: active=%d", got)
	}
	waitGoroutines(t, baseline)
	return s
}

// directSelectCount computes the unfaulted selection ground truth over
// the soak query window, matching the shell's select options.
func directSelectCount(t *testing.T, l *query.Layer) int {
	t.Helper()
	q, err := geom.ParsePolygonWKT(e2eQueryWKT)
	if err != nil {
		t.Fatal(err)
	}
	ids, _, err := query.IntersectionSelectView(context.Background(), l.View(), q,
		core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold}),
		query.JoinOptions{InteriorLevel: 4})
	if err != nil {
		t.Fatal(err)
	}
	return len(ids)
}

// soakClient hammers the server with a randomized command mix until the
// deadline, checking every completed response against the ground truth.
// Injected disconnects are survived by redialing; overloads and shutdown
// errors are accepted outcomes. Partials are accepted too unless
// noPartial is set — the coordinator soak's invariant that a fleet with
// a routable replica per tile never degrades.
func soakClient(addr string, rng *rand.Rand, deadline time.Time, commands []soakCmd, noPartial bool, errs chan<- error, completed, redials *atomic.Int64) {
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf("[%s] "+format, append([]any{time.Now().Format("15:04:05.000")}, args...)...):
		default: // enough failures reported already
		}
	}
	var c *wireClient
	dial := func() bool {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			fail("soak dial: %v", err)
			return false
		}
		nc := &wireClient{conn: conn, r: bufio.NewReader(conn)}
		if _, err := nc.r.ReadString('\n'); err != nil {
			conn.Close()
			return false // server draining or injected accept fault; retry
		}
		c = nc
		return true
	}
	if !dial() {
		return
	}
	defer func() { c.conn.Close() }()

	for time.Now().Before(deadline) {
		pick := commands[rng.Intn(len(commands))]
		if err := c.send(pick.cmd); err != nil {
			c.conn.Close()
			redials.Add(1)
			if !dial() {
				return
			}
			continue
		}
		lines, status, err := c.readResponse()
		if err != nil {
			// Injected mid-response disconnect: reconnect and carry on.
			c.conn.Close()
			redials.Add(1)
			if !dial() {
				return
			}
			continue
		}
		switch {
		case status == "ok":
			if pick.count != "" {
				found := false
				for _, l := range lines {
					var n int
					if _, serr := fmt.Sscanf(l, pick.count, &n); serr == nil {
						found = true
						if n != pick.want {
							fail("soak parity: %q returned %d results, want %d (status %q)", pick.cmd, n, pick.want, status)
						}
						break
					}
				}
				if !found {
					fail("soak: %q ok response missing count line (lines %q)", pick.cmd, lines)
				}
			}
			completed.Add(1)
		case strings.HasPrefix(status, "partial:"):
			// Interrupted queries are a legitimate outcome on a single node;
			// their (partial) counts are not checked. In the coordinator soak
			// a partial means failover failed to cover a tile that had a live
			// replica — the invariant under test.
			if noPartial {
				fail("soak: %q degraded to %q with a routable replica per tile", pick.cmd, status)
			}
		case strings.HasPrefix(status, "error: overloaded"),
			strings.HasPrefix(status, "error: shutting down"):
			// Admission rejection under load, or the phase ending.
		case strings.HasPrefix(status, "error:"):
			fail("soak: %q -> unexpected %q", pick.cmd, status)
		default:
			fail("soak: %q -> unrecognized status %q", pick.cmd, status)
		}
	}
	_ = c.send("quit")
	_, _, _ = c.readResponse()
}
