package coord

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/partition"
	"repro/internal/query"
)

func TestRowCodecRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 42, math.MaxUint64 - 1, math.MaxUint64}
	for _, a := range vals {
		line := AppendIDRow(nil, a)
		if want := fmt.Sprintf("id %d\n", a); string(line) != want {
			t.Fatalf("AppendIDRow(%d) = %q, want %q", a, line, want)
		}
		for _, end := range []string{"", "\r", " ", " \t \r"} {
			kind, got, _, err := parseRow([]byte(strings.TrimSuffix(string(line), "\n") + end))
			if err != nil || kind != rowID || got != a {
				t.Fatalf("id %d with ending %q parsed as kind %d value %d, %v", a, end, kind, got, err)
			}
		}
		for _, b := range vals {
			line := AppendPairRow(nil, a, b)
			if want := fmt.Sprintf("pair %d %d\n", a, b); string(line) != want {
				t.Fatalf("AppendPairRow(%d, %d) = %q, want %q", a, b, line, want)
			}
			for _, end := range []string{"", "\r", "  ", "\t\r"} {
				kind, ga, gb, err := parseRow([]byte(strings.TrimSuffix(string(line), "\n") + end))
				if err != nil || kind != rowPair || ga != a || gb != b {
					t.Fatalf("pair %d %d with ending %q parsed as kind %d (%d, %d), %v", a, b, end, kind, ga, gb, err)
				}
			}
		}
	}
	for _, line := range []string{"", "stats {\"op\":\"shardjoin\"}", "stats", "note: context deadline exceeded (results above are partial)",
		"sub 1 ok: join", "ids 4", "pairs 1 2", "idle", "ID 4", " id 4"} {
		if kind, _, _, err := parseRow([]byte(line)); err != nil || kind != rowOther {
			t.Errorf("%q parsed as kind %d, %v; want it ignored", line, kind, err)
		}
	}
	for _, line := range []string{"id", "id ", "id x", "id -1", "id +1", "id 1 2", "id 18446744073709551616", "id 1_0",
		"pair", "pair 1", "pair 1 ", "pair 1 2 3", "pair 1 x", "pair x 1", "pair 18446744073709551616 1", "pair 1 99999999999999999999"} {
		if kind, _, _, err := parseRow([]byte(line)); err == nil {
			t.Errorf("%q parsed as kind %d, want an error", line, kind)
		}
	}
}

// parseLineOracle is the string-splitting row parser this package used
// before parseRow, kept as the fuzz target's reference.
func parseLineOracle(line string) (kind rowKind, a, b uint64, err error) {
	word, rest, _ := strings.Cut(line, " ")
	switch word {
	case "id":
		id, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			return rowOther, 0, 0, err
		}
		return rowID, id, 0, nil
	case "pair":
		af, bf, ok := strings.Cut(strings.TrimSpace(rest), " ")
		if !ok {
			return rowOther, 0, 0, fmt.Errorf("bad pair line %q", line)
		}
		a, err := strconv.ParseUint(af, 10, 64)
		if err != nil {
			return rowOther, 0, 0, err
		}
		b, err := strconv.ParseUint(strings.TrimSpace(bf), 10, 64)
		if err != nil {
			return rowOther, 0, 0, err
		}
		return rowPair, a, b, nil
	}
	return rowOther, 0, 0, nil
}

func FuzzParseRow(f *testing.F) {
	for _, s := range []string{"id 7", "pair 1 2", "pair 18446744073709551615 0", "id 18446744073709551616", "pair  3   4 \r",
		"id\t5", "pair 1 2", "id  5", "stats {}", "note: x", "ok", "pair 1", "id", "", "pair 1 2 3", "id 0x10", "pair +1 2"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		kind, a, b, err := parseRow(line)
		wkind, wa, wb, werr := parseLineOracle(string(line))
		if (err != nil) != (werr != nil) || kind != wkind || a != wa || b != wb {
			t.Fatalf("parseRow(%q) = kind %d (%d, %d) err %v; the string parser says kind %d (%d, %d) err %v",
				line, kind, a, b, err, wkind, wa, wb, werr)
		}
	})
}

// TestParseMergeSteadyStateAllocFree pins the per-row cost of the
// coordinator's read side: once the staging slices and the dedup sets
// have their size, decoding a chunk of rows and committing it through a
// sink allocates nothing.
func TestParseMergeSteadyStateAllocFree(t *testing.T) {
	var chunk [][]byte
	for i := uint64(0); i < 256; i++ {
		chunk = append(chunk, bytes.TrimSuffix(AppendPairRow(nil, i, i*7), []byte("\n")))
		chunk = append(chunk, bytes.TrimSuffix(AppendIDRow(nil, i), []byte("\n")))
	}
	rows := 0
	m := &merger{idSet: map[uint64]bool{}, pairSet: map[[2]uint64]bool{}, res: &Result{}, sink: RowSink{
		ID:    func(uint64) error { rows++; return nil },
		Pair:  func([2]uint64) error { rows++; return nil },
		Flush: func() error { return nil },
	}}
	var ans shardAnswer
	pass := func() {
		for _, line := range chunk {
			if err := ans.stage(line); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.commit(ans.ids, ans.pairs); err != nil {
			t.Fatal(err)
		}
		ans.ids, ans.pairs = ans.ids[:0], ans.pairs[:0]
	}
	pass()
	if rows != len(chunk) {
		t.Fatalf("sink saw %d rows of %d", rows, len(chunk))
	}
	if n := testing.AllocsPerRun(20, pass); n != 0 {
		t.Fatalf("%v allocations per chunk of %d rows, want 0", n, len(chunk))
	}
	if rows != len(chunk) {
		t.Fatalf("replayed rows got past the dedup: %d", rows)
	}
}

// scriptedShard is a fake spatiald on a loopback listener. It greets,
// answers "timeout" with ok and every other command with one pair row,
// empty stats and ok, counting connections, timeout exchanges and
// queries. A draining spatiald answers with "error: shutting down" and
// hangs up: refuseArm makes every timeout exchange do that, and
// drainThrough makes every connection numbered up to it do that on its
// next line — sessions a restart left behind in the coordinator's pool.
// hang makes a query wait, counted in hung, until die is closed and then
// hang up unanswered: a process killed mid-query. greetDelay holds every
// greeting back: a shard on a host too loaded to answer a probe within the
// coordinator's recovery wait. interrupted makes every query answer
// "partial: context canceled", as a shard draining mid-query does.
type scriptedShard struct {
	addr                     string
	conns, timeouts, queries atomic.Int64
	drainThrough             atomic.Int64
	refuseArm                atomic.Bool
	hang                     atomic.Bool
	hung                     atomic.Int64
	die                      chan struct{}
	greetDelay               atomic.Int64 // nanoseconds
	interrupted              atomic.Bool
}

func newScriptedShard(t *testing.T) *scriptedShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	s := &scriptedShard{addr: ln.Addr().String(), die: make(chan struct{})}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n := s.conns.Add(1)
			go func() {
				defer conn.Close()
				time.Sleep(time.Duration(s.greetDelay.Load()))
				fmt.Fprintln(conn, "spatiald ready")
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					arm := strings.HasPrefix(sc.Text(), "timeout ")
					if n <= s.drainThrough.Load() || arm && s.refuseArm.Load() {
						fmt.Fprintln(conn, "error: shutting down")
						return
					}
					if arm {
						s.timeouts.Add(1)
						fmt.Fprintln(conn, "ok")
						continue
					}
					if s.hang.Load() {
						s.hung.Add(1)
						<-s.die
						return
					}
					s.queries.Add(1)
					if s.interrupted.Load() {
						fmt.Fprint(conn, "stats {}\npartial: context canceled\n")
						continue
					}
					fmt.Fprint(conn, "pair 1 2\nstats {}\nok\n")
				}
			}()
		}
	}()
	return s
}

func newMerger() *merger {
	return &merger{idSet: map[uint64]bool{}, pairSet: map[[2]uint64]bool{}, res: &Result{}}
}

// TestSessionTimeoutArmedOncePerConnection: under one session timeout
// every query's budget is the time left to a fresh deadline — the same
// to the millisecond, never to the nanosecond. The shard must be sent
// "timeout" when a pooled connection first carries that budget and not
// again.
func TestSessionTimeoutArmedOncePerConnection(t *testing.T) {
	shard := newScriptedShard(t)
	r := &replica{addr: shard.addr, cfg: &Config{}}
	defer r.closeIdle()
	const session = 4500 * time.Millisecond
	for i := 0; i < 10; i++ {
		budget := session - time.Duration(17+31*i)*time.Microsecond
		if ans := r.query(context.Background(), "shardjoin a b", budget, newMerger()); ans.err != nil || len(ans.pairs) != 1 {
			t.Fatalf("query %d: %v, %d pairs", i, ans.err, len(ans.pairs))
		}
	}
	if c, q, n := shard.conns.Load(), shard.queries.Load(), shard.timeouts.Load(); c != 1 || q != 10 || n != 1 {
		t.Fatalf("%d connection(s), %d queries, %d timeout exchanges; want 1, 10 and 1", c, q, n)
	}

	// A different session timeout is a different value on the wire.
	if ans := r.query(context.Background(), "shardjoin a b", 2*time.Second, newMerger()); ans.err != nil {
		t.Fatal(ans.err)
	}
	if n := shard.timeouts.Load(); n != 2 {
		t.Fatalf("%d timeout exchanges after the session timeout changed, want 2", n)
	}
}

// TestDrainRefusalFailsOver: a drain refusal is one replica failure,
// never the tile's. On a pooled connection — a session the shard drained
// before it restarted on the same address — it is retried on a fresh dial
// at the arming exchange and at the command, and charges nothing. On a
// fresh connection it is charged to the refusing replica, and the join
// completes from the tile's other replica at R=2; at R=1 the tile is
// missing from a typed *query.PartialError.
func TestDrainRefusalFailsOver(t *testing.T) {
	shard := newScriptedShard(t)
	r := &replica{addr: shard.addr, cfg: &Config{}}
	defer r.closeIdle()
	for i, budget := range []time.Duration{3 * time.Second, 2 * time.Second, 2 * time.Second} {
		// Query 1 pools a session; before queries 2 (a new budget: arming
		// first) and 3 (the same budget: the command first) the shard
		// drains every session it has open.
		shard.drainThrough.Store(shard.conns.Load())
		if i == 0 {
			shard.drainThrough.Store(0)
		}
		if ans := r.query(context.Background(), "shardjoin a b", budget, newMerger()); ans.err != nil || len(ans.pairs) != 1 {
			t.Fatalf("query %d after a drained pooled session: %v, %d pairs", i+1, ans.err, len(ans.pairs))
		}
	}
	if h := r.health(); h.Fails != 0 {
		t.Fatalf("a stale pooled session charged the replica: %+v", h)
	}
	if c := shard.conns.Load(); c != 3 {
		t.Fatalf("%d connections, want 3: one per query, the stale ones redialed", c)
	}

	refusing, ok0, ok1 := newScriptedShard(t), newScriptedShard(t), newScriptedShard(t)
	refusing.refuseArm.Store(true)
	m := &partition.Manifest{Bounds: geom.R(0, 0, 2, 1), GX: 2, GY: 1}
	for _, tc := range []struct {
		name  string
		table [][]string
	}{
		{"R=2", [][]string{{refusing.addr, ok0.addr}, {ok1.addr}}},
		{"R=1", [][]string{{refusing.addr}, {ok1.addr}}},
	} {
		c, err := New(Config{Manifest: m, ReplicaAddrs: tc.table})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		res, err := c.Join(ctx, "a", "b", "")
		cancel()
		refused := c.Health()[0]
		c.Close()
		if refused.Fails == 0 {
			t.Errorf("%s: the refusing replica was not charged: %+v", tc.name, refused)
		}
		if tc.name == "R=2" {
			if err != nil || res.ShardsOK != 2 {
				t.Fatalf("%s: join = %d/%d shards, %v; want both tiles from their live replicas", tc.name, res.ShardsOK, res.ShardsAsked, err)
			}
			continue
		}
		var pe *query.PartialError
		if !errors.As(err, &pe) || pe.Done != 1 || pe.Total != 2 {
			t.Fatalf("%s: join error %v (%T), want a *query.PartialError with 1 of 2 tiles", tc.name, err, err)
		}
	}
	if refusing.queries.Load() != 0 {
		t.Fatalf("the refusing shard ran %d queries", refusing.queries.Load())
	}
}

// TestStaleFailuresSpareReadmittedReplica: attempts that were talking to
// a process when it died fail only after the replica has answered again
// (a restarted process on the same address). Their failures are the dead
// process's and must not open the breaker of the live one; failures of
// attempts that began after that answer still do.
func TestStaleFailuresSpareReadmittedReplica(t *testing.T) {
	shard := newScriptedShard(t)
	r := &replica{addr: shard.addr, cfg: &Config{}}
	defer r.closeIdle()
	shard.hang.Store(true)
	failed := make(chan shardAnswer, breakerThreshold)
	for range breakerThreshold {
		go func() { failed <- r.query(context.Background(), "shardjoin a b", 0, newMerger()) }()
	}
	for shard.hung.Load() < breakerThreshold {
		time.Sleep(time.Millisecond)
	}
	shard.hang.Store(false)
	if ans := r.query(context.Background(), "shardjoin a b", 0, newMerger()); ans.err != nil {
		t.Fatalf("the replica's answer after the restart: %v", ans.err)
	}
	close(shard.die)
	for range breakerThreshold {
		if ans := <-failed; ans.err == nil {
			t.Fatal("an attempt on the dead process succeeded")
		}
	}
	if h := r.health(); h.State != BreakerClosed || h.ConsecFails != 0 || h.Fails != breakerThreshold {
		t.Fatalf("stale failures charged the readmitted replica: %+v", h)
	}

	for range breakerThreshold {
		r.recordFailure(r.epoch(), errors.New("connection refused"))
	}
	if h := r.health(); h.State != BreakerOpen {
		t.Fatalf("%d fresh failures left the breaker %s, want open", breakerThreshold, h.State)
	}
}

// TestStalledTileProbesForReadmission: a tile whose only replica's breaker
// is open, on a shard that is in fact alive, asks the prober for a probe
// at once and completes from the readmitted replica — not at the prober's
// next tick (a minute away), and not conceded when the probe, held back
// by a slow greeting, outlasts the recovery wait (25 ms at a 10 ms probe
// interval).
func TestStalledTileProbesForReadmission(t *testing.T) {
	m := &partition.Manifest{Bounds: geom.R(0, 0, 1, 1), GX: 1, GY: 1}
	for _, tc := range []struct {
		name       string
		interval   time.Duration
		greetDelay time.Duration
	}{
		{"next tick a minute away", time.Minute, 0},
		{"probe slower than the wait", 10 * time.Millisecond, 100 * time.Millisecond},
	} {
		shard := newScriptedShard(t)
		shard.greetDelay.Store(int64(tc.greetDelay))
		c, err := New(Config{Manifest: m, ReplicaAddrs: [][]string{{shard.addr}}, ProbeInterval: tc.interval})
		if err != nil {
			t.Fatal(err)
		}
		r := c.tiles[0][0]
		for range breakerThreshold {
			r.recordFailure(r.epoch(), errors.New("connection refused"))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		start := time.Now()
		res, err := c.Join(ctx, "a", "b", "")
		took := time.Since(start)
		cancel()
		c.Close()
		if err != nil || res.ShardsOK != 1 {
			t.Fatalf("%s: join = %d/%d shards, %v after %v; want the readmitted replica's answer", tc.name, res.ShardsOK, res.ShardsAsked, err, took)
		}
		if took > 2*time.Second {
			t.Fatalf("%s: join took %v", tc.name, took)
		}
	}
}

// TestPartialAnswerIsNotFreshEvidence: a shard-side partial counts as the
// replica answering, but the success it records is not evidence that the
// replica came back, so a lone replica that answered partial is not asked
// again: the tile is a partial after one query.
func TestPartialAnswerIsNotFreshEvidence(t *testing.T) {
	shard := newScriptedShard(t)
	shard.interrupted.Store(true)
	m := &partition.Manifest{Bounds: geom.R(0, 0, 1, 1), GX: 1, GY: 1}
	c, err := New(Config{Manifest: m, ReplicaAddrs: [][]string{{shard.addr}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = c.Join(ctx, "a", "b", "")
	var pe *query.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("join error %v (%T), want a *query.PartialError", err, err)
	}
	if n := shard.queries.Load(); n != 1 {
		t.Fatalf("the lone replica was asked %d times, want once", n)
	}
}
