// Package coord is the scatter-gather coordinator of a sharded spatiald
// deployment. It speaks the existing line-oriented wire protocol to one
// spatiald process per spatial tile (see internal/partition): selections
// are routed to the tiles whose ownership regions overlap the query MBR,
// joins fan out to every tile with the tile's ownership region on the
// wire, and the per-shard streams are merged — ids deduplicated for
// selections (border objects respond from every overlapping tile), pairs
// concatenated for joins (the shard-side reference-point rule guarantees
// each pair arrives exactly once), and per-shard query.Stats folded with
// Stats.Merge.
//
// # Failure semantics
//
// A shard that cannot be reached, times out, or answers with an error
// does not fail the query: the coordinator merges what the live shards
// returned and wraps the miss in a *query.PartialError (Done = shards
// that answered, Total = shards asked), which the serving layer already
// renders as a "partial:" status. Only a query with zero answering
// shards is a hard error. Each shard has a consecutive-failure breaker:
// after breakerThreshold failures the shard is skipped without dialing
// until a background probe finds it answering again, so one dead shard
// costs its tiles' results but never a dial timeout per query. A shard
// that answers "error: server overloaded ... retry after <d>" contributes
// a typed *ShardBusyError carrying the largest hint, which the
// coordinator's own serving layer propagates to clients.
package coord

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/partition"
	"repro/internal/query"
)

// Config configures a Coordinator.
type Config struct {
	// Manifest is the partitioned deployment being coordinated.
	Manifest *partition.Manifest
	// Addrs are the per-tile shard addresses, in tile-ID order — the
	// single-replica shorthand. Length must equal Manifest.NumTiles().
	// Ignored when ReplicaAddrs is set.
	Addrs []string
	// ReplicaAddrs is the full routing table of a replicated deployment:
	// element [t][r] is the address serving replica r of tile t, primary
	// first (see Manifest.ReplicaAddrs). Every tile needs at least one
	// replica; replicas of one tile must be distinct addresses.
	ReplicaAddrs [][]string
	// ReadTimeout bounds each shard response read when the query context
	// carries no deadline (default 30s) — a dead shard must become a
	// typed partial, never a hang.
	ReadTimeout time.Duration
	// ProbeInterval is the background health prober's period (default
	// 250ms): every interval each replica gets a lightweight probe,
	// failures open its breaker before query traffic has to discover the
	// corpse, and a probe success is the only thing that half-opens an open
	// breaker.
	ProbeInterval time.Duration
	// Faults optionally injects dial/read/shard-down/replica-down/probe
	// faults at the coord.* sites.
	Faults *faultinject.Injector
}

// Fixed failover parameters.
const (
	// dialTimeout bounds each shard dial and probe handshake.
	dialTimeout = 2 * time.Second
	// mergeReserve is the fraction of the query's deadline withheld from
	// shards and kept for the merge phase.
	mergeReserve = 0.1
	// breakerThreshold is the consecutive-failure count that opens a
	// replica's breaker.
	breakerThreshold = 3
	// retryBackoff is the base delay between failover attempts on a
	// tile's replicas, jittered to 50–150%. The backoff never sleeps past
	// the sub-query's deadline.
	retryBackoff = 25 * time.Millisecond
)

// recoveryWait is how long a tile sub-query at least waits for the prober
// to readmit a replica before conceding a partial when no replica is
// routable — a kill's stale failures can trip a just-restarted replica's
// breaker, so "every breaker open" often means "readmission in flight",
// not "tile lost". Past it the sub-query still waits for the probes it
// asked for to report (see queryTile's awaitPick), which the probe's
// dialTimeout deadlines bound. Two probe cycles.
func (c Config) recoveryWait() time.Duration {
	return 2*c.probeInterval() + 5*time.Millisecond
}

func (c Config) probeInterval() time.Duration {
	if c.ProbeInterval > 0 {
		return c.ProbeInterval
	}
	return 250 * time.Millisecond
}

func (c Config) readTimeout() time.Duration {
	if c.ReadTimeout > 0 {
		return c.ReadTimeout
	}
	return 30 * time.Second
}

// ShardError reports one shard's failure, typed so callers can tell
// which tile's results are missing from a partial answer.
type ShardError struct {
	Tile int
	Addr string
	Err  error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("coord: shard %d (%s): %v", e.Tile, e.Addr, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// ErrBreakerOpen marks a shard skipped because its breaker is open.
var ErrBreakerOpen = errors.New("breaker open")

// ShardBusyError reports a shard that refused a query under admission
// control. RetryAfter is the largest hint any busy shard returned; the
// error text keeps the "retry after <d>" phrasing clients already parse.
type ShardBusyError struct {
	Tile       int
	RetryAfter time.Duration
}

func (e *ShardBusyError) Error() string {
	return fmt.Sprintf("coord: shard %d overloaded; retry after %v", e.Tile, e.RetryAfter)
}

// MarginError refuses a within-distance join whose distance exceeds the
// deployment's replication margin — beyond it the reference-point rule
// can no longer guarantee the owning tile holds both objects, so the
// sharded answer could silently miss pairs.
type MarginError struct {
	D, Margin float64
}

func (e *MarginError) Error() string {
	return fmt.Sprintf("coord: within-distance %g exceeds the deployment's replication margin %g (repartition with a larger margin)", e.D, e.Margin)
}

// retryAfterRe extracts the Retry-After hint from a shard's overload
// error line (see server.OverloadError: "...; retry after 150ms").
var retryAfterRe = regexp.MustCompile(`retry after ([0-9][^ )]*)`)

// Breaker states reported through Health.State and the
// spatiald_shard_breaker_state metric.
const (
	BreakerClosed   = "closed"    // replica in rotation
	BreakerOpen     = "open"      // replica skipped without dialing
	BreakerHalfOpen = "half-open" // trial traffic allowed; next result decides
)

// Health is one replica's live state for the shards verb and the
// /metrics surface.
type Health struct {
	Tile    int    `json:"tile"`
	Replica int    `json:"replica"`
	Role    string `json:"role"` // "primary" or "replica"
	Addr    string `json:"addr"`
	// State is the replica's breaker state (BreakerClosed/Open/HalfOpen);
	// Open mirrors State == BreakerOpen for older consumers.
	State string `json:"state"`
	Open  bool   `json:"open"`
	// Fails counts lifetime failures; ConsecFails is the current
	// consecutive-failure run the breaker trips on.
	Fails       int64  `json:"fails"`
	ConsecFails int    `json:"consec_fails"`
	Queries     int64  `json:"queries"`
	LastErr     string `json:"last_err,omitempty"`
	IdleConn    int    `json:"idle_conns"`
}

// Totals counts coordinator-level failover events since start, for the
// /metrics surface.
type Totals struct {
	// Retries counts sub-queries re-dispatched to another replica after
	// a replica failed.
	Retries int64 `json:"retries"`
	// Probes and ProbeFails count background health probes.
	Probes     int64 `json:"probes"`
	ProbeFails int64 `json:"probe_failures"`
}

// Coordinator fans queries out over the shard fleet. Safe for concurrent
// use by many sessions; per-replica connections are pooled.
type Coordinator struct {
	cfg   Config
	tiles [][]*replica // [tile][replica]

	retries    atomic.Int64
	probes     atomic.Int64
	probeFails atomic.Int64

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once
}

// New validates the manifest/address pairing and returns a Coordinator.
// Shards are dialed lazily on first use; the background health prober
// starts immediately (stop it with Close).
func New(cfg Config) (*Coordinator, error) {
	if cfg.Manifest == nil {
		return nil, errors.New("coord: nil manifest")
	}
	n := cfg.Manifest.NumTiles()
	table := cfg.ReplicaAddrs
	if table == nil {
		if len(cfg.Addrs) != n {
			return nil, fmt.Errorf("coord: %d shard addresses for %d tiles", len(cfg.Addrs), n)
		}
		table = make([][]string, n)
		for i, addr := range cfg.Addrs {
			table[i] = []string{addr}
		}
	} else if len(table) != n {
		return nil, fmt.Errorf("coord: replica table covers %d tiles, manifest has %d", len(table), n)
	}
	c := &Coordinator{cfg: cfg, stopProbe: make(chan struct{})}
	for t, addrs := range table {
		if len(addrs) == 0 {
			return nil, fmt.Errorf("coord: tile %d has no replicas", t)
		}
		seen := map[string]bool{}
		reps := make([]*replica, len(addrs))
		for r, addr := range addrs {
			if addr == "" {
				return nil, fmt.Errorf("coord: tile %d replica %d has no shard address", t, r)
			}
			if seen[addr] {
				return nil, fmt.Errorf("coord: tile %d lists address %s twice; replicas must be distinct shards", t, addr)
			}
			seen[addr] = true
			reps[r] = &replica{tile: t, idx: r, addr: addr, cfg: &c.cfg, kick: make(chan struct{}, 1)}
		}
		c.tiles = append(c.tiles, reps)
	}
	for _, reps := range c.tiles {
		for _, r := range reps {
			c.probeWG.Add(1)
			go c.probeLoop(r)
		}
	}
	return c, nil
}

// Manifest returns the deployment manifest the coordinator routes with.
func (c *Coordinator) Manifest() *partition.Manifest { return c.cfg.Manifest }

// Health snapshots every replica's breaker state, tile-major with the
// primary first — so in a replica-less deployment Health()[t] is tile
// t, exactly as before.
func (c *Coordinator) Health() []Health {
	var out []Health
	for _, reps := range c.tiles {
		for _, r := range reps {
			out = append(out, r.health())
		}
	}
	return out
}

// Totals snapshots the failover counters.
func (c *Coordinator) Totals() Totals {
	return Totals{
		Retries:    c.retries.Load(),
		Probes:     c.probes.Load(),
		ProbeFails: c.probeFails.Load(),
	}
}

// Close stops the health prober and drops all pooled shard connections.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.stopProbe) })
	c.probeWG.Wait()
	for _, reps := range c.tiles {
		for _, r := range reps {
			r.closeIdle()
		}
	}
}

// Result is one fanned-out query's merged answer. Buffered results hold
// rows only from shards whose status line arrived ("ok" or "partial"):
// a shard that failed mid-stream contributes nothing, so on a partial
// answer the reported-missing tiles can be re-queried and unioned in
// without double-counting. (Streamed RowSink delivery is weaker; see
// RowSink.)
type Result struct {
	// IDs are the deduplicated stable object ids (selections). Empty when
	// the query streamed through a RowSink.
	IDs []uint64
	// Pairs are the stable-id result pairs (joins), already unique by the
	// reference-point rule. Empty when the query streamed through a
	// RowSink.
	Pairs [][2]uint64
	// Stats is the fold of every answering shard's stats record; Results
	// is overwritten with the merged count.
	Stats query.Stats
	// ShardsAsked and ShardsOK count the fan-out and the answers; a
	// ShardsOK < ShardsAsked result comes with a *query.PartialError.
	ShardsAsked, ShardsOK int
	// ShardMS is each answering shard's wall-clock, keyed by tile, for
	// the merge-overhead accounting in spatialbench.
	ShardMS map[int]float64
	// MaxBuffered is the high-water mark of merged result rows held in
	// coordinator memory during the query: the whole result set when
	// buffering, zero when a RowSink streamed rows through as they
	// arrived.
	MaxBuffered int
}

// RowSink streams merged result rows out of a fan-out as the shard
// streams parse: ids already deduplicated (border objects answer from
// every overlapping tile), pairs already unique by the shard-side
// reference-point rule. Rows arrive a chunk at a time — every complete
// line one shard read found buffered — as per-row ID/Pair calls followed
// by one Flush (when set), so a sink that encodes rows into a buffer
// pays its write once per chunk and the first rows still leave the
// moment they arrive. Calls are serialized under the coordinator's merge
// lock but chunks interleave across shards in arrival order — callers
// needing a sorted answer must use the buffering API. A non-nil return
// stops the fan-out (remaining rows are dropped, shard breakers are NOT
// tripped) and surfaces as the *query.PartialError cause.
//
// Streaming trades away the buffering API's failed-shard isolation:
// rows flow out before a shard's status line arrives, so a shard that
// dies mid-stream has already delivered its earlier rows. A
// *query.PartialError naming missing shards therefore means those
// shards' streams were cut part-way, not that they contributed nothing
// — re-querying just the missing tiles may repeat pairs; retry the
// whole query when exactly-once delivery matters. The buffering API
// commits a shard's rows only after its "ok"/"partial" status, so a
// buffered Result never contains rows from a failed shard.
type RowSink struct {
	ID    func(uint64) error
	Pair  func([2]uint64) error
	Flush func() error // optional; called at the end of every chunk
}

func (s RowSink) active() bool { return s.ID != nil || s.Pair != nil }

// errAbortStream marks a shard read loop aborted because the session's
// RowSink failed — the client went away, not the shard.
var errAbortStream = errors.New("coord: result sink failed")

// merger is the fan-out's shared incremental merge state. In streaming
// (RowSink) mode shard reader goroutines commit each parsed chunk of rows
// and the rows flow straight out through the sink; in buffered mode each
// shard's rows stage in its shardAnswer and commit here only after the
// shard's status line proves the stream complete, so a shard that fails
// mid-stream contributes nothing to the Result.
type merger struct {
	mu    sync.Mutex
	sink  RowSink
	idSet map[uint64]bool
	// pairSet dedups streamed pairs. The reference-point rule makes pairs
	// unique across tiles, but failover can replay one tile's stream (a
	// retried attempt re-delivers rows the failed attempt already pushed),
	// so streaming mode keys pairs too. Buffered mode commits exactly one
	// attempt per tile and needs no pair dedup.
	pairSet map[[2]uint64]bool
	res     *Result
	rows    int
	sinkErr error
}

// commit merges one chunk of a shard's rows under one hold of the merge
// lock: dedup, then out through the sink (ending in its Flush) or into
// the buffered Result. A sink error is sticky and aborts every shard's
// read loop.
func (m *merger) commit(ids []uint64, pairs [][2]uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sinkErr != nil {
		return errAbortStream
	}
	streaming := m.streaming()
	for _, v := range ids {
		if m.idSet[v] {
			continue
		}
		m.idSet[v] = true
		m.rows++
		if m.sink.ID == nil {
			m.res.IDs = append(m.res.IDs, v)
		} else if m.sinkErr = m.sink.ID(v); m.sinkErr != nil {
			return errAbortStream
		}
	}
	for _, p := range pairs {
		if streaming {
			if m.pairSet[p] {
				continue
			}
			m.pairSet[p] = true
		}
		m.rows++
		if m.sink.Pair == nil {
			m.res.Pairs = append(m.res.Pairs, p)
		} else if m.sinkErr = m.sink.Pair(p); m.sinkErr != nil {
			return errAbortStream
		}
	}
	if streaming && m.sink.Flush != nil {
		if m.sinkErr = m.sink.Flush(); m.sinkErr != nil {
			return errAbortStream
		}
	}
	if n := len(m.res.IDs) + len(m.res.Pairs); n > m.res.MaxBuffered {
		m.res.MaxBuffered = n
	}
	return nil
}

// streaming reports whether rows flow out through a sink as they parse
// (versus staging per shard and committing on status).
func (m *merger) streaming() bool { return m.sink.active() }

// Select routes an intersection selection to the tiles overlapping the
// query polygon's MBR and merges their stable-id streams (buffered,
// sorted ascending).
//
//reach:keep the buffered form TestCoordinatorSelectRoutesAndMatches, TestFailoverKillOneReplicaCompletes and TestCoordinatorSelectStreamDedupsUnbuffered compare the streamed selection with
func (c *Coordinator) Select(ctx context.Context, layer, wkt string, bounds geom.Rect) (Result, error) {
	return c.SelectStream(ctx, layer, wkt, bounds, RowSink{})
}

// SelectStream is Select with each deduplicated id handed to sink the
// moment it merges, instead of buffering the result set; pass a zero
// RowSink to buffer (sorted) into the Result.
func (c *Coordinator) SelectStream(ctx context.Context, layer, wkt string, bounds geom.Rect, sink RowSink) (Result, error) {
	tiles := c.cfg.Manifest.OverlappingTiles(bounds)
	cmd := "shardselect " + layer + " " + wkt
	return c.fanout(ctx, "select", tiles, func(int) string { return cmd }, sink)
}

// Join fans an intersection join out to every tile with its ownership
// region and concatenates the deduplicated pair streams (buffered,
// sorted by pair).
func (c *Coordinator) Join(ctx context.Context, a, b, mode string) (Result, error) {
	return c.JoinStream(ctx, a, b, mode, RowSink{})
}

// JoinStream is Join with each pair handed to sink as it arrives from
// the shard streams; pass a zero RowSink to buffer into the Result.
func (c *Coordinator) JoinStream(ctx context.Context, a, b, mode string, sink RowSink) (Result, error) {
	return c.fanout(ctx, "join", c.allTiles(), func(tile int) string {
		cmd := fmt.Sprintf("shardjoin %s %s %s", a, b, shellFormatRect(c.cfg.Manifest.Region(tile)))
		if mode != "" {
			cmd += " " + mode
		}
		return cmd
	}, sink)
}

// Within fans a within-distance join out shard-wise. Distances beyond
// the deployment's replication margin are refused with a *MarginError.
//
//reach:keep the buffered form TestCoordinatorWithinMatchesSingleNode, TestWithinRefusesNaNDistance and TestFailoverChaosKillAnyOneShard drive (margin refusal, parity with single-node within)
func (c *Coordinator) Within(ctx context.Context, a, b string, d float64, mode string) (Result, error) {
	return c.WithinStream(ctx, a, b, d, mode, RowSink{})
}

// WithinStream is Within with streaming row delivery, as JoinStream.
func (c *Coordinator) WithinStream(ctx context.Context, a, b string, d float64, mode string, sink RowSink) (Result, error) {
	// Written so that a NaN d is refused too: it compares false both ways.
	if !(d <= c.cfg.Manifest.Margin) {
		return Result{}, &MarginError{D: d, Margin: c.cfg.Manifest.Margin}
	}
	return c.fanout(ctx, "within", c.allTiles(), func(tile int) string {
		cmd := fmt.Sprintf("shardwithin %s %s %s %s", a, b,
			strconv.FormatFloat(d, 'g', -1, 64), shellFormatRect(c.cfg.Manifest.Region(tile)))
		if mode != "" {
			cmd += " " + mode
		}
		return cmd
	}, sink)
}

func (c *Coordinator) allTiles() []int {
	tiles := make([]int, len(c.tiles))
	for i := range tiles {
		tiles[i] = i
	}
	return tiles
}

// shardAnswer is one shard's response bookkeeping. Parsed rows stage in
// ids/pairs: in streaming mode for the length of one chunk, then they
// commit into the fan-out's merger and the slices are reused; in
// buffered mode for the whole response, and fanout commits them only
// once the shard's status line arrives, so a shard that fails mid-stream
// (read error, parse error, trailing "error:" status) contributes no
// rows.
type shardAnswer struct {
	tile    int
	ids     []uint64    // staged rows
	pairs   [][2]uint64 // staged rows
	stats   query.Stats
	wallMS  float64
	partial string // non-empty: shard answered "partial: <reason>"
	err     error
	// epoch is the replica's epoch when the attempt began (see
	// replica.epoch).
	epoch uint64
}

// fanout runs cmdFor(tile) on every listed shard concurrently. With a
// RowSink each shard reader commits its parsed rows into the shared
// merger a chunk at a time, as they arrive, so the caller sees first rows
// while slow shards are still refining; without one, each shard's rows
// stage until its status line arrives and only complete ("ok"/"partial")
// streams commit into the Result — a shard that dies mid-stream
// contributes zero rows, so a reported-missing tile can be re-queried
// without double-counting. Missing shards degrade to a
// *query.PartialError; zero answering shards is a hard error.
func (c *Coordinator) fanout(ctx context.Context, op string, tiles []int, cmdFor func(int) string, sink RowSink) (Result, error) {
	if len(tiles) == 0 {
		return Result{Stats: query.Stats{Op: "coord." + op}}, nil
	}
	budget := time.Duration(0)
	if dl, ok := ctx.Deadline(); ok {
		budget = time.Until(dl)
		if budget <= 0 {
			return Result{}, &query.PartialError{Op: "coord." + op, Done: 0, Total: len(tiles), Err: context.DeadlineExceeded}
		}
	}
	// Deadline budget split: shards get the budget minus the merge
	// reserve, the coordinator keeps the reserve to fold the streams.
	shardBudget := time.Duration(0)
	if budget > 0 {
		shardBudget = budget - time.Duration(float64(budget)*mergeReserve)
	}

	res := Result{ShardsAsked: len(tiles), ShardMS: map[int]float64{}}
	m := &merger{sink: sink, idSet: map[uint64]bool{}, pairSet: map[[2]uint64]bool{}, res: &res}
	answers := make([]shardAnswer, len(tiles))
	var wg sync.WaitGroup
	for i, tile := range tiles {
		wg.Add(1)
		go func(slot, tile int) {
			defer wg.Done()
			answers[slot] = c.queryTile(ctx, tile, cmdFor(tile), shardBudget, m)
		}(i, tile)
	}
	wg.Wait()

	var firstErr error
	var busy *ShardBusyError
	partialReasons := 0
	for _, a := range answers {
		if a.err != nil {
			if firstErr == nil {
				firstErr = a.err
			}
			var sb *ShardBusyError
			if errors.As(a.err, &sb) && (busy == nil || sb.RetryAfter > busy.RetryAfter) {
				busy = sb
			}
			continue
		}
		res.ShardsOK++
		res.ShardMS[a.tile] = a.wallMS
		res.Stats.Merge(a.stats)
		// Commit the shard's staged rows (buffered mode; empty otherwise):
		// its status line arrived, so the stream is complete. The merge
		// cannot fail here — there is no sink to error.
		_ = m.commit(a.ids, a.pairs)
		if a.partial != "" {
			partialReasons++
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %s", a.tile, a.partial)
			}
		}
	}
	sort.Slice(res.IDs, func(i, j int) bool { return res.IDs[i] < res.IDs[j] })
	sort.Slice(res.Pairs, func(i, j int) bool {
		if res.Pairs[i][0] != res.Pairs[j][0] {
			return res.Pairs[i][0] < res.Pairs[j][0]
		}
		return res.Pairs[i][1] < res.Pairs[j][1]
	})
	res.Stats.Op = "coord." + op
	res.Stats.Results = m.rows

	if m.sinkErr != nil {
		// The caller's sink failed mid-stream (client gone); report the
		// rows that made it out as a partial with the sink's error as the
		// cause, no matter how many shards were cut off by the abort.
		return res, &query.PartialError{
			Op:    "coord." + op,
			Done:  res.ShardsOK - partialReasons,
			Total: res.ShardsAsked,
			Err:   m.sinkErr,
		}
	}
	if res.ShardsOK == 0 {
		if busy != nil {
			return Result{}, busy
		}
		return Result{}, firstErr
	}
	if res.ShardsOK < res.ShardsAsked || partialReasons > 0 {
		return res, &query.PartialError{
			Op:    "coord." + op,
			Done:  res.ShardsOK - partialReasons,
			Total: res.ShardsAsked,
			Err:   firstErr,
		}
	}
	return res, nil
}

// queryTile runs one tile's sub-query with failover, one replica attempt
// at a time: route to the preferred (lowest-index, breaker-closed)
// replica, and on dial/read failure, shard-side error, shard-side partial
// (the shard itself was interrupted — draining for shutdown, or out of
// budget), or per-attempt deadline expiry take the next routable replica
// after a jittered backoff, handing it whatever budget remains. Replica
// selection is live, not a snapshot: each attempt re-consults the
// breakers, so a replica that was down (or open) when the sub-query began
// is picked up once the prober readmits it — and a replica that already
// failed this sub-query is asked again once it succeeded since (see
// replica.cameBack), which is what saves a long query that outlives a
// whole kill-restart-kill cycle across the tile's replicas; one that
// answered it (a partial, a drain refusal) only once it has gone down and
// come back. The sub-query fails — becoming the tile's share of a
// *query.PartialError — only when every replica is exhausted; a
// shard-side partial beats an error.
func (c *Coordinator) queryTile(ctx context.Context, tile int, cmd string, budget time.Duration, m *merger) shardAnswer {
	reps := c.tiles[tile]
	if f := c.cfg.Faults; f != nil && f.Disconnect(faultinject.SiteCoordShardDown) {
		// The whole tile is injected down, replicas and all.
		err := errors.New("injected shard down")
		reps[0].recordFailure(reps[0].epoch(), err)
		return shardAnswer{tile: tile, err: &ShardError{Tile: tile, Addr: reps[0].addr, Err: err}}
	}
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}

	// tried marks each replica this sub-query has tried and did not get a
	// complete answer from; pick asks it again only once it came back (see
	// replica.cameBack).
	tried := make(map[int]mark)
	// pick chooses the next attempt among the routable replicas: an untried
	// one in candidate order, else a tried one that came back.
	pick := func(routable []*replica) *replica {
		for _, r := range routable {
			if _, seen := tried[r.idx]; !seen {
				return r
			}
		}
		for _, r := range routable {
			if r.cameBack(tried[r.idx]) {
				return r
			}
		}
		return nil
	}
	// awaitPick rides out a window where no replica can be picked: failures
	// from a kill can land after the restart and trip the restarted
	// replica's breaker, or the restart is simply not yet seen, so the tile
	// often only LOOKS fully down until a probe readmits it. It asks the
	// prober of every replica whose own answer does not still stand for a
	// probe now rather than at its next tick, and concedes once
	// recoveryWait has passed and each of those probes has reported without
	// readmitting its replica — on a loaded host a probe of a live shard can
	// outlast the wait. A replica that answered and has not failed since is
	// draining or out of budget, and no probe of it is worth waiting for.
	// The deadline and the context bound the wait too.
	awaitPick := func() *replica {
		marks := make(map[*replica]uint64)
		for _, r := range reps {
			if !r.answerStands(tried[r.idx]) {
				marks[r] = r.probeSoon()
			}
		}
		if len(marks) == 0 {
			return nil
		}
		probed := func() bool {
			for r, m := range marks {
				if !r.probedSince(m) {
					return false
				}
			}
			return true
		}
		until := time.Now().Add(c.cfg.recoveryWait())
		for deadline.IsZero() || time.Now().Before(deadline) {
			if rep := pick(candidates(reps)); rep != nil {
				return rep
			}
			if !time.Now().Before(until) && probed() {
				return nil
			}
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(2 * time.Millisecond):
			}
		}
		return nil
	}

	var last, partialAns shardAnswer
	for attempt := 0; attempt < 4*len(reps); attempt++ {
		rep := pick(candidates(reps))
		if rep == nil {
			if rep = awaitPick(); rep == nil {
				break
			}
		} else if attempt > 0 {
			c.backoff(ctx, deadline)
		}
		if attempt > 0 {
			c.retries.Add(1)
		}
		ab := budget
		if !deadline.IsZero() {
			// Budget-aware re-split: each attempt gets what actually remains
			// of the tile's share, not the original full budget.
			ab = time.Until(deadline)
		}
		last = rep.query(ctx, cmd, ab, m)
		switch {
		case last.err == nil && last.partial != "", errors.Is(last.err, errDraining):
			// The shard answered but could not finish — drained by its own
			// shutdown mid-query, or out of budget. (Exactly how a graceful
			// kill mid-join lands: the dying shard flushes a "partial: ...
			// context canceled" status.) A partial is kept as the fallback;
			// a drain refusal is the shard's own answer too.
			if last.err == nil {
				partialAns = last
			}
			tried[rep.idx] = mark{epoch: rep.epoch(), answered: true}
		case last.err == nil || errors.Is(last.err, errAbortStream):
			// A complete stream, or the session's own sink failed — no
			// replica will fix that.
			return last
		default:
			tried[rep.idx] = mark{epoch: last.epoch}
		}
		if ctx.Err() != nil || !deadline.IsZero() && time.Until(deadline) <= 0 {
			break
		}
	}
	if partialAns.partial != "" {
		// Every attempt after the interrupted answer failed; its rows beat
		// an error.
		return partialAns
	}
	if last.err == nil {
		// No replica was ever routable.
		return shardAnswer{tile: tile, err: &ShardError{Tile: tile, Addr: reps[0].addr, Err: ErrBreakerOpen}}
	}
	return last
}

// mark is what a tile sub-query remembers of a replica it tried: whether
// the shard itself answered — a partial, or a drain refusal — rather than
// failing to, and the replica's epoch when the attempt began or, if it
// answered, just after its answer.
type mark struct {
	epoch    uint64
	answered bool
}

// candidates orders a tile's replicas for routing: breaker-closed
// replicas first (primary preferred), then half-open ones as trial
// traffic; open breakers are skipped entirely.
func candidates(reps []*replica) []*replica {
	var closed, trial []*replica
	for _, r := range reps {
		switch r.admit() {
		case BreakerClosed:
			closed = append(closed, r)
		case BreakerHalfOpen:
			trial = append(trial, r)
		}
	}
	return append(closed, trial...)
}

// backoff sleeps the jittered retry delay (50–150% of retryBackoff),
// bounded by the sub-query deadline and the context.
func (c *Coordinator) backoff(ctx context.Context, deadline time.Time) {
	d := retryBackoff/2 + time.Duration(rand.Int63n(int64(retryBackoff)))
	if !deadline.IsZero() {
		if left := time.Until(deadline); left < d {
			d = left
		}
	}
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// probeLoop is one replica's background health prober: every
// ProbeInterval, and at once when a tile with no routable replica asks
// (probeSoon), the replica gets one lightweight probe. Probe failures
// open the replica's breaker before query traffic has to discover the
// corpse; a probe success against an open breaker half-opens it, putting
// the replica back into (trial) rotation. Each replica has its own loop,
// so a probe stuck on a dying shard (a dial the kernel accepted, a
// greeting that never comes) does not hold back the probe that would
// readmit its restarted sibling.
func (c *Coordinator) probeLoop(r *replica) {
	defer c.probeWG.Done()
	t := time.NewTicker(c.cfg.probeInterval())
	defer t.Stop()
	for {
		select {
		case <-c.stopProbe:
			return
		case <-t.C:
		case <-r.kick:
		}
		c.probes.Add(1)
		r.mu.Lock()
		r.probesBegun++
		r.mu.Unlock()
		if err := r.probe(); err != nil {
			c.probeFails.Add(1)
		}
		r.mu.Lock()
		r.probesDone++
		r.mu.Unlock()
	}
}

// probeSoon asks the replica's prober for a probe now instead of at its
// next tick (a request already pending absorbs it), and returns the mark
// probedSince reports that probe's completion against.
func (r *replica) probeSoon() uint64 {
	r.mu.Lock()
	mark := r.probesBegun
	r.mu.Unlock()
	select {
	case r.kick <- struct{}{}:
	default:
	}
	return mark
}

// probedSince reports whether a probe that began after probeSoon returned
// mark has completed. The prober runs one probe at a time, so that is the
// mark+1-th probe.
func (r *replica) probedSince(mark uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.probesDone > mark
}

// replica is one copy of a tile's client: a pooled set of wire
// connections plus the consecutive-failure breaker.
type replica struct {
	tile int
	idx  int // replica index within the tile; 0 is the primary
	addr string
	cfg  *Config

	mu        sync.Mutex
	idle      []*wireConn
	fails     int   // consecutive failures
	failTotal int64 // lifetime failures (metrics)
	queries   int64
	state     string // breaker state; "" means BreakerClosed
	lastErr   string
	clock     uint64        // ticks on every success (query or probe) and every charged failure; see epoch
	okAt      uint64        // clock at the last success
	failAt    uint64        // clock at the last failure charged to the breaker
	kick      chan struct{} // a probe request to the prober; see probeSoon

	probesBegun, probesDone uint64 // the prober's probes; see probedSince
}

// wireConn is one established protocol connection with its session
// state (the last timeout sent, so pooled reuse re-arms it only on
// change).
type wireConn struct {
	conn    net.Conn
	r       *bufio.Reader
	timeout time.Duration
}

// readBufSize is the connection read buffer: what one read can hold is
// what one chunk can carry into the merger, so it is sized to take a
// shard's whole emitted batch (256 rows of at most 47 bytes) in one go.
const readBufSize = 16 << 10

// role names the replica for operators: the primary serves by default,
// replicas take failover traffic.
func (r *replica) role() string {
	if r.idx == 0 {
		return "primary"
	}
	return "replica"
}

// admit reads the breaker for routing: BreakerClosed or BreakerHalfOpen
// when the replica may be tried, BreakerOpen when it must be skipped.
func (r *replica) admit() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.breakerState()
}

// breakerState reads the state under r.mu.
func (r *replica) breakerState() string {
	if r.state == "" {
		return BreakerClosed
	}
	return r.state
}

func (r *replica) health() Health {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.breakerState()
	return Health{
		Tile:        r.tile,
		Replica:     r.idx,
		Role:        r.role(),
		Addr:        r.addr,
		State:       st,
		Open:        st == BreakerOpen,
		Fails:       r.failTotal,
		ConsecFails: r.fails,
		Queries:     r.queries,
		LastErr:     r.lastErr,
		IdleConn:    len(r.idle),
	}
}

func (r *replica) closeIdle() {
	r.mu.Lock()
	idle := r.idle
	r.idle = nil
	r.mu.Unlock()
	for _, w := range idle {
		w.conn.Close()
	}
}

// acquire returns a pooled connection (pooled true) or dials a fresh
// one. Pooled connections can be stale — the shard may have restarted
// on the same address since they were pooled — so callers retry a
// pooled connection's transport failure once on a fresh dial (after
// scrubbing the pool, whose remaining connections are from the same
// suspect epoch) before charging the replica's breaker.
func (r *replica) acquire() (w *wireConn, pooled bool, err error) {
	r.mu.Lock()
	if n := len(r.idle); n > 0 {
		w := r.idle[n-1]
		r.idle = r.idle[:n-1]
		r.mu.Unlock()
		return w, true, nil
	}
	r.mu.Unlock()

	if f := r.cfg.Faults; f != nil && f.Disconnect(faultinject.SiteCoordDial) {
		return nil, false, errors.New("injected dial fault")
	}
	conn, err := net.DialTimeout("tcp", r.addr, dialTimeout)
	if err != nil {
		return nil, false, err
	}
	w = &wireConn{conn: conn, r: bufio.NewReaderSize(conn, readBufSize)}
	conn.SetReadDeadline(time.Now().Add(dialTimeout))
	greeting, err := w.readLine(r.cfg.Faults)
	if err != nil {
		conn.Close()
		return nil, false, fmt.Errorf("greeting: %w", err)
	}
	if !bytes.Contains(greeting, []byte("ready")) {
		conn.Close()
		return nil, false, fmt.Errorf("unexpected greeting %q", greeting)
	}
	return w, false, nil
}

func (r *replica) release(w *wireConn) {
	r.mu.Lock()
	r.idle = append(r.idle, w)
	r.mu.Unlock()
}

// probe is one lightweight health check: acquire a connection (pooled
// or fresh dial + greeting) and exchange a trivial command. Success
// half-opens an open breaker; failure records like a query failure, so
// a dead replica's breaker opens from probes alone.
func (r *replica) probe() error {
	since := r.epoch()
	if f := r.cfg.Faults; f != nil && f.Disconnect(faultinject.SiteCoordProbe) {
		err := errors.New("injected probe fault")
		r.recordFailure(since, fmt.Errorf("probe: %w", err))
		return err
	}
	for attempt := 0; ; attempt++ {
		w, pooled, err := r.acquire()
		if err != nil {
			r.recordFailure(since, fmt.Errorf("probe: %w", err))
			return err
		}
		w.conn.SetDeadline(time.Now().Add(dialTimeout))
		status, err := w.exchange("layers", r.cfg.Faults)
		if err != nil {
			w.conn.Close()
			if pooled && attempt == 0 {
				// A stale pooled connection (the shard restarted on the same
				// address) must not charge a live replica's breaker: scrub the
				// pool — its siblings are from the same suspect epoch — and
				// re-probe on a fresh dial, which is the real verdict.
				r.closeIdle()
				continue
			}
			r.recordFailure(since, fmt.Errorf("probe: %w", err))
			return err
		}
		if !strings.HasPrefix(status, "ok") {
			w.conn.Close()
			if drainRefusal(status) && pooled && attempt == 0 {
				r.closeIdle() // a drained shard's session, as above
				continue
			}
			err := fmt.Errorf("probe: %s", status)
			r.recordFailure(since, err)
			return err
		}
		r.release(w)
		r.probeSuccess()
		return nil
	}
}

// probeSuccess half-opens an open breaker: the replica is reachable
// again, so trial query traffic may flow; the first real success closes
// the breaker, the first real failure re-opens it.
func (r *replica) probeSuccess() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == BreakerOpen {
		r.state = BreakerHalfOpen
	}
	r.clock++
	r.okAt = r.clock
	// The probe broke the consecutive-failure run, so trial traffic gets
	// the full threshold again: one leftover hiccup must not instantly
	// re-open a breaker the prober just recovered, and sporadic probe
	// blips on an idle tile must not accumulate into a spurious trip.
	r.fails = 0
}

// readLine returns the next response line without its terminator. The
// bytes point into the read buffer and are valid until the next read.
func (w *wireConn) readLine(f *faultinject.Injector) ([]byte, error) {
	if f != nil && f.Disconnect(faultinject.SiteCoordRead) {
		w.conn.Close()
		return nil, errors.New("injected read fault")
	}
	line, err := w.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// A line longer than the read buffer (only a stats record could
		// be): collect it the way ReadBytes does.
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = w.r.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// lineBuffered reports whether a complete line is already in the read
// buffer, so the next readLine cannot block.
func (w *wireConn) lineBuffered() bool {
	buf, _ := w.r.Peek(w.r.Buffered())
	return bytes.IndexByte(buf, '\n') >= 0
}

// isStatus reports whether a response line is the terminal status line.
func isStatus(line []byte) bool {
	return string(line) == "ok" || bytes.HasPrefix(line, []byte("partial:")) || bytes.HasPrefix(line, []byte("error:"))
}

// exchangeStream sends one command and hands each data line to onLine
// as it is read, returning the trailing status line. The response is
// consumed in chunks — every complete line one socket read left in the
// buffer — and endChunk runs after the last line of each, before the
// read that may block and before the status line is returned: the first
// rows move on the moment they arrive, and a long stream costs its
// consumer one hand-over per chunk instead of one per row. A callback
// error aborts the read loop and is returned as-is, leaving the
// connection mid-stream — the caller must close it.
func (w *wireConn) exchangeStream(cmd string, f *faultinject.Injector, onLine func([]byte) error, endChunk func() error) (status string, err error) {
	if _, err := fmt.Fprintf(w.conn, "%s\n", cmd); err != nil {
		return "", err
	}
	for {
		line, err := w.readLine(f)
		if err != nil {
			return "", err
		}
		if isStatus(line) {
			return string(line), endChunk()
		}
		if err := onLine(line); err != nil {
			return "", err
		}
		if !w.lineBuffered() {
			if err := endChunk(); err != nil {
				return "", err
			}
		}
	}
}

// exchange is exchangeStream with the data lines dropped — used for
// small fixed exchanges like timeout arming and probes, which read only
// the status.
func (w *wireConn) exchange(cmd string, f *faultinject.Injector) (status string, err error) {
	return w.exchangeStream(cmd, f, func([]byte) error { return nil }, func() error { return nil })
}

// errDraining is a shard's drain refusal as an attempt's error.
var errDraining = errors.New("shutting down")

// drainRefusal reports whether a status line is a shard's drain refusal.
// A draining spatiald sends it in place of running the next command — or
// unsolicited, when the drain began while the session sat in the pool —
// and hangs up, so the connection is dead whatever the command was.
func drainRefusal(status string) bool { return status == "error: shutting down" }

// exchangeOnce runs the connection-level portion of one replica
// attempt: acquire, read deadline, timeout arming, and the command
// exchange with rows parsed into the fan-out's merger as they stream.
// A transport failure or a drain refusal on a pooled connection, at the
// arming or the command exchange, is retried once on a fresh dial: the
// shard may have drained and restarted on the same address since the
// connection was pooled, and a stale socket must not fail the attempt
// (or charge the breaker) while the replica itself is healthy. The retry
// scrubs the idle pool — its remaining connections are from the same
// suspect epoch — and drops rows the aborted exchange staged (streamed
// rows dedup in the merger). A drain refusal on a fresh connection is an
// error (errDraining), which the caller charges to the replica as one
// failure, and the tile's attempt loop moves on to the next candidate.
//
// While the attempt runs, the end of ctx closes its connection, so an
// attempt of a cancelled query stops streaming promptly instead of
// running to completion. On success the returned connection is live and
// stop disarms that close; on error the connection is closed and the
// close already disarmed. stop does not wait for a close already started,
// so a caller that finds ctx ended after stop must close the connection
// rather than pool it, or a late close could hit the connection under an
// innocent future query.
func (r *replica) exchangeOnce(ctx context.Context, cmd string, budget time.Duration, m *merger, ans *shardAnswer) (w *wireConn, stop func() bool, start time.Time, status string, err error) {
	for attempt := 0; ; attempt++ {
		w, pooled, err := r.acquire()
		if err != nil {
			return nil, nil, time.Time{}, "", err
		}
		stop := context.AfterFunc(ctx, func() { w.conn.Close() })
		staleRetry := func() bool {
			return pooled && attempt == 0 && ctx.Err() == nil
		}

		// The connection read deadline is the hard backstop (shard process
		// hung); the shard-side session timeout is the soft one (shard alive
		// but the query is slow → typed partial from the shard itself).
		readCeil := r.cfg.readTimeout()
		if budget > 0 && budget < readCeil {
			readCeil = budget
		}
		w.conn.SetDeadline(time.Now().Add(readCeil + 500*time.Millisecond))

		// The shard is told the budget rounded to the millisecond, and that
		// is the value remembered: the nanosecond-exact budget differs on
		// every query, the rounded one only when the session's timeout does.
		if armed := budget.Round(time.Millisecond); budget > 0 && w.timeout != armed {
			st, err := w.exchange("timeout "+armed.String(), r.cfg.Faults)
			stale := err != nil || drainRefusal(st)
			switch {
			case err == nil && drainRefusal(st):
				err = errDraining
			case err == nil && !strings.HasPrefix(st, "ok"):
				err = fmt.Errorf("arming timeout: %s", st)
			}
			if err != nil {
				stop()
				w.conn.Close()
				if stale && staleRetry() {
					r.closeIdle()
					continue
				}
				return nil, nil, time.Time{}, "", err
			}
			w.timeout = armed
		}

		begin := time.Now()
		status, err := w.exchangeStream(cmd, r.cfg.Faults, ans.stage, func() error {
			if !m.streaming() {
				return nil
			}
			err := m.commit(ans.ids, ans.pairs)
			ans.ids, ans.pairs = ans.ids[:0], ans.pairs[:0]
			return err
		})
		if err == nil && drainRefusal(status) {
			err = errDraining
		}
		if err != nil {
			stop()
			w.conn.Close()
			if !errors.Is(err, errAbortStream) && staleRetry() {
				ans.ids, ans.pairs = nil, nil
				r.closeIdle()
				continue
			}
			return nil, nil, time.Time{}, "", err
		}
		return w, stop, begin, status, nil
	}
}

// query runs one replica attempt end to end: connection acquire,
// shard-side timeout arming, command exchange with rows parsed into the
// fan-out's merger as they stream, breaker accounting. Never blocks
// past the budget (or the configured read ceiling); cancelling ctx
// severs the attempt, and an attempt cut off by its own context is not
// charged to the breaker. Breaker admission is the caller's job (see
// candidates) — by the time query runs, the replica was routable.
func (r *replica) query(ctx context.Context, cmd string, budget time.Duration, m *merger) shardAnswer {
	ans := shardAnswer{tile: r.tile}
	r.mu.Lock()
	r.queries++
	ans.epoch = r.clock
	r.mu.Unlock()
	cancelled := func() shardAnswer {
		ans.err = &ShardError{Tile: r.tile, Addr: r.addr, Err: ctx.Err()}
		return ans
	}
	fail := func(err error) shardAnswer {
		if ctx.Err() != nil {
			return cancelled()
		}
		r.recordFailure(ans.epoch, err)
		ans.err = &ShardError{Tile: r.tile, Addr: r.addr, Err: err}
		return ans
	}

	if f := r.cfg.Faults; f != nil && f.Disconnect(faultinject.SiteCoordReplicaDown) {
		return fail(errors.New("injected replica down"))
	}
	if ctx.Err() != nil {
		return cancelled()
	}

	w, stopWatch, start, status, err := r.exchangeOnce(ctx, cmd, budget, m, &ans)
	if err != nil {
		if errors.Is(err, errAbortStream) {
			// The session's result sink failed — the client went away, not
			// the shard. Abandon the stream without touching the breaker.
			ans.err = &ShardError{Tile: r.tile, Addr: r.addr, Err: err}
			return ans
		}
		return fail(err)
	}
	stopWatch()
	ans.wallMS = float64(time.Since(start).Microseconds()) / 1000

	switch {
	case status == "ok":
	case strings.HasPrefix(status, "partial:"):
		ans.partial = strings.TrimSpace(strings.TrimPrefix(status, "partial:"))
	default: // error: ...
		reason := strings.TrimSpace(strings.TrimPrefix(status, "error:"))
		if ctx.Err() != nil {
			// The cancel may have closed the connection as the status
			// arrived; don't pool a maybe-dead conn.
			w.conn.Close()
			return cancelled()
		}
		r.release(w) // protocol intact: the command failed, not the conn
		if m := retryAfterRe.FindStringSubmatch(reason); m != nil {
			if d, perr := time.ParseDuration(m[1]); perr == nil {
				r.recordFailure(ans.epoch, errors.New(reason))
				ans.err = &ShardError{Tile: r.tile, Addr: r.addr,
					Err: &ShardBusyError{Tile: r.tile, RetryAfter: d}}
				return ans
			}
		}
		r.recordFailure(ans.epoch, errors.New(reason))
		ans.err = &ShardError{Tile: r.tile, Addr: r.addr, Err: errors.New(reason)}
		return ans
	}

	r.recordSuccess()
	if ctx.Err() != nil {
		// Completed, but cancelled as the status arrived: the cancel may
		// have closed the connection — don't pool it. The answer is still
		// whole, so return it.
		w.conn.Close()
		return ans
	}
	r.release(w)
	return ans
}

// recordFailure charges a failed attempt to the replica's breaker. since
// is the epoch the attempt began in (read before it dialed): if a success
// has been recorded after that, the replica has answered since the
// attempt started — typically a restarted process, while the attempt was
// still failing against the one it replaced — and the failure counts only
// in the lifetime total. Charging it would open a healthy replica's
// breaker, possibly while its sibling is the one going down.
func (r *replica) recordFailure(since uint64, err error) {
	r.mu.Lock()
	r.failTotal++
	if r.okAt > since {
		r.mu.Unlock()
		return
	}
	r.fails++
	r.clock++
	r.failAt = r.clock
	r.lastErr = err.Error()
	var idle []*wireConn
	if r.fails >= breakerThreshold {
		r.state = BreakerOpen
		// Drop the pooled connections: a replica that just tripped its
		// breaker is presumed down, and a stale socket surviving into the
		// recovery trial would fail the first query after readmission and
		// re-open the breaker the prober just recovered.
		idle = r.idle
		r.idle = nil
	}
	r.mu.Unlock()
	for _, w := range idle {
		w.conn.Close()
	}
}

// recordSuccess closes the breaker and ticks the clock.
func (r *replica) recordSuccess() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fails = 0
	r.state = ""
	r.clock++
	r.okAt = r.clock
}

// epoch reads the replica's clock, which orders its successes and charged
// failures.
func (r *replica) epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clock
}

// cameBack reports fresh evidence that a replica a sub-query tried
// (marked m) has recovered, so the sub-query may try it again. After a
// failed attempt that is any success since the attempt began (a probe or
// a concurrent query succeeding, e.g. a restart mid-query). After the
// shard's own answer — a partial, whose success is no such evidence, or a
// drain refusal — the replica must have been charged a failure since (it
// went down) and succeeded after that. So a replica is asked again only
// once it could answer differently: a lone replica that keeps failing, or
// keeps answering partial, becomes the tile's typed partial, not a blind
// same-target retry loop.
func (r *replica) cameBack(m mark) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.answered {
		return r.failAt > m.epoch && r.okAt > r.failAt
	}
	return r.okAt > m.epoch
}

// answerStands reports whether the replica answered a sub-query (marked m)
// and has not been charged a failure since: it is alive and declining, so
// a probe success says nothing about what asking it again would return.
func (r *replica) answerStands(m mark) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return m.answered && r.failAt <= m.epoch
}

// stage decodes one shard data line into the answer: "id <N>" and
// "pair <A> <B>" rows stage in ids/pairs (committed into the merger at
// the end of the chunk when it streams, by fanout once the status line
// proves the stream complete otherwise), "stats <json>" is the shard's
// stats record, other lines (notes) are ignored.
func (ans *shardAnswer) stage(line []byte) error {
	kind, a, b, err := parseRow(line)
	switch {
	case err != nil:
		return err
	case kind == rowID:
		ans.ids = append(ans.ids, a)
	case kind == rowPair:
		ans.pairs = append(ans.pairs, [2]uint64{a, b})
	case bytes.HasPrefix(line, []byte("stats ")):
		if err := json.Unmarshal(line[len("stats "):], &ans.stats); err != nil {
			return fmt.Errorf("bad stats line: %w", err)
		}
	}
	return nil
}

// shellFormatRect renders an ownership region the way the shard verbs
// parse it (four 'g'-formatted floats; ±Inf round-trips).
func shellFormatRect(r geom.Rect) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return f(r.MinX) + " " + f(r.MinY) + " " + f(r.MaxX) + " " + f(r.MaxY)
}
