package main

// The traced run. Per-layer numbers are taken from outside the program:
// the harness times calls into each module's public functions, one layer
// deeper each time, over the same requests the wire clients send. A span
// covers one request at one layer (batch loops, never one pair), so the
// timer's own cost stays out of the numbers; a layer's self time is its
// span minus the next-deeper span for the same request.

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/edgeindex"
	"repro/internal/filter"
	"repro/internal/geom"
	"repro/internal/interval"
	"repro/internal/query"
	"repro/internal/raster"
	"repro/internal/rtree"
	"repro/internal/shellcmd"
	"repro/internal/store"
	"repro/internal/sweep"
)

// span is one timed call into a layer. Spans are kept in memory and
// written once, with the -out summary.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // span id of the next-shallower layer's span for this request; -1 at the wire
	Request int    `json:"request_id"`
	Count   int    `json:"count"` // items the call handled: rows, candidates, pairs
}

type tracer struct {
	t0    time.Time
	spans []span
	// wire maps a slice request to its wire span, the root the in-process
	// replays of that request hang under.
	wire map[int]int
	// vals collects the per-layer metrics as the replays compute them.
	vals map[string]metric
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), wire: map[int]int{}, vals: map[string]metric{}}
}

// root returns the wire span of a slice request, -1 when the slice has
// no such request.
func (t *tracer) root(request int) int {
	if id, ok := t.wire[request]; ok {
		return id
	}
	return -1
}

// do times f as one span and returns the span's id. f returns the span's
// count.
func (t *tracer) do(name string, request, parent int, f func() int) int {
	start := time.Since(t.t0)
	count := f()
	end := time.Since(t.t0)
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, StartNS: int64(start), EndNS: int64(end), Parent: parent, Request: request, Count: count})
	return id
}

// ms returns the durations of every span with the name, in milliseconds.
func (t *tracer) ms(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// count returns the median count of the spans with the name.
func (t *tracer) count(name string) float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.Count))
		}
	}
	return median(out)
}

// set records a per-layer metric; the unit comes from the perLayer table.
func (t *tracer) set(name string, value float64, n int) {
	t.vals[name] = metric{Value: value, Unit: perLayerUnits[name], N: n}
}

// setMS records the median of the named spans in ms (or µs when the
// metric's unit says so).
func (t *tracer) setMS(metricName, spanName string) float64 {
	d := t.ms(spanName)
	v := median(d)
	if perLayerUnits[metricName] == "us" {
		t.set(metricName, v*1000, len(d))
	} else {
		t.set(metricName, v, len(d))
	}
	return v
}

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json's
// order. A workload that does not exercise a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"loadgen.open_p99_ms", "ms"}, {"loadgen.late_p99_us", "us"}, {"trace.overhead_frac", "ratio"},

	{"wire.select_p50_us", "us"}, {"wire.select_p99_us", "us"}, {"wire.join_p50_ms", "ms"}, {"wire.join_p90_ms", "ms"},
	{"wire.pjoin_p50_ms", "ms"}, {"wire.shardjoin_p50_ms", "ms"}, {"wire.within_p50_ms", "ms"}, {"wire.within_p90_ms", "ms"},
	{"wire.shardwithin_p50_ms", "ms"}, {"wire.insert_p50_us", "us"}, {"wire.insert_p99_us", "us"}, {"wire.delete_p50_us", "us"},
	{"wire.ttfr_p50_ms", "ms"}, {"wire.rows_per_s", "1/s"},

	{"server.select_self_us", "us"}, {"server.join_self_ms", "ms"}, {"server.within_self_ms", "ms"},
	{"server.rowstream_self_ms", "ms"}, {"server.conn_setup_us", "us"}, {"server.refused", "count"},
	{"shellcmd.select_self_us", "us"}, {"shellcmd.join_self_ms", "ms"}, {"shellcmd.within_self_ms", "ms"}, {"geom.wkt_parse_us", "us"},

	{"query.select_us", "us"}, {"query.select_prepare_us", "us"}, {"query.join_ms", "ms"}, {"query.pjoin_ms", "ms"}, {"query.pipeline_join_ms", "ms"},
	{"query.within_ms", "ms"}, {"query.pipeline_ttfr_ms", "ms"}, {"query.self_ms", "ms"}, {"query.unattributed_frac", "ratio"},
	{"query.candidates", "count"}, {"query.results", "count"},
	{"rtree.join_ms", "ms"}, {"rtree.search_us", "us"}, {"rtree.candidates", "count"}, {"rtree.candidates_per_result", "ratio"},
	{"filter.upper_bound_ms", "ms"},

	{"interval.compare_ms", "ms"}, {"interval.ns_per_pair", "ns"}, {"interval.true_hit_frac", "ratio"},
	{"interval.reject_frac", "ratio"}, {"interval.inconclusive_frac", "ratio"}, {"interval.build_ms", "ms"}, {"interval.spans_per_object", "ratio"},
	{"raster.sig_check_ms", "ms"}, {"raster.sig_reject_frac", "ratio"}, {"raster.sig_build_ms", "ms"},

	{"core.filter_ms", "ms"}, {"core.refine_ms", "ms"}, {"core.within_filter_ms", "ms"}, {"core.within_refine_ms", "ms"},
	{"core.sw_exact_ms", "ms"}, {"core.hw_ms", "ms"}, {"core.sw_ms", "ms"}, {"core.collect_ms", "ms"},
	{"core.tests", "count"}, {"core.mbr_rejects", "count"}, {"core.pip_hits", "count"}, {"core.sw_direct", "count"},
	{"core.hw_rejects", "count"}, {"core.hw_passed", "count"}, {"core.hw_reject_frac", "ratio"}, {"core.edgeindex_skipped_edges", "count"},
	{"sweep.exact_ms", "ms"}, {"dist.exact_ms", "ms"},

	{"store.save_ms", "ms"}, {"store.open_ms", "ms"}, {"store.bytes_per_vertex", "ratio"}, {"store.interval_section_frac", "ratio"},
	{"partition.write_ms", "ms"}, {"partition.replication_factor", "ratio"},

	{"coord.join_ms", "ms"}, {"coord.within_ms", "ms"}, {"coord.select_us", "us"}, {"coord.slowest_shard_ms", "ms"},
	{"coord.overhead_ms", "ms"}, {"coord.shard_skew", "ratio"}, {"coord.max_buffered", "count"},
	{"coord.shards_asked_per_select", "ratio"}, {"coord.front_self_ms", "ms"},

	{"ingest.insert_us", "us"}, {"ingest.delete_us", "us"}, {"ingest.view_us", "us"}, {"ingest.compactions", "count"},
	{"ingest.compact_ms", "ms"}, {"ingest.delta_at_end", "count"}, {"ingest.select_live_us", "us"}, {"ingest.select_compacted_us", "us"},
	{"wal.mean_batch", "ratio"}, {"wal.fsyncs", "count"}, {"wal.bytes_per_insert", "ratio"}, {"wal.rotations", "count"},
}

var perLayerUnits = func() map[string]string {
	m := map[string]string{}
	for _, pl := range perLayer {
		m[pl.name] = pl.unit
	}
	return m
}()

// tracedRun is the -trace 1 invocation: set up once, run a shortened
// loaded phase for the per-verb client numbers, replay the workload's
// slice over the wire on one connection (spans off, then on), then replay
// it in-process layer by layer.
func tracedRun(ctx context.Context, cfg config, wl *workload, in *inputs, root string, rec *recorder, tr *tracer) (map[string]metric, error) {
	dep, err := wl.up(root+"/traced", in)
	if err != nil {
		return nil, err
	}
	defer dep.down()
	rec.listeners = append(rec.listeners, dep.addrs()...)
	if err := warm(dep, wl, in); err != nil {
		return nil, err
	}
	tr.set("store.save_ms", dep.saveMS, 0)
	tr.set("store.open_ms", dep.openMS, 0)
	if dep.verts > 0 {
		tr.set("store.bytes_per_vertex", float64(dep.snapBytes)/float64(dep.verts), 0)
	}
	tr.set("partition.write_ms", dep.partitionMS, 0)
	if dep.objects > 0 {
		tr.set("partition.replication_factor", float64(dep.replicas)/float64(dep.objects), 0)
	}

	// Loaded phase, as in the untraced run but shorter: the per-verb
	// client-side numbers under the workload's real concurrency.
	loaded := newRecorder()
	if err := timedPhase(ctx, dep, wl, in, cfg.seconds/3, loaded); err != nil {
		return nil, err
	}
	rec.merge(loaded)
	wireMetrics(tr, loaded)

	// Sequential wire replay of the slice: the base every self time is
	// subtracted from. Twice, so the spans' own cost is measured.
	reps := max(1, min(5, int(cfg.seconds/3)))
	slice := wl.slice(in, reps)
	c, err := dial(dep.addr)
	if err != nil {
		return nil, err
	}
	connStart := time.Now()
	probe, err := dial(dep.addr)
	if err != nil {
		c.close()
		return nil, err
	}
	probe.close()
	tr.set("server.conn_setup_us", float64(time.Since(connStart).Microseconds()), 1)
	plain := newRecorder()
	for _, req := range slice {
		rep, err := c.do(req.line)
		plain.observe(req, rep, err)
	}
	traced := newRecorder()
	for i, req := range slice {
		tr.wire[i] = tr.do("wire."+kindNames[req.kind], i, -1, func() int {
			rep, err := c.do(req.line)
			traced.observe(req, rep, err)
			return max(rep.rows, rep.count)
		})
	}
	c.close()
	rec.merge(plain)
	rec.merge(traced)
	if base := median(plain.lat[wl.headline]); base > 0 {
		tr.set("trace.overhead_frac", median(traced.lat[wl.headline])/base-1, len(plain.lat[wl.headline]))
	}

	if err := wl.layered(ctx, tr, dep, in, reps); err != nil {
		return nil, err
	}
	if wl.openLoop {
		if err := openLoopPhase(dep, in, cfg.seconds/3, rec, tr); err != nil {
			return nil, err
		}
	}
	tr.set("server.refused", float64(dep.front.Metrics().Overloads.Load()), 0)
	if err := dep.down(); err != nil {
		return nil, err
	}

	out := map[string]metric{}
	for _, pl := range perLayer {
		m, ok := tr.vals[pl.name]
		if !ok {
			m = metric{Unit: pl.unit}
		}
		out[pl.name] = m
	}
	return out, nil
}

// wireMetrics turns the loaded phase's per-verb samples into the wire.*
// diagnostics.
func wireMetrics(tr *tracer, r *recorder) {
	q := func(name string, k kind, quant, scale float64) {
		if xs := r.lat[k]; len(xs) > 0 {
			tr.set(name, quantile(xs, quant)*scale, len(xs))
		}
	}
	q("wire.select_p50_us", kSelect, 0.50, 1000)
	q("wire.select_p99_us", kSelect, 0.99, 1000)
	q("wire.join_p50_ms", kJoin, 0.50, 1)
	q("wire.join_p90_ms", kJoin, 0.90, 1)
	q("wire.pjoin_p50_ms", kPjoin, 0.50, 1)
	q("wire.shardjoin_p50_ms", kShardjoin, 0.50, 1)
	q("wire.within_p50_ms", kWithin, 0.50, 1)
	q("wire.within_p90_ms", kWithin, 0.90, 1)
	q("wire.shardwithin_p50_ms", kShardwithin, 0.50, 1)
	q("wire.insert_p50_us", kInsert, 0.50, 1000)
	q("wire.insert_p99_us", kInsert, 0.99, 1000)
	q("wire.delete_p50_us", kDelete, 0.50, 1000)
	// Time to first row, on whichever verb streams rows here: the
	// shard-side verbs on a single node, the coordinator's join on the fleet.
	for _, k := range []kind{kShardjoin, kShardwithin, kJoin} {
		if xs := r.ttfr[k]; len(xs) > 0 && r.rows > 0 {
			tr.set("wire.ttfr_p50_ms", median(xs), len(xs))
			break
		}
	}
	if r.rowTime > 0 {
		tr.set("wire.rows_per_s", float64(r.rows)/r.rowTime.Seconds(), r.rows)
	}
}

// openLoopPhase drives select_wire's list at a fixed 2000 req/s over two
// connections, timing each request from the instant it was due.
func openLoopPhase(dep *deployment, in *inputs, seconds float64, rec *recorder, tr *tracer) error {
	const perConn = 1000.0
	type res struct {
		lat, late []float64
		rec       *recorder
	}
	half := len(in.selects) / 2
	lists := [][]request{in.selects[:half], in.selects[half:]}
	out := make(chan res, len(lists)) // one send per connection
	for _, reqs := range lists {
		c, err := dial(dep.addr)
		if err != nil {
			return err
		}
		go func(c *client, reqs []request) {
			defer c.close()
			r := newRecorder()
			lat, late := openLoop(c, reqs, perConn, seconds, r)
			out <- res{lat, late, r}
		}(c, reqs)
	}
	var lat, late []float64
	for range lists {
		r := <-out
		lat, late = append(lat, r.lat...), append(late, r.late...)
		rec.merge(r.rec)
	}
	tr.set("loadgen.open_p99_ms", quantile(lat, 0.99), len(lat))
	tr.set("loadgen.late_p99_us", quantile(late, 0.99)*1000, len(late))
	return nil
}

// engine is a session engine over the deployment's catalog, as the server
// builds one per connection.
func engine(dep *deployment) *shellcmd.Engine {
	return &shellcmd.Engine{Store: dep.front.Catalog(), Live: dep.mgr, Coord: dep.coord}
}

func hwTester() *core.Tester {
	return core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold})
}

// exec replays line through shellcmd with the output discarded: the wire
// span minus this one is the server's share (session, admission, line
// writer, socket).
func exec(ctx context.Context, tr *tracer, eng *shellcmd.Engine, name string, request int, line string) (int, error) {
	var err error
	id := tr.do(name, request, tr.root(request), func() int {
		var res shellcmd.Result
		res, err = eng.Exec(ctx, line, io.Discard)
		return res.Stats.Results
	})
	return id, err
}

// pairGrid derives the interval grid a join of a and b shares, the way
// query does: the persisted grid when both snapshots carry the same one,
// else the canonical square of the union at the finer auto order.
func pairGrid(a, b *query.Layer) (interval.Grid, bool) {
	ca, cb := persistedIntervals(a), persistedIntervals(b)
	if ca != nil && cb != nil && ca.Grid == cb.Grid {
		return ca.Grid, true
	}
	ba, ea := interval.ObjectStats(a.Data.Objects)
	bb, eb := interval.ObjectStats(b.Data.Objects)
	mnx, mny, size, ok := interval.FitSquare(ba.Union(bb))
	if !ok {
		return interval.Grid{}, false
	}
	g := interval.Grid{MinX: mnx, MinY: mny, Size: size, Order: max(interval.ChooseOrder(size, ea), interval.ChooseOrder(size, eb))}
	return g, g.Valid()
}

func persistedIntervals(l *query.Layer) *interval.Column {
	if s, ok := l.Snapshot(); ok {
		return s.Intervals()
	}
	return nil
}

// pairInputs builds the PairContext source query.pairContexts builds for
// a join of a and b: edge indexes, the pair's breaker, persisted
// signatures, and interval spans on the shared grid.
func pairInputs(a, b *query.Layer, withIntervals bool) func(query.Pair) core.PairContext {
	br := a.Breaker(b)
	var iva, ivb *interval.Column
	if withIntervals {
		if g, ok := pairGrid(a, b); ok {
			iva, ivb = a.Intervals(g), b.Intervals(g)
		}
	}
	return func(pr query.Pair) core.PairContext {
		pc := core.PairContext{PIndex: a.EdgeIndex(pr.A), QIndex: b.EdgeIndex(pr.B), Breaker: br,
			PSig: a.Signature(pr.A), QSig: b.Signature(pr.B)}
		if iva != nil && ivb != nil {
			pc.PIv, pc.QIv = iva.Spans(pr.A), ivb.Spans(pr.B)
		}
		return pc
	}
}

func sortByOuter(pairs []query.Pair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
}

// coreCounters reports the tester's resolution counters and time split
// after a filter+refine replay.
func coreCounters(tr *tracer, st core.Stats) {
	tr.set("core.hw_ms", ms(st.HWTime), 0)
	tr.set("core.sw_ms", ms(st.SWTime), 0)
	tr.set("core.collect_ms", ms(st.CollectTime), 0)
	tr.set("core.tests", float64(st.Tests), 0)
	tr.set("core.mbr_rejects", float64(st.MBRRejects), 0)
	tr.set("core.pip_hits", float64(st.PIPHits), 0)
	tr.set("core.sw_direct", float64(st.SWDirect), 0)
	tr.set("core.hw_rejects", float64(st.HWRejects), 0)
	tr.set("core.hw_passed", float64(st.HWPassed), 0)
	if hw := st.HWRejects + st.HWPassed; hw > 0 {
		tr.set("core.hw_reject_frac", float64(st.HWRejects)/float64(hw), 0)
	}
	tr.set("core.edgeindex_skipped_edges", float64(st.EdgeIndexSkippedEdges), 0)
	if st.IntervalInconclusive > 0 {
		// Of the pairs the interval filter left open, how many the v1
		// signature check then decided.
		tr.set("raster.sig_reject_frac", float64(st.SigRejects)/float64(st.IntervalInconclusive), 0)
	}
}

// Each replay below runs layer by layer, not request by request: all
// requests through Exec, then all through the query call, then the
// kernels. Every layer then runs in the rhythm the wire pass ran in, with
// the same cache and heap state, so the differences between layers are
// the layers' own time.

// layeredSelect replays select_wire's slice: Exec, WKT parse, the query
// call, and below it the R-tree search, the per-query preparation and the
// filter/refine kernels over each request's candidates.
func layeredSelect(ctx context.Context, tr *tracer, dep *deployment, in *inputs, _ int) error {
	layer := dep.layers["landc"]
	snap, _ := layer.Snapshot()
	col := snap.Intervals()
	eng := engine(dep)
	n := min(512, len(in.selects))
	execs, queries := make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		var err error
		if execs[i], err = exec(ctx, tr, eng, "shellcmd.select", i, in.selects[i].line); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		wkt := in.windows[i].WKT()
		tr.do("geom.wkt_parse", i, execs[i], func() int {
			p, _ := geom.ParsePolygonWKT(wkt)
			return p.NumVerts()
		})
	}
	t := hwTester()
	for i := 0; i < n; i++ {
		w := in.windows[i]
		queries[i] = tr.do("query.select", i, execs[i], func() int {
			ids, _, _ := query.IntersectionSelectView(ctx, layer.View(), w, t, query.SelectionOptions{InteriorLevel: 4})
			return len(ids)
		})
	}
	// The cascade query.IntersectionSelect runs, stage by stage: search,
	// prepare the query polygon (interior tiles, edge index, signature,
	// interval spans), then filter and refine what the tiles did not accept.
	t.ResetStats()
	var cands, results int
	br := layer.Breaker(layer)
	for i := 0; i < n; i++ {
		w, q := in.windows[i], queries[i]
		var ids []int
		tr.do("rtree.search", i, q, func() int {
			layer.Index.Search(w.Bounds(), func(e rtree.Entry) bool { ids = append(ids, e.ID); return true })
			return len(ids)
		})
		cands += len(ids)
		results += in.selects[i].count
		var (
			interior *filter.Interior
			qIdx     *edgeindex.Index
			qSig     raster.Signature
			qIv      interval.Spans
		)
		tr.do("query.select_prepare", i, q, func() int {
			interior = filter.NewInterior(w, 4)
			qIdx = edgeindex.New(w)
			qSig = raster.ComputeSignature(w, snap.SigRes())
			if col != nil {
				qIv = interval.Rasterize(w, col.Grid)
			}
			return 1
		})
		var open []int
		var pcs []core.PairContext
		tr.do("core.filter", i, q, func() int {
			for _, id := range ids {
				obj := layer.Data.Objects[id]
				if interior.CoversRect(obj.Bounds()) {
					continue
				}
				pc := core.PairContext{PIndex: qIdx, QIndex: layer.EdgeIndex(id), Breaker: br, PSig: &qSig, QSig: layer.Signature(id)}
				if len(qIv) > 0 {
					pc.PIv, pc.QIv = qIv, col.Spans(id)
				}
				if t.FilterIntersects(w, obj, pc) == core.VerdictUndecided {
					open, pcs = append(open, id), append(pcs, pc)
				}
			}
			return len(ids)
		})
		tr.do("core.refine", i, q, func() int {
			for j, id := range open {
				t.RefineIntersects(w, layer.Data.Objects[id], pcs[j])
			}
			return len(open)
		})
	}

	wire, ex := median(tr.ms("wire.select")), median(tr.ms("shellcmd.select"))
	qs := tr.setMS("query.select_us", "query.select")
	tr.set("server.select_self_us", (wire-ex)*1000, n)
	tr.set("shellcmd.select_self_us", (ex-qs)*1000, n)
	tr.setMS("geom.wkt_parse_us", "geom.wkt_parse")
	rs, prep := tr.setMS("rtree.search_us", "rtree.search"), tr.setMS("query.select_prepare_us", "query.select_prepare")
	f, r := tr.setMS("core.filter_ms", "core.filter"), tr.setMS("core.refine_ms", "core.refine")
	tr.set("query.self_ms", qs-rs-prep-f-r, n)
	if qs > 0 {
		tr.set("query.unattributed_frac", 1-(rs+prep+f+r)/qs, n)
	}
	tr.set("query.candidates", float64(cands)/float64(n), n)
	tr.set("query.results", float64(results)/float64(n), n)
	tr.set("rtree.candidates", float64(cands)/float64(n), n)
	if results > 0 {
		tr.set("rtree.candidates_per_result", float64(cands)/float64(results), n)
	}
	coreCounters(tr, t.Stats)
	storeSections(tr, in, "landc")
	return nil
}

// execCycle replays the cycle's requests through Exec, reps times, and
// returns each request's Exec span.
func execCycle(ctx context.Context, tr *tracer, eng *shellcmd.Engine, cycle []request, reps int) ([]int, error) {
	var ids []int
	for r := 0; r < reps; r++ {
		for j, req := range cycle {
			id, err := exec(ctx, tr, eng, "shellcmd."+kindNames[req.kind], r*len(cycle)+j, req.line)
			if err != nil {
				return nil, err
			}
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// rowSink is a pipeline sink that counts rows and notes when the first
// batch arrived.
type rowSink struct {
	start time.Time
	first time.Duration
	rows  int
}

func (s *rowSink) sink(pairs []query.Pair) error {
	if s.rows == 0 {
		s.first = time.Since(s.start)
	}
	s.rows += len(pairs)
	return nil
}

// layeredJoin replays join_single's three verbs and, for the headline
// join, the candidate generation and every pair kernel over that exact
// candidate list.
func layeredJoin(ctx context.Context, tr *tracer, dep *deployment, in *inputs, reps int) error {
	a, b := dep.layers["landc"], dep.layers["lando"]
	objsA, objsB := a.Data.Objects, b.Data.Objects
	execs, err := execCycle(ctx, tr, engine(dep), in.cycle, reps)
	if err != nil {
		return err
	}
	queries := make([]int, reps)
	var nResults int
	var ttfr []float64
	for r := 0; r < reps; r++ {
		base := r * len(in.cycle)
		queries[r] = tr.do("query.join", base, execs[base], func() int {
			pairs, _, _ := query.IntersectionJoinView(ctx, a.View(), b.View(), hwTester(), query.JoinOptions{})
			nResults = len(pairs)
			return len(pairs)
		})
		tr.do("query.pjoin", base+1, execs[base+1], func() int {
			pairs, _, _ := query.PipelineIntersectionJoinView(ctx, a.View(), b.View(), query.PipelineOptions{})
			return len(pairs)
		})
		rs := rowSink{start: time.Now()}
		tr.do("query.pipeline_join", base+2, execs[base+2], func() int {
			query.PipelineIntersectionJoinView(ctx, a.View(), b.View(), query.PipelineOptions{Sink: rs.sink})
			return rs.rows
		})
		ttfr = append(ttfr, ms(rs.first))
	}

	// The sequential join's stages over one candidate list per rep.
	pcFor := pairInputs(a, b, true)
	var stats core.Stats
	var cands []query.Pair
	for r := 0; r < reps; r++ {
		base, q := r*len(in.cycle), queries[r]
		cands = cands[:0]
		tr.do("rtree.join", base, q, func() int {
			rtree.Join(a.Index, b.Index, func(ea, eb rtree.Entry) bool {
				cands = append(cands, query.Pair{A: ea.ID, B: eb.ID})
				return true
			})
			return len(cands)
		})
		sortByOuter(cands)
		t := hwTester()
		var open []query.Pair
		var pcs []core.PairContext
		tr.do("core.filter", base, q, func() int {
			for _, pr := range cands {
				pc := pcFor(pr)
				if t.FilterIntersects(objsA[pr.A], objsB[pr.B], pc) == core.VerdictUndecided {
					open, pcs = append(open, pr), append(pcs, pc)
				}
			}
			return len(cands)
		})
		tr.do("core.refine", base, q, func() int {
			for j, pr := range open {
				t.RefineIntersects(objsA[pr.A], objsB[pr.B], pcs[j])
			}
			return len(open)
		})
		stats = t.Stats
	}

	// The kernels on their own, over the last candidate list.
	sw := swTester()
	for r := 0; r < reps; r++ {
		base, q := r*len(in.cycle), queries[r]
		var hit, reject int
		var inconclusive []query.Pair
		tr.do("interval.compare", base, q, func() int {
			for _, pr := range cands {
				pc := pcFor(pr)
				switch interval.Compare(pc.PIv, pc.QIv) {
				case interval.TrueHit:
					hit++
				case interval.Reject:
					reject++
				default:
					inconclusive = append(inconclusive, pr)
				}
			}
			return len(cands)
		})
		tr.do("raster.sig_check", base, q, func() int {
			for _, pr := range inconclusive {
				raster.SignaturesMayIntersect(a.Signature(pr.A), b.Signature(pr.B), 0)
			}
			return len(inconclusive)
		})
		n := float64(len(cands))
		tr.set("interval.true_hit_frac", float64(hit)/n, len(cands))
		tr.set("interval.reject_frac", float64(reject)/n, len(cands))
		tr.set("interval.inconclusive_frac", float64(len(inconclusive))/n, len(cands))
		tr.do("core.sw_exact", base, q, func() int {
			for _, pr := range cands {
				sw.Intersects(objsA[pr.A], objsB[pr.B])
			}
			return len(cands)
		})
		tr.do("sweep.exact", base, q, func() int {
			for _, pr := range cands {
				sweep.PolygonsIntersect(objsA[pr.A], objsB[pr.B], sweep.Options{})
			}
			return len(cands)
		})
	}

	wire, ex, qj := median(tr.ms("wire.join")), median(tr.ms("shellcmd.join")), tr.setMS("query.join_ms", "query.join")
	tr.set("server.join_self_ms", wire-ex, reps)
	tr.set("shellcmd.join_self_ms", ex-qj, reps)
	tr.set("server.rowstream_self_ms", median(tr.ms("wire.shardjoin"))-median(tr.ms("shellcmd.shardjoin")), reps)
	tr.setMS("query.pjoin_ms", "query.pjoin")
	tr.setMS("query.pipeline_join_ms", "query.pipeline_join")
	tr.set("query.pipeline_ttfr_ms", median(ttfr), reps)
	rj := tr.setMS("rtree.join_ms", "rtree.join")
	f, rf := tr.setMS("core.filter_ms", "core.filter"), tr.setMS("core.refine_ms", "core.refine")
	tr.set("query.self_ms", qj-rj-f-rf, reps)
	if qj > 0 {
		tr.set("query.unattributed_frac", 1-(rj+f+rf)/qj, reps)
	}
	candidateMetrics(tr, len(cands), nResults, reps)
	if ic := tr.setMS("interval.compare_ms", "interval.compare"); len(cands) > 0 {
		tr.set("interval.ns_per_pair", ic*1e6/float64(len(cands)), reps)
	}
	tr.setMS("raster.sig_check_ms", "raster.sig_check")
	tr.setMS("core.sw_exact_ms", "core.sw_exact")
	tr.setMS("sweep.exact_ms", "sweep.exact")
	coreCounters(tr, stats)
	buildCosts(tr, a, b)
	storeSections(tr, in, "landc")
	return nil
}

func candidateMetrics(tr *tracer, cands, results, n int) {
	tr.set("query.candidates", float64(cands), n)
	tr.set("query.results", float64(results), n)
	tr.set("rtree.candidates", float64(cands), n)
	if results > 0 {
		tr.set("rtree.candidates_per_result", float64(cands)/float64(results), n)
	}
}

// layeredWithin replays within_single's two verbs and the distance
// cascade: R-tree distance join, the 0/1-object upper bounds, then the
// within filter and refine kernels.
func layeredWithin(ctx context.Context, tr *tracer, dep *deployment, in *inputs, reps int) error {
	a, b := dep.layers["water"], dep.layers["prism"]
	objsA, objsB := a.Data.Objects, b.Data.Objects
	execs, err := execCycle(ctx, tr, engine(dep), in.cycle, reps)
	if err != nil {
		return err
	}
	queries := make([]int, reps)
	var nResults int
	var ttfr []float64
	for r := 0; r < reps; r++ {
		base := r * len(in.cycle)
		queries[r] = tr.do("query.within", base, execs[base], func() int {
			pairs, _, _ := query.WithinDistanceJoinView(ctx, a.View(), b.View(), withinD, hwTester(),
				query.DistanceFilterOptions{Use0Object: true, Use1Object: true})
			nResults = len(pairs)
			return len(pairs)
		})
		rs := rowSink{start: time.Now()}
		tr.do("query.pipeline_join", base+1, execs[base+1], func() int {
			query.PipelineWithinDistanceJoinView(ctx, a.View(), b.View(), withinD, query.PipelineOptions{Sink: rs.sink})
			return rs.rows
		})
		ttfr = append(ttfr, ms(rs.first))
	}

	pcFor := pairInputs(a, b, false) // distance tests ignore intervals
	var stats core.Stats
	var cands []query.Pair
	for r := 0; r < reps; r++ {
		base, q := r*len(in.cycle), queries[r]
		cands = cands[:0]
		tr.do("rtree.join", base, q, func() int {
			rtree.JoinWithin(a.Index, b.Index, withinD, func(ea, eb rtree.Entry) bool {
				cands = append(cands, query.Pair{A: ea.ID, B: eb.ID})
				return true
			})
			return len(cands)
		})
		var remaining []query.Pair
		tr.do("filter.upper_bound", base, q, func() int {
			for _, pr := range cands {
				pa, pb := objsA[pr.A], objsB[pr.B]
				if filter.UpperBound0(pa.Bounds(), pb.Bounds()) <= withinD {
					continue
				}
				big, small := pa, pb.Bounds()
				if pb.NumVerts() > pa.NumVerts() {
					big, small = pb, pa.Bounds()
				}
				if filter.UpperBound1(big, small) <= withinD {
					continue
				}
				remaining = append(remaining, pr)
			}
			return len(cands)
		})
		sortByOuter(remaining)
		t := hwTester()
		var open []query.Pair
		var pcs []core.PairContext
		tr.do("core.within_filter", base, q, func() int {
			for _, pr := range remaining {
				pc := pcFor(pr)
				if t.FilterWithin(objsA[pr.A], objsB[pr.B], withinD, pc) == core.VerdictUndecided {
					open, pcs = append(open, pr), append(pcs, pc)
				}
			}
			return len(remaining)
		})
		tr.do("core.within_refine", base, q, func() int {
			for j, pr := range open {
				t.RefineWithin(objsA[pr.A], objsB[pr.B], withinD, pcs[j])
			}
			return len(open)
		})
		stats = t.Stats
	}

	sw := swTester()
	for r := 0; r < reps; r++ {
		base, q := r*len(in.cycle), queries[r]
		tr.do("core.sw_exact", base, q, func() int {
			for _, pr := range cands {
				sw.WithinDistance(objsA[pr.A], objsB[pr.B], withinD)
			}
			return len(cands)
		})
		tr.do("dist.exact", base, q, func() int {
			for _, pr := range cands {
				dist.WithinDistance(objsA[pr.A], objsB[pr.B], withinD, dist.Options{})
			}
			return len(cands)
		})
	}

	wire, ex, qw := median(tr.ms("wire.within")), median(tr.ms("shellcmd.within")), tr.setMS("query.within_ms", "query.within")
	tr.set("server.within_self_ms", wire-ex, reps)
	tr.set("shellcmd.within_self_ms", ex-qw, reps)
	tr.set("server.rowstream_self_ms", median(tr.ms("wire.shardwithin"))-median(tr.ms("shellcmd.shardwithin")), reps)
	tr.setMS("query.pipeline_join_ms", "query.pipeline_join")
	tr.set("query.pipeline_ttfr_ms", median(ttfr), reps)
	rj, ub := tr.setMS("rtree.join_ms", "rtree.join"), tr.setMS("filter.upper_bound_ms", "filter.upper_bound")
	f, rf := tr.setMS("core.within_filter_ms", "core.within_filter"), tr.setMS("core.within_refine_ms", "core.within_refine")
	tr.set("query.self_ms", qw-rj-ub-f-rf, reps)
	if qw > 0 {
		tr.set("query.unattributed_frac", 1-(rj+ub+f+rf)/qw, reps)
	}
	candidateMetrics(tr, len(cands), nResults, reps)
	tr.setMS("core.sw_exact_ms", "core.sw_exact")
	tr.setMS("dist.exact_ms", "dist.exact")
	coreCounters(tr, stats)
	storeSections(tr, in, "water")
	return nil
}

// buildCosts times the two per-layer approximations a join builds or
// loads: the interval columns on the pair's shared grid (the lazy cost a
// first join pays when the persisted grids differ) and the v1 signatures.
func buildCosts(tr *tracer, a, b *query.Layer) {
	if g, ok := pairGrid(a, b); ok {
		start := time.Now()
		ca, cb := interval.Build(a.Data.Objects, g), interval.Build(b.Data.Objects, g)
		tr.set("interval.build_ms", ms(time.Since(start)), 0)
		tr.set("interval.spans_per_object", float64(len(ca.Data())+len(cb.Data()))/float64(ca.Len()+cb.Len()), 0)
	}
	start := time.Now()
	for _, l := range []*query.Layer{a, b} {
		for _, p := range l.Data.Objects {
			raster.ComputeSignature(p, raster.DefaultSignatureRes)
		}
	}
	tr.set("raster.sig_build_ms", ms(time.Since(start)), 0)
}

// storeSections reports what share of a snapshot the interval section
// takes, by building the layer's snapshot with and without it.
func storeSections(tr *tracer, in *inputs, layer string) {
	dir := scratchDir()
	with, err1 := store.Save(dir+"/with.snap", in.data[layer], store.SaveOptions{})
	without, err2 := store.Save(dir+"/without.snap", in.data[layer], store.SaveOptions{IntervalOrder: -1})
	if err1 == nil && err2 == nil && with.Bytes > 0 {
		tr.set("store.interval_section_frac", float64(with.Bytes-without.Bytes)/float64(with.Bytes), 0)
	}
}

func scratchDir() string {
	scratch.Lock()
	defer scratch.Unlock()
	return scratch.dir
}

// layeredFleet replays fleet_mix one layer down: the Coordinator's own
// entry points with no front server, and the shards' reported times.
func layeredFleet(ctx context.Context, tr *tracer, dep *deployment, in *inputs, reps int) error {
	sink := coord.RowSink{ID: func(uint64) error { return nil }, Pair: func([2]uint64) error { return nil }}
	var slowest, overhead, skew []float64
	for r := 0; r < reps; r++ {
		var res coord.Result
		var err error
		id := tr.do("coord.join", r*fleetCycle, tr.root(r*fleetCycle), func() int {
			res, err = dep.coord.JoinStream(ctx, "landc", "lando", "hw", sink)
			return res.Stats.Results
		})
		if err != nil {
			return err
		}
		var worst, sum float64
		for _, v := range res.ShardMS {
			worst, sum = max(worst, v), sum+v
		}
		s := tr.spans[id]
		slowest = append(slowest, worst)
		overhead = append(overhead, float64(s.EndNS-s.StartNS)/1e6-worst)
		if sum > 0 {
			skew = append(skew, worst/(sum/float64(len(res.ShardMS))))
		}
		tr.do("coord.within", r*fleetCycle+9, tr.root(r*fleetCycle+9), func() int {
			res, err = dep.coord.WithinStream(ctx, "water", "prism", withinD, "hw", sink)
			return res.Stats.Results
		})
		if err != nil {
			return err
		}
	}
	buffered, err := dep.coord.Join(ctx, "landc", "lando", "hw")
	if err != nil {
		return err
	}
	tr.set("coord.max_buffered", float64(buffered.MaxBuffered), 1)
	asked := 0
	n := min(256, len(in.windows))
	for i := 0; i < n; i++ {
		w := in.windows[i]
		var res coord.Result
		tr.do("coord.select", i, -1, func() int { // not in the wire slice: no root
			res, err = dep.coord.SelectStream(ctx, "landc", w.WKT(), w.Bounds(), sink)
			return res.Stats.Results
		})
		if err != nil {
			return err
		}
		asked += res.ShardsAsked
	}
	cj := tr.setMS("coord.join_ms", "coord.join")
	tr.setMS("coord.within_ms", "coord.within")
	tr.setMS("coord.select_us", "coord.select")
	tr.set("coord.slowest_shard_ms", median(slowest), reps)
	tr.set("coord.overhead_ms", median(overhead), reps)
	tr.set("coord.shard_skew", median(skew), reps)
	tr.set("coord.shards_asked_per_select", float64(asked)/float64(n), n)
	tr.set("coord.front_self_ms", median(tr.ms("wire.join"))-cj, reps)
	return nil
}

// layeredIngest replays ingest_read one layer down: the Table's own
// Insert/Delete/View, selects on the live view against the same selects
// after an explicit Compact, and the durability counters of the run so
// far.
func layeredIngest(ctx context.Context, tr *tracer, dep *deployment, in *inputs, _ int) error {
	tab, ok := dep.mgr.Get(liveTable)
	if !ok {
		return fmt.Errorf("live table not open")
	}
	// What the preload, the loaded phase and the wire replay left behind,
	// before this replay adds its own.
	st := tab.Stats()
	tr.set("ingest.compactions", float64(st.Compactions), 0)
	if st.Compactions > 0 {
		tr.set("ingest.compact_ms", st.CompactMS/float64(st.Compactions), int(st.Compactions))
	}
	tr.set("ingest.delta_at_end", float64(st.Delta), 0)
	tr.set("wal.mean_batch", st.WAL.MeanBatch(), int(st.WAL.Batches))
	tr.set("wal.fsyncs", float64(st.WAL.Batches), 0)
	tr.set("wal.rotations", float64(st.WAL.Rotations), 0)
	if st.Inserts > 0 {
		// Delete records are a few bytes, so this is close to the encoded
		// size of one insert.
		tr.set("wal.bytes_per_insert", float64(st.WAL.Bytes)/float64(st.Inserts), int(st.Inserts))
	}

	const n = 256
	var ids []uint64
	for i := 0; i < n; i++ {
		p := in.insertPolys[i]
		var id uint64
		var err error
		tr.do("ingest.insert", i, tr.root(i), func() int { id, err = tab.Insert(ctx, p); return 1 })
		if err != nil {
			return err
		}
		ids = append(ids, id)
		tr.do("ingest.view", i, -1, func() int { return tab.View().NumObjects() })
	}
	for i, id := range ids[:n/2] {
		var err error
		tr.do("ingest.delete", i, -1, func() int { err = tab.Delete(ctx, id); return 1 })
		if err != nil {
			return err
		}
	}
	t := hwTester()
	selects := func(name string) {
		for i, w := range in.windows[:min(n, len(in.windows))] {
			tr.do(name, n+i, tr.root(n+i), func() int {
				ids, _, _ := query.IntersectionSelectView(ctx, tab.View(), w, t, query.SelectionOptions{InteriorLevel: 4})
				return len(ids)
			})
		}
	}
	selects("ingest.select_live")
	if err := tab.Compact(ctx); err != nil {
		return err
	}
	selects("ingest.select_compacted")
	tr.setMS("ingest.insert_us", "ingest.insert")
	tr.setMS("ingest.delete_us", "ingest.delete")
	tr.setMS("ingest.view_us", "ingest.view")
	tr.setMS("ingest.select_live_us", "ingest.select_live")
	tr.setMS("ingest.select_compacted_us", "ingest.select_compacted")
	return nil
}
