package server

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/ingest"
	"repro/internal/query"
)

// Status classifies how a command ended, for metrics and the access log.
type Status string

const (
	// StatusOK is a fully completed command.
	StatusOK Status = "ok"
	// StatusPartial is a query interrupted by timeout or shutdown drain:
	// its results were returned but are incomplete.
	StatusPartial Status = "partial"
	// StatusError is a hard failure (syntax, unknown layer, budget).
	StatusError Status = "error"
	// StatusOverload is a typed admission rejection; no query work ran.
	StatusOverload Status = "overload"
)

// Metrics aggregates the server's counters: atomics for what every
// command updates (status, sessions, connections, HTTP requests,
// deadline expiries) and one query.Stats summing every command's record;
// WritePrometheus renders the exposition-format snapshot served at
// /metrics.
type Metrics struct {
	start time.Time

	ConnsAccepted  atomic.Int64
	SessionsActive atomic.Int64
	HTTPRequests   atomic.Int64
	Commands       atomic.Int64

	QueriesOK      atomic.Int64
	QueriesPartial atomic.Int64
	QueriesError   atomic.Int64
	Overloads      atomic.Int64
	QueryNanos     atomic.Int64

	// DeadlineExpirations counts deadline-governed partials.
	DeadlineExpirations atomic.Int64

	// Snapshot loads observed (records with SnapshotBytes > 0), and of
	// those the mmap-path ones: the sum keeps their bytes and load time,
	// but Merge ORs the mmap flag.
	snapshotLoads atomic.Int64
	snapshotMMaps atomic.Int64

	mu  sync.Mutex
	sum query.Stats // every observed record, folded in with Merge
}

// Gauges carries the point-in-time values the server samples alongside
// the Metrics counters when rendering /metrics: the limiter's admission
// snapshot, catalog size, the stuck-query counts, and — when live
// ingestion is enabled — the ingest manager's durability totals.
type Gauges struct {
	Admission       AdmissionStats
	Layers          int
	WatchdogActive  int
	WatchdogCancels int64
	Ingest          *ingest.Totals
	// Shards is the coordinator's per-replica health snapshot (nil on a
	// plain data node); Failover the coordinator's retry and probe
	// totals.
	Shards   []coord.Health
	Failover *coord.Totals
}

func newMetrics() *Metrics {
	return &Metrics{start: time.Now()}
}

// observe folds one finished command into the counters.
func (m *Metrics) observe(st query.Stats, status Status, dur time.Duration) {
	m.Commands.Add(1)
	switch status {
	case StatusOK:
		m.QueriesOK.Add(1)
	case StatusPartial:
		m.QueriesPartial.Add(1)
	case StatusError:
		m.QueriesError.Add(1)
	case StatusOverload:
		m.Overloads.Add(1)
	}
	m.QueryNanos.Add(int64(dur))
	if st.SnapshotBytes > 0 {
		m.snapshotLoads.Add(1)
		if st.SnapshotMMap {
			m.snapshotMMaps.Add(1)
		}
	}
	m.mu.Lock()
	m.sum.Merge(st)
	m.mu.Unlock()
}

// Query returns the sum of every observed command's query record.
func (m *Metrics) Query() query.Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sum
}

// observeFailure classifies an interrupted command's error chain into the
// degradation counters. Watchdog kills are counted where the timer fires;
// here only deadline-governance expiries are folded in.
func (m *Metrics) observeFailure(err error) {
	if err == nil {
		return
	}
	var de *query.DeadlineError
	if errors.As(err, &de) {
		m.DeadlineExpirations.Add(1)
	}
}

// WritePrometheus renders the counters in Prometheus exposition format.
// gauges carries the point-in-time values sampled by the server.
func (m *Metrics) WritePrometheus(w io.Writer, gauges Gauges) {
	g := func(name string, v any) { fmt.Fprintf(w, "%s %v\n", name, v) }
	g("spatiald_uptime_seconds", int64(time.Since(m.start).Seconds()))
	g("spatiald_connections_accepted_total", m.ConnsAccepted.Load())
	g("spatiald_sessions_active", m.SessionsActive.Load())
	g("spatiald_http_requests_total", m.HTTPRequests.Load())
	g("spatiald_commands_total", m.Commands.Load())
	g(`spatiald_queries_total{status="ok"}`, m.QueriesOK.Load())
	g(`spatiald_queries_total{status="partial"}`, m.QueriesPartial.Load())
	g(`spatiald_queries_total{status="error"}`, m.QueriesError.Load())
	g(`spatiald_queries_total{status="overload"}`, m.Overloads.Load())
	g("spatiald_query_seconds_total", float64(m.QueryNanos.Load())/float64(time.Second))
	g("spatiald_queries_in_flight", gauges.Admission.InFlight)
	g("spatiald_admission_queued", gauges.Admission.Queued)
	g("spatiald_admission_admitted_total", gauges.Admission.Admitted)
	g("spatiald_admission_shed_total", gauges.Admission.Shed)
	g("spatiald_admission_timeouts_total", gauges.Admission.Timeouts)
	g("spatiald_admission_wait_seconds_total", float64(gauges.Admission.WaitNanos)/float64(time.Second))
	g("spatiald_watchdog_active", gauges.WatchdogActive)
	g("spatiald_watchdog_cancels_total", gauges.WatchdogCancels)
	g("spatiald_deadline_expirations_total", m.DeadlineExpirations.Load())
	g("spatiald_catalog_layers", gauges.Layers)
	q := m.Query()
	g("spatiald_refine_candidates_total", q.Candidates)
	g("spatiald_refine_tests_total", q.Tests)
	g("spatiald_refine_hw_rejects_total", q.HWRejects)
	g("spatiald_refine_sw_fallbacks_total", q.SWFallbacks())
	g("spatiald_refine_panics_total", q.Panics)
	g("spatiald_refine_quarantined_total", q.Quarantined)
	g("spatiald_refine_edge_index_hits_total", q.EdgeIndexHits)
	g("spatiald_refine_edge_index_skipped_edges_total", q.EdgeIndexSkippedEdges)
	g("spatiald_refine_sig_checks_total", q.SigChecks)
	g("spatiald_refine_sig_rejects_total", q.SigRejects)
	g("spatiald_refine_interval_checks_total", q.IntervalChecks)
	g("spatiald_refine_interval_true_hits_total", q.IntervalTrueHits)
	g("spatiald_refine_interval_rejects_total", q.IntervalRejects)
	g("spatiald_refine_interval_inconclusive_total", q.IntervalInconclusive)
	g("spatiald_snapshot_loads_total", m.snapshotLoads.Load())
	g("spatiald_snapshot_bytes_total", q.SnapshotBytes)
	g("spatiald_snapshot_mmap_loads_total", m.snapshotMMaps.Load())
	g("spatiald_snapshot_load_seconds_total", q.SnapshotLoadMS/1e3)
	g("spatiald_live_delta_objects_total", q.LiveDelta)
	g("spatiald_live_tombstones_total", q.LiveTombstones)
	g("spatiald_pipeline_batches_total", q.PipelineBatches)
	g("spatiald_pipeline_filter_seconds_total", float64(q.PipelineFilterNS)/float64(time.Second))
	g("spatiald_pipeline_refine_seconds_total", float64(q.PipelineRefineNS)/float64(time.Second))
	g("spatiald_stream_rows_emitted_total", q.StreamRowsEmitted)
	for _, h := range gauges.Shards {
		up := 1
		if h.Open {
			up = 0
		}
		// Breaker state as a numeric gauge: 0 closed, 1 half-open, 2 open.
		state := 0
		switch h.State {
		case coord.BreakerHalfOpen:
			state = 1
		case coord.BreakerOpen:
			state = 2
		}
		lbl := fmt.Sprintf("tile=\"%d\",replica=\"%d\"", h.Tile, h.Replica)
		fmt.Fprintf(w, "spatiald_shard_up{%s,role=%q,addr=%q} %d\n", lbl, h.Role, h.Addr, up)
		fmt.Fprintf(w, "spatiald_shard_breaker_state{%s} %d\n", lbl, state)
		fmt.Fprintf(w, "spatiald_shard_consecutive_failures{%s} %d\n", lbl, h.ConsecFails)
		fmt.Fprintf(w, "spatiald_shard_queries_total{%s} %d\n", lbl, h.Queries)
		fmt.Fprintf(w, "spatiald_shard_failures_total{%s} %d\n", lbl, h.Fails)
		fmt.Fprintf(w, "spatiald_shard_idle_connections{%s} %d\n", lbl, h.IdleConn)
	}
	if t := gauges.Failover; t != nil {
		g("spatiald_failover_retries_total", t.Retries)
		g("spatiald_probe_checks_total", t.Probes)
		g("spatiald_probe_failures_total", t.ProbeFails)
	}
	if t := gauges.Ingest; t != nil {
		g("spatiald_ingest_tables", t.Tables)
		g("spatiald_ingest_objects", t.Objects)
		g("spatiald_ingest_pending", t.Pending)
		g("spatiald_ingest_inserts_total", t.Inserts)
		g("spatiald_ingest_deletes_total", t.Deletes)
		g("spatiald_ingest_not_found_total", t.NotFound)
		g("spatiald_wal_appends_total", t.WALAppends)
		g("spatiald_wal_batches_total", t.WALBatches)
		g("spatiald_wal_bytes_total", t.WALBytes)
		g("spatiald_wal_rotations_total", t.WALRotations)
		g("spatiald_wal_segments", t.WALSegments)
		g("spatiald_wal_truncated_segments_total", t.WALTruncated)
		g("spatiald_wal_recovered_records_total", t.WALRecovered)
		g("spatiald_wal_torn_bytes_total", t.WALTornBytes)
		g("spatiald_compaction_runs_total", t.Compactions)
		g("spatiald_compaction_seconds_total", t.CompactMS/1e3)
		g("spatiald_compaction_folded_total", t.CompactedFolded)
	}
}
