package server

import (
	"errors"
	"fmt"
	"io"
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

// Metrics aggregates the server's counters. All fields are atomics so
// sessions update them without shared locks; WritePrometheus renders the
// exposition-format snapshot served at /metrics.
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

	// Refinement counters summed from the uniform query.Stats records.
	Candidates  atomic.Int64
	Tests       atomic.Int64
	HWRejects   atomic.Int64
	SWFallbacks atomic.Int64
	Panics      atomic.Int64
	Quarantined atomic.Int64

	// Hot-path effectiveness counters (edge index and the persisted
	// raster-signature filter).
	EdgeIndexHits         atomic.Int64
	EdgeIndexSkippedEdges atomic.Int64
	SigChecks             atomic.Int64
	SigRejects            atomic.Int64

	// Interval-approximation (v2) filter counters: pair tests where both
	// sides carried span lists and the three-valued verdict breakdown.
	IntervalChecks       atomic.Int64
	IntervalTrueHits     atomic.Int64
	IntervalRejects      atomic.Int64
	IntervalInconclusive atomic.Int64

	// Snapshot warm-start counters: loads observed, bytes mapped or
	// copied, mmap-path loads, and cumulative load wall-clock.
	SnapshotLoads  atomic.Int64
	SnapshotBytes  atomic.Int64
	SnapshotMMaps  atomic.Int64
	SnapshotLoadNS atomic.Int64

	// Degradation and self-verification counters: sentinel re-checks of
	// hardware-filter negatives, circuit-breaker state changes, pairs
	// routed around an open breaker, and deadline-governed partials.
	SentinelChecks        atomic.Int64
	SentinelDisagreements atomic.Int64
	BreakerTrips          atomic.Int64
	BreakerRecoveries     atomic.Int64
	BreakerOpenSkips      atomic.Int64
	DeadlineExpirations   atomic.Int64

	// Live-view composition counters: uncompacted delta objects and
	// tombstones carried by the views that served queries.
	LiveDelta      atomic.Int64
	LiveTombstones atomic.Int64

	// Staged-pipeline and streaming-delivery counters: batches through
	// the join pipeline, cumulative filter/refine stage time, the largest
	// queue depth any single run observed, and result rows streamed to
	// clients as they were produced.
	PipelineBatches       atomic.Int64
	PipelineFilterNS      atomic.Int64
	PipelineRefineNS      atomic.Int64
	PipelineQueueDepthMax atomic.Int64
	StreamRowsEmitted     atomic.Int64
}

// Gauges carries the point-in-time values the server samples alongside
// the Metrics counters when rendering /metrics: the limiter's admission
// snapshot, catalog size, the watchdog's registry, and — when live
// ingestion is enabled — the ingest manager's durability totals.
type Gauges struct {
	Admission       AdmissionStats
	Layers          int
	WatchdogActive  int
	WatchdogCancels int64
	Ingest          *ingest.Totals
	// Shards is the coordinator's per-replica health snapshot (nil on a
	// plain data node); Failover the coordinator's retry/hedge/probe
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
	m.Candidates.Add(int64(st.Candidates))
	m.Tests.Add(st.Tests)
	m.HWRejects.Add(st.HWRejects)
	m.SWFallbacks.Add(st.SWFallbacks())
	m.Panics.Add(st.Panics)
	m.Quarantined.Add(st.Quarantined)
	m.EdgeIndexHits.Add(st.EdgeIndexHits)
	m.EdgeIndexSkippedEdges.Add(st.EdgeIndexSkippedEdges)
	m.SigChecks.Add(st.SigChecks)
	m.SigRejects.Add(st.SigRejects)
	m.IntervalChecks.Add(st.IntervalChecks)
	m.IntervalTrueHits.Add(st.IntervalTrueHits)
	m.IntervalRejects.Add(st.IntervalRejects)
	m.IntervalInconclusive.Add(st.IntervalInconclusive)
	if st.SnapshotBytes > 0 {
		m.SnapshotLoads.Add(1)
		m.SnapshotBytes.Add(st.SnapshotBytes)
		if st.SnapshotMMap {
			m.SnapshotMMaps.Add(1)
		}
		m.SnapshotLoadNS.Add(int64(st.SnapshotLoadMS * float64(time.Millisecond)))
	}
	m.LiveDelta.Add(int64(st.LiveDelta))
	m.LiveTombstones.Add(int64(st.LiveTombstones))
	m.SentinelChecks.Add(st.SentinelChecks)
	m.SentinelDisagreements.Add(st.SentinelDisagreements)
	m.BreakerTrips.Add(st.BreakerTrips)
	m.BreakerRecoveries.Add(st.BreakerRecoveries)
	m.BreakerOpenSkips.Add(st.BreakerOpenSkips)
	m.PipelineBatches.Add(st.PipelineBatches)
	m.PipelineFilterNS.Add(st.PipelineFilterNS)
	m.PipelineRefineNS.Add(st.PipelineRefineNS)
	m.StreamRowsEmitted.Add(st.StreamRowsEmitted)
	for {
		cur := m.PipelineQueueDepthMax.Load()
		if st.PipelineQueueDepth <= cur || m.PipelineQueueDepthMax.CompareAndSwap(cur, st.PipelineQueueDepth) {
			break
		}
	}
}

// observeFailure classifies an interrupted command's error chain into the
// degradation counters. Watchdog kills are counted at the watchdog itself;
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
	g("spatiald_refine_candidates_total", m.Candidates.Load())
	g("spatiald_refine_tests_total", m.Tests.Load())
	g("spatiald_refine_hw_rejects_total", m.HWRejects.Load())
	g("spatiald_refine_sw_fallbacks_total", m.SWFallbacks.Load())
	g("spatiald_refine_panics_total", m.Panics.Load())
	g("spatiald_refine_quarantined_total", m.Quarantined.Load())
	g("spatiald_refine_edge_index_hits_total", m.EdgeIndexHits.Load())
	g("spatiald_refine_edge_index_skipped_edges_total", m.EdgeIndexSkippedEdges.Load())
	g("spatiald_refine_sig_checks_total", m.SigChecks.Load())
	g("spatiald_refine_sig_rejects_total", m.SigRejects.Load())
	g("spatiald_refine_interval_checks_total", m.IntervalChecks.Load())
	g("spatiald_refine_interval_true_hits_total", m.IntervalTrueHits.Load())
	g("spatiald_refine_interval_rejects_total", m.IntervalRejects.Load())
	g("spatiald_refine_interval_inconclusive_total", m.IntervalInconclusive.Load())
	g("spatiald_snapshot_loads_total", m.SnapshotLoads.Load())
	g("spatiald_snapshot_bytes_total", m.SnapshotBytes.Load())
	g("spatiald_snapshot_mmap_loads_total", m.SnapshotMMaps.Load())
	g("spatiald_snapshot_load_seconds_total", float64(m.SnapshotLoadNS.Load())/float64(time.Second))
	g("spatiald_sentinel_checks_total", m.SentinelChecks.Load())
	g("spatiald_sentinel_disagreements_total", m.SentinelDisagreements.Load())
	g("spatiald_breaker_trips_total", m.BreakerTrips.Load())
	g("spatiald_breaker_recoveries_total", m.BreakerRecoveries.Load())
	g("spatiald_breaker_open_skips_total", m.BreakerOpenSkips.Load())
	g("spatiald_live_delta_objects_total", m.LiveDelta.Load())
	g("spatiald_live_tombstones_total", m.LiveTombstones.Load())
	g("spatiald_pipeline_batches_total", m.PipelineBatches.Load())
	g("spatiald_pipeline_filter_seconds_total", float64(m.PipelineFilterNS.Load())/float64(time.Second))
	g("spatiald_pipeline_refine_seconds_total", float64(m.PipelineRefineNS.Load())/float64(time.Second))
	g("spatiald_pipeline_queue_depth_max", m.PipelineQueueDepthMax.Load())
	g("spatiald_stream_rows_emitted_total", m.StreamRowsEmitted.Load())
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
		g("spatiald_failover_hedges_total", t.Hedges)
		g("spatiald_failover_hedges_won_total", t.HedgesWon)
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
