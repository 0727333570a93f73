package query

import (
	"time"

	"repro/internal/core"
)

// Stats is the uniform per-query statistics record exposed to serving
// layers: one flat, JSON-marshalable struct combining the pipeline's
// stage cost breakdown (Cost) with the refinement tester's resolution
// counters (core.Stats), regardless of which query ran. The shell, the
// network server's access log, its /metrics surface and the HTTP/JSON
// endpoint all consume this one shape, so a serial select, a parallel
// join and a kNN query report through the same fields.
type Stats struct {
	Op      string `json:"op"`
	Results int    `json:"results"`

	// Pipeline stage counters (from Cost; zero for kNN, which has no
	// staged cost breakdown).
	Candidates    int `json:"candidates"`
	FilterHits    int `json:"filter_hits,omitempty"`
	FilterRejects int `json:"filter_rejects,omitempty"`
	Compared      int `json:"compared"`

	// Pipeline stage wall-clock, milliseconds.
	MBRFilterMS    float64 `json:"mbr_filter_ms"`
	IntermediateMS float64 `json:"intermediate_filter_ms"`
	GeometryMS     float64 `json:"geometry_ms"`

	// Refinement resolution counters (from core.Stats; zero when no
	// tester ran).
	Tests      int64 `json:"tests"`
	MBRRejects int64 `json:"mbr_rejects"`
	PIPHits    int64 `json:"pip_hits"`
	SigChecks  int64 `json:"sig_checks,omitempty"`
	SigRejects int64 `json:"sig_rejects,omitempty"`

	// Interval-approximation (v2) filter counters; see core.Stats.
	IntervalChecks       int64 `json:"interval_checks,omitempty"`
	IntervalTrueHits     int64 `json:"interval_true_hits,omitempty"`
	IntervalRejects      int64 `json:"interval_rejects,omitempty"`
	IntervalInconclusive int64 `json:"interval_inconclusive,omitempty"`

	SWDirect    int64 `json:"sw_direct"`
	HWRejects   int64 `json:"hw_rejects"`
	HWPassed    int64 `json:"hw_passed"`
	HWFallbacks int64 `json:"hw_fallbacks"`
	Panics      int64 `json:"panics"`
	Quarantined int64 `json:"quarantined"`

	// Sentinel verifier and circuit-breaker counters (see core.Stats).
	SentinelChecks        int64 `json:"sentinel_checks"`
	SentinelDisagreements int64 `json:"sentinel_disagreements"`
	BreakerTrips          int64 `json:"breaker_trips"`
	BreakerRecoveries     int64 `json:"breaker_recoveries"`
	BreakerOpenSkips      int64 `json:"breaker_open_skips"`

	// Edge-index hot-path effectiveness counters.
	EdgeIndexHits         int64 `json:"edge_index_hits"`
	EdgeIndexSkippedEdges int64 `json:"edge_index_skipped_edges"`

	// Query-executor and streaming-delivery counters (see core.Stats): the
	// pipeline fields are zero for kNN, the row count for a query without
	// a sink.
	PipelineBatches    int64 `json:"pipeline_batches,omitempty"`
	PipelineFilterNS   int64 `json:"pipeline_filter_ns,omitempty"`
	PipelineRefineNS   int64 `json:"pipeline_refine_ns,omitempty"`
	PipelineQueueDepth int64 `json:"pipeline_queue_depth,omitempty"`
	StreamRowsEmitted  int64 `json:"stream_rows_emitted,omitempty"`

	// Live-view composition (filled by serving layers when the query ran
	// over an uncompacted snapshot ∪ delta view; zero for plain layers).
	LiveDelta      int `json:"live_delta,omitempty"`
	LiveTombstones int `json:"live_tombstones,omitempty"`

	// Snapshot provenance (filled by serving layers when the queried layer
	// was loaded from a store snapshot; zero otherwise).
	SnapshotBytes    int64   `json:"snapshot_bytes,omitempty"`
	SnapshotSections int     `json:"snapshot_sections,omitempty"`
	SnapshotMMap     bool    `json:"snapshot_mmap,omitempty"`
	SnapshotLoadMS   float64 `json:"snapshot_load_ms,omitempty"`
}

// NewStats flattens a query's cost breakdown and tester counters into the
// uniform serving record.
func NewStats(op string, results int, cost Cost, refine core.Stats) Stats {
	return Stats{
		Op:             op,
		Results:        results,
		Candidates:     cost.Candidates,
		FilterHits:     cost.FilterHits,
		FilterRejects:  cost.FilterRejects,
		Compared:       cost.Compared,
		MBRFilterMS:    float64(cost.MBRFilter) / float64(time.Millisecond),
		IntermediateMS: float64(cost.IntermediateFilter) / float64(time.Millisecond),
		GeometryMS:     float64(cost.GeometryComparison) / float64(time.Millisecond),
		Tests:          refine.Tests,
		MBRRejects:     refine.MBRRejects,
		PIPHits:        refine.PIPHits,
		SigChecks:      refine.SigChecks,
		SigRejects:     refine.SigRejects,

		IntervalChecks:       refine.IntervalChecks,
		IntervalTrueHits:     refine.IntervalTrueHits,
		IntervalRejects:      refine.IntervalRejects,
		IntervalInconclusive: refine.IntervalInconclusive,

		SWDirect:    refine.SWDirect,
		HWRejects:   refine.HWRejects,
		HWPassed:    refine.HWPassed,
		HWFallbacks: refine.HWFallbacks,
		Panics:      refine.Panics,
		Quarantined: refine.Quarantined,

		SentinelChecks:        refine.SentinelChecks,
		SentinelDisagreements: refine.SentinelDisagreements,
		BreakerTrips:          refine.BreakerTrips,
		BreakerRecoveries:     refine.BreakerRecoveries,
		BreakerOpenSkips:      refine.BreakerOpenSkips,

		EdgeIndexHits:         refine.EdgeIndexHits,
		EdgeIndexSkippedEdges: refine.EdgeIndexSkippedEdges,

		PipelineBatches:    refine.PipelineBatches,
		PipelineFilterNS:   refine.PipelineFilterNS,
		PipelineRefineNS:   refine.PipelineRefineNS,
		PipelineQueueDepth: refine.PipelineQueueDepth,
		StreamRowsEmitted:  refine.StreamRowsEmitted,
	}
}

// Merge combines another query's statistics into s: every counter and
// wall-clock field sums, SnapshotMMap ORs, and Op is kept unless unset.
// Merge is associative and commutative over the numeric fields, so a
// coordinator (or pjoin aggregator) can fold per-shard records in any
// order. Results sums too — callers that deduplicate merged result
// streams (e.g. a sharded select, where border objects report from every
// overlapping tile) must overwrite Results with the deduplicated count
// afterward.
func (s *Stats) Merge(o Stats) {
	if s.Op == "" {
		s.Op = o.Op
	}
	s.Results += o.Results
	s.Candidates += o.Candidates
	s.FilterHits += o.FilterHits
	s.FilterRejects += o.FilterRejects
	s.Compared += o.Compared
	s.MBRFilterMS += o.MBRFilterMS
	s.IntermediateMS += o.IntermediateMS
	s.GeometryMS += o.GeometryMS
	s.Tests += o.Tests
	s.MBRRejects += o.MBRRejects
	s.PIPHits += o.PIPHits
	s.SigChecks += o.SigChecks
	s.SigRejects += o.SigRejects
	s.IntervalChecks += o.IntervalChecks
	s.IntervalTrueHits += o.IntervalTrueHits
	s.IntervalRejects += o.IntervalRejects
	s.IntervalInconclusive += o.IntervalInconclusive
	s.SWDirect += o.SWDirect
	s.HWRejects += o.HWRejects
	s.HWPassed += o.HWPassed
	s.HWFallbacks += o.HWFallbacks
	s.Panics += o.Panics
	s.Quarantined += o.Quarantined
	s.SentinelChecks += o.SentinelChecks
	s.SentinelDisagreements += o.SentinelDisagreements
	s.BreakerTrips += o.BreakerTrips
	s.BreakerRecoveries += o.BreakerRecoveries
	s.BreakerOpenSkips += o.BreakerOpenSkips
	s.EdgeIndexHits += o.EdgeIndexHits
	s.EdgeIndexSkippedEdges += o.EdgeIndexSkippedEdges
	s.PipelineBatches += o.PipelineBatches
	s.PipelineFilterNS += o.PipelineFilterNS
	s.PipelineRefineNS += o.PipelineRefineNS
	// Queue depth is a per-run high-water mark, not a flow counter: the
	// merged record keeps the deepest queue seen anywhere.
	if o.PipelineQueueDepth > s.PipelineQueueDepth {
		s.PipelineQueueDepth = o.PipelineQueueDepth
	}
	s.StreamRowsEmitted += o.StreamRowsEmitted
	s.LiveDelta += o.LiveDelta
	s.LiveTombstones += o.LiveTombstones
	s.SnapshotBytes += o.SnapshotBytes
	s.SnapshotSections += o.SnapshotSections
	s.SnapshotMMap = s.SnapshotMMap || o.SnapshotMMap
	s.SnapshotLoadMS += o.SnapshotLoadMS
}

// SWFallbacks counts pair tests that reached the hardware path but were
// decided in software: inconclusive filter verdicts plus line-width
// fallbacks.
func (s Stats) SWFallbacks() int64 { return s.HWPassed + s.HWFallbacks }
