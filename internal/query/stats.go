package query

import (
	"time"

	"repro/internal/core"
)

// Stats is the one record a query returns and the serving layers expose:
// the executor's stage costs and counts (the cost bars of the paper's
// figures), the refinement testers' resolution counters (core.Stats,
// embedded, so each counter is declared and summed once) and the
// executor's own batch and streaming counters. The shell, the network
// server's access log, its /metrics surface, the HTTP/JSON endpoint and
// the coordinator's merge all consume this one flat JSON shape, so a
// select, a pooled join and a kNN query report through the same fields.
type Stats struct {
	Op      string `json:"op"`
	Results int    `json:"results"`

	// Stage counts: objects or pairs surviving MBR filtering, positives
	// and negatives the prefilter (interior / hull / 0-/1-Object) decided,
	// and pairs it left to the tester (zero for kNN).
	Candidates    int `json:"candidates"`
	FilterHits    int `json:"filter_hits,omitempty"`
	FilterRejects int `json:"filter_rejects,omitempty"`
	Compared      int `json:"compared"`

	// Stage wall-clock, milliseconds: index traversal, the prefilter, and
	// the tester's filter and refinement (summed over the workers).
	MBRFilterMS    float64 `json:"mbr_filter_ms"`
	IntermediateMS float64 `json:"intermediate_filter_ms"`
	GeometryMS     float64 `json:"geometry_ms"`

	// The refinement counters of every tester the query ran on (zero when
	// none ran).
	core.Stats

	// Executor counters (zero for kNN): batches that crossed the stages,
	// time the filter and refine stages spent on them (summed over the
	// workers), the deepest backlog seen on the work or emit queue (a
	// gauge: Merge keeps the max), and rows handed to a streaming sink.
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

// Merge combines another query's statistics into s: every counter and
// wall-clock field sums, PipelineQueueDepth keeps the max, SnapshotMMap
// ORs, and Op is kept unless unset. Merge is associative and commutative
// over the numeric fields, so a coordinator (or pjoin aggregator) can fold
// per-shard records in any order. Results sums too — callers that
// deduplicate merged result streams (e.g. a sharded select, where border
// objects report from every overlapping tile) must overwrite Results with
// the deduplicated count afterward.
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
	s.Stats.Add(o.Stats)
	s.PipelineBatches += o.PipelineBatches
	s.PipelineFilterNS += o.PipelineFilterNS
	s.PipelineRefineNS += o.PipelineRefineNS
	s.PipelineQueueDepth = max(s.PipelineQueueDepth, o.PipelineQueueDepth)
	s.StreamRowsEmitted += o.StreamRowsEmitted
	s.LiveDelta += o.LiveDelta
	s.LiveTombstones += o.LiveTombstones
	s.SnapshotBytes += o.SnapshotBytes
	s.SnapshotSections += o.SnapshotSections
	s.SnapshotMMap = s.SnapshotMMap || o.SnapshotMMap
	s.SnapshotLoadMS += o.SnapshotLoadMS
}

// Total returns the summed stage wall-clock.
func (s Stats) Total() time.Duration {
	return time.Duration((s.MBRFilterMS + s.IntermediateMS + s.GeometryMS) * float64(time.Millisecond))
}

// SWFallbacks counts pair tests that reached the hardware path but were
// decided in software: inconclusive filter verdicts plus line-width
// fallbacks.
func (s Stats) SWFallbacks() int64 { return s.HWPassed + s.HWFallbacks }

// ms converts a stage span to the record's milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
