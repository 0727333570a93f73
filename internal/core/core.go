// Package core implements the paper's contribution: hardware-assisted
// refinement tests for spatial predicates. The intersection test is
// Algorithm 3.1 — a software point-in-polygon step, a conservative
// hardware segment-intersection filter rendered on the simulated graphics
// card (internal/raster), and the software plane sweep only for pairs the
// filter cannot reject. The within-distance test renders the boundaries
// widened by the query distance (Figure 6, Equation 1) under a uniform
// projection and falls back to the software minDist algorithm when the
// hardware filter is inconclusive or the required line width exceeds the
// hardware limit.
//
// Intersection is within at d = 0: one filter body (MBR, interval
// verdict, containment, signatures) serves both tests, and off the card
// (a software-only tester, or a pair under SWThreshold) one exact test,
// the distance kernel (dist.Scratch), decides what it leaves — at d = 0
// by whether some edge pair intersects. The plane sweep stays only as
// the card's confirm.
//
// Both tests are exact: the hardware step only ever rejects pairs whose
// negative answer is guaranteed by the conservative rasterization
// properties of the renderer, so the combined result always equals the
// software-only result. The adaptive SWThreshold (paper §4.3) skips the
// hardware filter for simple polygon pairs where the fixed buffer-search
// overhead would exceed the software test itself. The served verbs refine
// in software (DisableHardware): warmed, the simulated card's rejects
// repay its render on none of the benchmark's layer pairs
// (EXPERIMENTS.md); the figure runner, spatialquery and the examples run
// the card.
package core

import (
	"repro/internal/dist"
	"repro/internal/edgeindex"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/interval"
	"repro/internal/raster"
	"repro/internal/sweep"
	"time"
)

// Default configuration values. The paper finds an 8×8 window the best
// overall balance on its platform (§5) and thresholds around 300–900
// depending on resolution (§4.3).
const (
	DefaultResolution = 8
	// DefaultSWThreshold is the paper's §4.3 value: the figure runner's.
	DefaultSWThreshold = 500

	// DefaultCrossCutoff routes the software segment test to the all-pairs
	// algorithm when len(red)·len(blue) of the restricted candidate sets is
	// at or below it. The restricted sets are usually tiny, and below this
	// work product the O(n·m) scan with its bbox pre-test beats the plane
	// sweep's sort-and-tree overhead by a wide margin; above it the
	// O((n+m)log(n+m)) sweep takes over. Both algorithms are exact, so the
	// cutoff is purely a performance choice. 16384 (128×128 edges) captures
	// nearly all of the all-pairs win on the evaluation joins while keeping
	// the worst-case cross test subquadratic.
	DefaultCrossCutoff = 16384

	// DefaultBatchSize is the query executor's candidate batch size
	// (query.JoinOptions.BatchSize — stretched to 4× for a selection,
	// whose candidates share one outer object). Large enough that a
	// batch's trip through the work and emit queues amortizes to noise,
	// small enough that the first refined batch — the client's
	// time-to-first-row — arrives after a fraction of a percent of the
	// join.
	DefaultBatchSize = 256
)

// Config controls a Tester.
type Config struct {
	// Resolution is the rendering window's width and height in pixels
	// (the paper sweeps 1–32). Zero means DefaultResolution; values above
	// raster.MaxResolution are capped at it.
	Resolution int
	// SWThreshold skips the hardware filter when the two polygons have
	// n+m vertices at or below it (paper §4.3). Zero is a valid setting
	// (always use hardware); use DefaultSWThreshold for the paper's value.
	SWThreshold int
	// DisableHardware turns the Tester into the software-only baseline.
	DisableHardware bool
	// Faults, when non-nil, arms deterministic fault injection at the
	// tester's hook sites (test entry, raster draw path). Production
	// configurations leave it nil; the resilience tests use it to prove
	// degradation semantics. See internal/faultinject.
	Faults *faultinject.Injector
}

// Stats counts how pair tests were resolved; the evaluation harness reads
// these to report filter effectiveness. The json tags are the keys of the
// serving record (query.Stats embeds Stats), in the order it writes them.
type Stats struct {
	Tests      int64 `json:"tests"`       // pair tests started
	MBRRejects int64 `json:"mbr_rejects"` // rejected by the MBR pre-test
	PIPHits    int64 `json:"pip_hits"`    // resolved positive by point-in-polygon containment

	// Persisted-signature filter accounting (see raster.Signature and
	// PairContext.PSig/QSig). A signature check runs after containment is
	// excluded and before any rendering, only for a pair that carries no
	// spans; a reject resolves the pair negative without touching the
	// hardware filter or the software test.
	SigChecks  int64 `json:"sig_checks,omitempty"`  // pair tests that consulted both objects' signatures
	SigRejects int64 `json:"sig_rejects,omitempty"` // pairs resolved negative by signature disjointness

	// Interval-approximation filter accounting (see internal/interval and
	// PairContext.PIv/QIv). The three-valued interval verdict runs right
	// after the MBR pre-test: a true hit resolves the pair POSITIVE with
	// no refinement at all (something no v1 filter can do), a reject
	// resolves it negative (for d > 0, disjointness from the d-dilated
	// list too: PairContext.QNear), and an inconclusive pair proceeds to
	// containment; a pair with spans skips the v1 signature check. TrueHits
	// and Rejects join the resolution partition; Checks and Inconclusive
	// are observability counters.
	IntervalChecks       int64 `json:"interval_checks,omitempty"`       // pair tests where both sides had spans
	IntervalTrueHits     int64 `json:"interval_true_hits,omitempty"`    // pairs resolved positive by full/full or full/certain overlap
	IntervalRejects      int64 `json:"interval_rejects,omitempty"`      // pairs resolved negative by span disjointness (d-dilated on a distance test)
	IntervalInconclusive int64 `json:"interval_inconclusive,omitempty"` // interval checks that decided nothing

	SWDirect    int64 `json:"sw_direct"`    // sent straight to software (threshold or disabled)
	HWRejects   int64 `json:"hw_rejects"`   // rejected by the hardware filter
	HWPassed    int64 `json:"hw_passed"`    // hardware inconclusive, decided by software
	HWFallbacks int64 `json:"hw_fallbacks"` // distance only: line width over the hardware limit

	// Resilience accounting, filled by the join executor's panic
	// isolation (pair tests that fault are not part of the Tests
	// partition: a panic at the test entry fires before Tests is
	// incremented, and a pair recovered mid-test is re-counted by its
	// software retry). The partition: Tests == MBRRejects +
	// IntervalTrueHits + IntervalRejects + PIPHits + SigRejects + SWDirect
	// + HWRejects + HWPassed + HWFallbacks.
	Panics      int64 `json:"panics"`      // refinement panics recovered and retried in software
	Quarantined int64 `json:"quarantined"` // pairs dropped because the software retry panicked too

	// Edge-index effectiveness (see internal/edgeindex and PairContext),
	// counted where candidate edges are collected: the card's edge sets on
	// both predicates, so on the card path only. The distance kernel,
	// every software test's exact step, descends the same hierarchies but
	// is not counted here.
	EdgeIndexHits         int64 `json:"edge_index_hits"`          // pair-level edge collections that went through at least one edge index
	EdgeIndexSkippedEdges int64 `json:"edge_index_skipped_edges"` // edges those collections' hierarchies pruned unexamined

	// Wall-clock decomposition of the refinement work, not serialized.
	HWTime      time.Duration `json:"-"` // rendering + buffer search
	SWTime      time.Duration `json:"-"` // software segment / distance tests
	CollectTime time.Duration `json:"-"` // candidate-edge collection over the MBR intersection
}

// Add accumulates other into s: every field sums.
func (s *Stats) Add(other Stats) {
	s.Tests += other.Tests
	s.MBRRejects += other.MBRRejects
	s.PIPHits += other.PIPHits
	s.SigChecks += other.SigChecks
	s.SigRejects += other.SigRejects
	s.IntervalChecks += other.IntervalChecks
	s.IntervalTrueHits += other.IntervalTrueHits
	s.IntervalRejects += other.IntervalRejects
	s.IntervalInconclusive += other.IntervalInconclusive
	s.SWDirect += other.SWDirect
	s.HWRejects += other.HWRejects
	s.HWPassed += other.HWPassed
	s.HWFallbacks += other.HWFallbacks
	s.Panics += other.Panics
	s.Quarantined += other.Quarantined
	s.EdgeIndexHits += other.EdgeIndexHits
	s.EdgeIndexSkippedEdges += other.EdgeIndexSkippedEdges
	s.HWTime += other.HWTime
	s.SWTime += other.SWTime
	s.CollectTime += other.CollectTime
}

// Tester runs refinement tests for one worker. It owns a rendering context
// (reused across pair tests, as the paper reuses one small window) and is
// therefore not safe for concurrent use; create one Tester per goroutine.
type Tester struct {
	cfg   Config
	ctx   *raster.Context
	Stats Stats

	// Scratch buffers for the card's per-pair candidate edge sets, reused
	// across tests to keep the hot path allocation-free.
	redBuf, blueBuf []geom.Segment
	// sweeper reuses the plane sweep's working storage across the card's
	// confirms.
	sweeper sweep.Sweeper
	// distScratch reuses the exact software test's working storage.
	distScratch dist.Scratch
}

// PairContext carries optional shared, read-only derived data for a pair
// test: pre-built edge indexes for the first (PIndex) and second (QIndex)
// polygon. Joins and selections that test one object against many mates
// build an object's index once (see query.Layer.EdgeIndex) and pass it
// here, turning each test's O(n+m) candidate-edge scan into an
// output-sensitive index probe. A zero PairContext reproduces the plain
// linear-scan behaviour; an index whose polygon does not match the tested
// polygon is ignored. The indexes are immutable, so one PairContext may
// be shared by concurrent workers.
type PairContext struct {
	PIndex, QIndex *edgeindex.Index
	// Breaker is read by nothing: the benchmark harness (bench/loadbench),
	// frozen between benchmark changes, still sets it.
	Breaker *Breaker

	// PSig and QSig are the objects' precomputed conservative raster
	// signatures (typically loaded from a store snapshot). When both are
	// present and match the tested polygons' MBRs, a disjointness proof
	// between them resolves the pair negative before any rendering; an
	// inconclusive signature test changes nothing. Signatures are
	// immutable and shared like the indexes.
	PSig, QSig *raster.Signature

	// PIv and QIv are the objects' interval approximations on one shared
	// interval.Grid (the caller guarantees both sides use the same grid —
	// see query.Layer's column plumbing). When both are non-empty the
	// interval verdict runs before any other geometry work and replaces
	// the signature check: TrueHit — or, when Grid's cell diagonal is at
	// most d, a cell full or certain in both lists — reports the pair
	// within d (at d = 0: intersecting), and Reject, with QNear for
	// d > 0, resolves it negative. Immutable and shared like the other
	// fields.
	PIv, QIv interval.Spans
	// QNear is Q's reject band for a distance test's d: QIv's partial
	// cells dilated by the k = Grid.RejectDilation(d) cells d spans on the
	// grid (interval.Column.Dilate, on blocks of a coarser order past
	// interval.MaxDilation cells; QIv itself at k = 0). A P list that
	// misses both QIv and QNear proves the pair more than d apart. QHit is
	// Q's hit band: QIv's full and certain cells dilated by j =
	// Grid.HitDilation(d) cells and labelled full
	// (interval.Column.DilateHits), empty when j < 1; a P list that meets
	// it in a full or certain cell proves the pair within d. Both objects
	// must lie wholly inside the grid (interval.Column.Dilate says why),
	// as the join's pair grid guarantees. At d = 0 (intersection) the
	// filter reads neither: the reject band is QIv and there is no hit
	// band.
	QNear, QHit interval.Spans
	// Grid is the interval.Grid PIv and QIv were rasterized on; the filter
	// reads its cell size for the within verdict's cell diagonal
	// (Grid.HitDilation) at d > 0.
	Grid interval.Grid
}

// NewTester builds a Tester from cfg, applying defaults for zero fields.
func NewTester(cfg Config) *Tester {
	if cfg.Resolution <= 0 {
		cfg.Resolution = DefaultResolution
	}
	// Cap at the hardware limit rather than failing: the caller asked for
	// a finer window than the hardware supports.
	cfg.Resolution = min(cfg.Resolution, raster.MaxResolution)
	t := &Tester{cfg: cfg}
	if !cfg.DisableHardware {
		t.ctx = raster.NewContext(cfg.Resolution, cfg.Resolution)
		if cfg.Faults != nil {
			t.ctx.Hook = cfg.Faults.Hook()
		}
	}
	return t
}

// Breaker is an empty type, named only by PairContext.Breaker and
// query.Layer.Breaker for the benchmark harness (bench/loadbench), which is
// frozen between benchmark changes.
type Breaker struct{}

// Config returns the tester's effective configuration.
func (t *Tester) Config() Config { return t.cfg }

// ResetStats zeroes the counters.
func (t *Tester) ResetStats() {
	t.Stats = Stats{}
}

// Intersects is Algorithm 3.1: it reports whether the closed regions of p
// and q share at least one point, exactly.
func (t *Tester) Intersects(p, q *geom.Polygon) bool {
	return t.IntersectsCtx(p, q, PairContext{})
}

// Verdict is a filter stage's outcome for one candidate pair: resolved
// negative (Miss), resolved positive (Hit), or left for the refinement
// stage (Undecided). The pipeline drivers route batches by it; the plain
// per-pair entry points compose Filter and Refine back into one call.
type Verdict int8

const (
	// VerdictMiss resolves the pair negative — no refinement needed.
	VerdictMiss Verdict = iota
	// VerdictHit resolves the pair positive — no refinement needed.
	VerdictHit
	// VerdictUndecided passes the pair to the refinement stage.
	VerdictUndecided
)

// IntersectsCtx is Intersects with shared per-object derived data: edge
// indexes in pc replace the linear candidate-edge scans on the hardware
// path and the hierarchies the software test would build. The verdict is
// identical for any pc — the indexes return exactly the edge sets the
// scan would.
func (t *Tester) IntersectsCtx(p, q *geom.Polygon, pc PairContext) bool {
	switch t.FilterIntersects(p, q, pc) {
	case VerdictHit:
		return true
	case VerdictMiss:
		return false
	}
	return t.RefineIntersects(p, q, pc)
}

// FilterIntersects is FilterWithin at d = 0 under the intersection
// test's own fault site: the MBR pre-test, the interval verdict,
// point-in-polygon containment and, for a pair without spans,
// persisted-signature disjointness. It is the pipeline's filter stage:
// dense, branch-light work that touches no rendering context, run over a
// whole batch before RefineIntersects takes on the expensive edge tests.
// Exactly one Refine call per Undecided verdict keeps the Stats resolution
// partition (Tests == sum of the resolution counters) intact even when a
// panicked pair is retried on another tester and the stats are summed
// afterwards.
func (t *Tester) FilterIntersects(p, q *geom.Polygon, pc PairContext) Verdict {
	// The fault hook runs before any counter moves, so an injected panic
	// leaves the Stats partition (Tests == sum of resolution paths) intact.
	if t.cfg.Faults != nil {
		t.cfg.Faults.Apply(faultinject.SiteIntersects)
	}
	return t.filter(p, q, 0, pc)
}

// RefineIntersects decides a pair FilterIntersects left Undecided. Its
// exact test is RefineWithin's at d = 0, the distance kernel asking
// whether some edge pair intersects (dist.Scratch.BoundaryWithin); on the
// card path (refine) it draws the edges that touch the MBR intersection
// (§3.2) — only they can take part in a boundary intersection — and
// confirms a drawn pair by the cross test on them. Callers must not
// invoke it on pairs the filter resolved — the stats partition counts
// each test exactly once.
func (t *Tester) RefineIntersects(p, q *geom.Polygon, pc PairContext) bool {
	return t.refine(p, q, pc,
		func() bool { return t.boundaryWithin(p, q, 0, pc) },
		func() (geom.Rect, float64, bool) {
			window := p.Bounds().Intersection(q.Bounds())
			t.ctx.SetViewport(window)
			return window, 0, true
		},
		t.timedCross)
}

// refine is the card path both predicates share (Algorithm 3.1 step 2,
// reused with widened lines for the distance test): threshold dispatch,
// card, and the exact test on what the card passes. The card's negative
// is taken as it stands: conservative rasterization (§2.2) covers every
// pixel an edge touches, so a pair the card rejects cannot intersect or
// come within d. The predicate supplies only what differs: exact, its
// software test; viewport, which projects the pair's window onto the card
// and returns it with the line width in pixels (0: default), drawable
// false when the card cannot draw the pair (§4.4); and confirm, which
// decides a drawn pair from its edges.
func (t *Tester) refine(p, q *geom.Polygon, pc PairContext, exact func() bool,
	viewport func() (window geom.Rect, widthPx float64, drawable bool), confirm func(red, blue []geom.Segment) bool) bool {
	// Adaptive threshold (§4.3).
	if t.ctx == nil || p.NumVerts()+q.NumVerts() <= t.cfg.SWThreshold {
		t.Stats.SWDirect++
		return exact()
	}
	window, widthPx, drawable := viewport()
	if !drawable {
		t.Stats.HWFallbacks++
		return exact()
	}
	red, blue := t.collectPair(p, q, window, pc)
	if len(red) == 0 || len(blue) == 0 {
		// One boundary has no edge in the window: with containment
		// excluded the pair can neither intersect nor come within d.
		t.Stats.HWRejects++
		return false
	}

	// Steps 2.1–2.8 on the card.
	start := time.Now()
	overlap := t.hwOverlap(red, blue, widthPx)
	t.Stats.HWTime += time.Since(start)
	if !overlap {
		t.Stats.HWRejects++
		return false
	}
	// Inconclusive: step 3, the exact test.
	t.Stats.HWPassed++
	return confirm(red, blue)
}

// sigReject consults the pair's persisted raster signatures and reports
// whether they prove the boundaries cannot come within d of each other
// (d = 0: cannot intersect). Callers must have excluded containment — a
// contained pair has intersecting regions with arbitrarily distant
// boundaries, which signatures cannot see. Signatures whose bounds do not
// match the tested polygons (a mismatched PairContext) are ignored, like
// a mismatched edge index.
func (t *Tester) sigReject(p, q *geom.Polygon, d float64, pc PairContext) bool {
	if !pc.PSig.Valid() || !pc.QSig.Valid() {
		return false
	}
	if pc.PSig.Bounds != p.Bounds() || pc.QSig.Bounds != q.Bounds() {
		return false
	}
	t.Stats.SigChecks++
	if raster.SignaturesMayIntersect(pc.PSig, pc.QSig, d) {
		return false
	}
	t.Stats.SigRejects++
	return true
}

// containmentPossible is sweep.ContainmentPossible — step 1 of the software
// test, a vertex of one polygon inside or on the other — asking each
// polygon through its edge index when the PairContext carries one, which
// examines only the edge runs the point's ray can reach.
func containmentPossible(p, q *geom.Polygon, pc PairContext) bool {
	return containsPoint(q, pc.QIndex, p.Verts[0]) || containsPoint(p, pc.PIndex, q.Verts[0])
}

func containsPoint(p *geom.Polygon, ix *edgeindex.Index, pt geom.Point) bool {
	if ix != nil && ix.Polygon() == p {
		return ix.ContainsPoint(pt)
	}
	return p.ContainsPoint(pt)
}

// collectPair gathers the candidate edges of p and q touching r into the
// tester's scratch buffers, going through each side's edge index when the
// PairContext carries one (blue is skipped when red comes back empty,
// matching sweep.CandidateEdgesInto). The edge sets — content and order —
// are identical with and without indexes; only the work to find them
// differs, which the EdgeIndex stats record.
func (t *Tester) collectPair(p, q *geom.Polygon, r geom.Rect, pc PairContext) (red, blue []geom.Segment) {
	start := time.Now()
	red, examined, indexed := collectSide(t.redBuf, p, pc.PIndex, r)
	t.redBuf = red[:0]
	skipped := p.NumEdges() - examined
	if len(red) > 0 {
		var exq int
		var ixq bool
		blue, exq, ixq = collectSide(t.blueBuf, q, pc.QIndex, r)
		t.blueBuf = blue[:0]
		skipped += q.NumEdges() - exq
		indexed = indexed || ixq
	}
	t.Stats.CollectTime += time.Since(start)
	if indexed {
		t.Stats.EdgeIndexHits++
	}
	t.Stats.EdgeIndexSkippedEdges += int64(skipped)
	return red, blue
}

// collectSide collects one polygon's candidate edges, via its index when
// one is supplied (and actually indexes this polygon), else linearly, and
// reports how many edges the selection predicate examined.
func collectSide(buf []geom.Segment, p *geom.Polygon, ix *edgeindex.Index, r geom.Rect) (segs []geom.Segment, examined int, indexed bool) {
	if ix != nil && ix.Indexed() && ix.Polygon() == p {
		segs, examined := ix.AppendEdgesInRect(buf[:0], r)
		return segs, examined, true
	}
	return sweep.AppendEdgesInRange(buf[:0], p, r, 0, p.NumEdges()), p.NumEdges(), false
}

// WithinDistance reports whether the regions of p and q are within
// distance d, exactly, using the hardware widened-edge filter where
// profitable.
func (t *Tester) WithinDistance(p, q *geom.Polygon, d float64) bool {
	return t.WithinDistanceCtx(p, q, d, PairContext{})
}

// WithinDistanceCtx is WithinDistance with shared per-object derived
// data; see IntersectsCtx.
func (t *Tester) WithinDistanceCtx(p, q *geom.Polygon, d float64, pc PairContext) bool {
	switch t.FilterWithin(p, q, d, pc) {
	case VerdictHit:
		return true
	case VerdictMiss:
		return false
	}
	return t.RefineWithin(p, q, d, pc)
}

// FilterWithin is the within-distance filter stage: MBR distance
// pre-test, the interval verdict (reject through the reject band, true
// hit through the lists' shared cells or the hit band), containment, and,
// for a pair that carries no spans, d-expanded signature disjointness —
// none of which touch the rendering context. See FilterIntersects for
// the stats contract.
func (t *Tester) FilterWithin(p, q *geom.Polygon, d float64, pc PairContext) Verdict {
	if t.cfg.Faults != nil {
		t.cfg.Faults.Apply(faultinject.SiteWithinDistance)
	}
	return t.filter(p, q, d, pc)
}

// filter is the one filter body of both tests; intersection is d = 0.
func (t *Tester) filter(p, q *geom.Polygon, d float64, pc PairContext) Verdict {
	t.Stats.Tests++
	if p.Bounds().DistSq(q.Bounds()) > geom.SqBound(d) {
		t.Stats.MBRRejects++
		return VerdictMiss
	}

	// Interval verdict, the paper's widen-by-D filter (§3.3) in interval
	// form: regions that intersect are within every d, and so are two
	// objects with points in one cell whose diagonal d covers, or in cells
	// Q's hit band joins; a P list that misses Q's cover and Q's boundary
	// cells widened by d's cells is farther than d from Q. At d = 0 the
	// reject band is Q's list itself, so the verdict's reject is the
	// band's, and there is no hit band. Sound in both directions, it runs
	// before containment and takes the signature check's place.
	spans := len(pc.PIv) > 0 && len(pc.QIv) > 0
	if spans {
		t.Stats.IntervalChecks++
		v := interval.CompareWithin(pc.PIv, pc.QIv, d > 0 && pc.Grid.HitDilation(d) >= 0)
		if v == interval.Reject && (d == 0 || interval.Disjoint(pc.PIv, pc.QNear)) {
			t.Stats.IntervalRejects++
			return VerdictMiss
		}
		if v == interval.TrueHit || interval.CompareWithin(pc.PIv, pc.QHit, false) == interval.TrueHit {
			t.Stats.IntervalTrueHits++
			return VerdictHit
		}
		t.Stats.IntervalInconclusive++
	}

	// Step 1 of Algorithm 3.1, point-in-polygon both ways: containment
	// makes the region distance zero but leaves boundaries arbitrarily far
	// apart, which no edge test can see.
	if containmentPossible(p, q, pc) {
		t.Stats.PIPHits++
		return VerdictHit
	}

	// Persisted-signature filter: with containment excluded, within-d
	// reduces to the boundaries coming within d, which the signatures
	// refute when their d-expanded cells are disjoint.
	if !spans && t.sigReject(p, q, d, pc) {
		return VerdictMiss
	}
	return VerdictUndecided
}

// RefineWithin decides a pair FilterWithin left Undecided on the card
// path (refine); the exact distance test also confirms a drawn pair.
// The viewport is the smaller object's MBR expanded by d (§3.2): if the
// pair is within d, one closest point lies on the smaller boundary and the
// other within d of it, so both, the edges through them and the midpoint
// whose pixel both widened boundaries cover lie inside it. The projection
// is uniform so that d maps to one line width on both axes, padded by one
// ulp-scale epsilon so pairs at exactly d stay covered.
func (t *Tester) RefineWithin(p, q *geom.Polygon, d float64, pc PairContext) bool {
	exact := func() bool { return t.boundaryWithin(p, q, d, pc) }
	return t.refine(p, q, pc, exact,
		func() (geom.Rect, float64, bool) {
			small := p.Bounds()
			if q.Bounds().Area() < small.Area() {
				small = q.Bounds()
			}
			region := small.Expand(d)
			widthPx := d * t.ctx.SetViewportUniform(region)
			widthPx += 1e-9 * (1 + widthPx)
			return region, widthPx, widthPx <= raster.MaxLineWidth
		},
		func(_, _ []geom.Segment) bool { return exact() })
}

// boundaryWithin is the exact software test of both predicates, counted
// under SWTime: with containment excluded the kernel's boundary distance
// is the region distance, crossing boundaries included, and at d = 0 it
// asks whether some edge pair intersects.
func (t *Tester) boundaryWithin(p, q *geom.Polygon, d float64, pc PairContext) bool {
	start := time.Now()
	within := t.distScratch.BoundaryWithin(p, q, pc.PIndex, pc.QIndex, d, dist.Options{})
	t.Stats.SWTime += time.Since(start)
	return within
}

// hwOverlap runs the hardware overlap test (Algorithm 3.1 steps 2.1–2.8)
// on the given edge sets under the caller-established viewport and reports
// whether any pixel was covered by both sets: one set is rendered into a
// plane, the other set's fragments are tested against it, stopping at the
// first shared pixel (the plane-AND that stands for the paper's
// accumulate-and-Minmax search; see the raster package's substitution
// note). Rendering the smaller set and testing the larger one bounds the
// stored pass by the cheap side and lets overlapping pairs exit during
// the expensive side. widthPx 0 uses the context's anti-aliased default
// width.
func (t *Tester) hwOverlap(red, blue []geom.Segment, widthPx float64) bool {
	ctx := t.ctx
	ctx.Clear()
	if len(red) > len(blue) {
		red, blue = blue, red
	}
	for _, s := range red {
		ctx.DrawSegmentWidth(&ctx.A, s, widthPx)
	}
	for _, s := range blue {
		if ctx.SegmentTouches(&ctx.A, s, widthPx) {
			return true
		}
	}
	return false
}

// timedCross is crossIntersects counted under SWTime.
func (t *Tester) timedCross(red, blue []geom.Segment) bool {
	start := time.Now()
	ok := t.crossIntersects(red, blue)
	t.Stats.SWTime += time.Since(start)
	return ok
}

// crossIntersects runs the software segment test on pre-restricted edge
// sets, adaptively: small work products go to the all-pairs scan (the
// common case once the edge index has shrunk the sets), large ones to the
// tester's reusable plane sweep. Both are exact, so the choice never
// changes a verdict.
func (t *Tester) crossIntersects(red, blue []geom.Segment) bool {
	if len(red)*len(blue) <= DefaultCrossCutoff {
		return sweep.CrossIntersectsBrute(red, blue)
	}
	return t.sweeper.CrossIntersects(red, blue)
}
