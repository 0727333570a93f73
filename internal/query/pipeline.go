package query

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/geom"
	"repro/internal/interval"
	"repro/internal/parallel"
	"repro/internal/rtree"
)

// This file is the query executor — the one driver behind every join and
// selection verb (a selection is a join whose outer side is its window):
// candidate generation → filter (optional prefilter, then the
// render-free front of Algorithm 3.1: MBR / interval / containment /
// persisted signature, a selection skipping the interval and signature
// steps) → refine (hardware filter + exact software tests)
// → emit, in batches. Batching keeps each stage's working set hot (the
// filter stage runs dense and branch-light over whole batches, modeled on
// 3DPipe's pipelined join framework), and the emit stage delivers refined
// batches to a streaming sink as they complete — clients measure
// time-to-first-row instead of time-to-last-row. One worker pool
// (parallel.Ordered) does all of it — generates the candidates task by
// task (generate), then takes each batch through filter and refine
// (runStages) — and hands results back on the calling goroutine in task
// order; a caller-owned tester is a pool of one, which runs everything on
// the calling goroutine. The result — returned and streamed — is in
// candidate order, which is (A, B) order: candidates are born sorted.

// JoinOptions configure a join or a selection: how it executes, what it
// guards against, which intermediate filters run, and the ablation knobs.
// A selection reads InteriorLevel, MaxCandidates, BatchSize and Sink; the
// pool, the join prefilters, the No* knobs and IntervalOrder are a join's,
// since a selection runs no interval or signature stage.
type JoinOptions struct {
	// Workers is the size of the tester-less entry points' worker pool —
	// the goroutines that generate the candidates and then filter and
	// refine them; 0 means GOMAXPROCS, and the executor clamps it (see
	// poolSize). Tester builds each worker's tester — every worker needs
	// its own (a Tester owns a rendering context, like a per-thread GL
	// context); nil means the software-only tester the verbs use.
	Workers int
	Tester  func() *core.Tester
	// MaxCandidates, when positive, aborts the query with a *BudgetError
	// if MBR filtering yields more candidates than this — the guard
	// against pathological MBR skew materializing an unbounded pair list.
	MaxCandidates int
	// BatchSize is the candidate-pair batch size — how many pairs travel
	// together through the stages, which bounds the memory between them
	// and sets the streaming granularity; 0 means core.DefaultBatchSize.
	BatchSize int
	// Sink, when non-nil, receives each completed batch's positive pairs
	// in sequence order as refinement finishes, from the calling
	// goroutine. The slice is reused between calls — consume it before
	// returning, don't retain it. A non-nil return stops the join:
	// completed batches still drain into the returned result, and the
	// error surfaces as the *PartialError cause (the streaming wind-down
	// path). A selection's pairs are (0, id), its window being the only
	// outer object; its batches hold up to 4× BatchSize candidates, all
	// one outer group (see runStages), per component on a live view.
	Sink func(pairs []Pair) error

	// UseHullFilter enables Brinkhoff's geometric filter on intersection
	// joins: candidate pairs whose pre-computed convex hulls are disjoint
	// are rejected before geometry comparison. Hull construction (a
	// pre-processing cost the paper's hardware technique avoids) happens
	// lazily on first use and is charged to the intermediate-filter stage
	// of that first query.
	UseHullFilter bool
	// Use0Object enables the MBR-only distance upper-bound filter on
	// within-distance queries.
	Use0Object bool
	// Use1Object enables the upper bound using the larger object's actual
	// geometry (paper §4.1.1: "very aggressive filtering").
	Use1Object bool
	// InteriorLevel is a selection's prefilter, the interior filter's
	// tiling level; negative disables it (the paper's level-0 runs build a
	// 1×1 tiling).
	InteriorLevel int

	// NoSignatures detaches the persisted raster-signature filter of
	// snapshot-backed layers from a join, NoIntervals the v2
	// interval-approximation filter from a join of either kind (true hits
	// and rejects, the within join's d-dilated reject included; the v1
	// signature path then decides alone). Ablation and baseline knobs.
	NoSignatures, NoIntervals bool
	// IntervalOrder forces the shared interval grid's order (2..15); 0
	// derives it from the layers. No verb sets it.
	//
	//reach:keep TestIntervalJoinDifferentialGrid and TestIntervalConcurrentLazyBuild join on grids other than the derived one through it
	IntervalOrder int
}

type DistanceFilterOptions = JoinOptions // for bench/ until a benchmark PR re-points it
type PipelineOptions = JoinOptions       // for bench/ until a benchmark PR re-points it
type SelectionOptions = JoinOptions      // for bench/ until a benchmark PR re-points it

// poolSize is the worker count before the amount of work bounds it
// further: one — the calling goroutine — when the caller owns the tester,
// else JoinOptions.Workers capped at GOMAXPROCS (GOMAXPROCS when 0). The
// stages are CPU-bound, so a worker past the cores only waits for one,
// and every worker owns a tester with its raster buffer while the count
// can arrive straight off the wire.
func (o JoinOptions) poolSize(tester *core.Tester) int {
	if tester != nil {
		return 1
	}
	n := runtime.GOMAXPROCS(0)
	if o.Workers > 0 {
		n = min(o.Workers, n)
	}
	return n
}

// IntersectionJoinView returns all pairs (a from view a, b from view b)
// whose regions intersect, executed inline on the calling goroutine with
// the caller's tester, which also accumulates the refinement counters; the
// returned record carries the stage costs and the counters this call
// added. A cancelled or expired context yields the pairs found so far plus
// a *PartialError; an overflowing candidate budget a *BudgetError.
func IntersectionJoinView(ctx context.Context, a, b *View, tester *core.Tester, opt JoinOptions) ([]Pair, Stats, error) {
	return joinViews(ctx, a, b, intersects, tester, opt)
}

// WithinDistanceJoinView is IntersectionJoinView for the buffer query:
// all pairs whose regions are within distance d of each other.
func WithinDistanceJoinView(ctx context.Context, a, b *View, d float64, tester *core.Tester, opt JoinOptions) ([]Pair, Stats, error) {
	return joinViews(ctx, a, b, withinDistance(d), tester, opt)
}

// PipelineIntersectionJoinView is the intersection join on the worker
// pool (opt.Workers, opt.Tester); the returned record carries the stage
// costs and the workers' summed counters.
func PipelineIntersectionJoinView(ctx context.Context, a, b *View, opt JoinOptions) ([]Pair, Stats, error) {
	return joinViews(ctx, a, b, intersects, nil, opt)
}

// PipelineWithinDistanceJoinView is PipelineIntersectionJoinView for the
// buffer query.
func PipelineWithinDistanceJoinView(ctx context.Context, a, b *View, d float64, opt JoinOptions) ([]Pair, Stats, error) {
	return joinViews(ctx, a, b, withinDistance(d), nil, opt)
}

// joinKind is the join condition: intersects, or within distance d.
type joinKind struct {
	op     string
	within bool
	d      float64
}

var intersects = joinKind{op: "join"}

func withinDistance(d float64) joinKind { return joinKind{op: "within-join", within: true, d: d} }

// predicate is a join condition bound to two layers and cut the way the
// stages consume it.
type predicate struct {
	op string
	// pre is the prefilter step at the head of the filter stage (hull
	// reject, 0-/1-Object accept), deciding pairs without a tester; nil
	// when no intermediate filter is on. preSetup is what building it cost.
	pre      func(Pair) core.Verdict
	preSetup time.Duration
	filter   func(*core.Tester, Pair) core.Verdict
	refine   func(*core.Tester, Pair) bool
}

// bind resolves the per-pair inputs (edge indexes, signatures, interval
// columns and b's bands, hulls) of a join between layers a and b. An
// intersection join is a within join at d = 0, where the reject band is
// b's column itself and there is no hit band.
func (k joinKind) bind(a, b *Layer, opt JoinOptions) predicate {
	iva, ivb := intervalColumns(a, b, opt.NoIntervals, opt.IntervalOrder)
	var near, hit *interval.Column
	if ivb != nil {
		near, hit = b.nearColumn(ivb.Grid, k.d), b.hitColumn(ivb.Grid, k.d)
	}
	pcFor := pairContexts(a, b, opt, iva, ivb, near, hit)
	d := k.d
	p := predicate{
		op: k.op,
		filter: func(t *core.Tester, pr Pair) core.Verdict {
			if k.within {
				return t.FilterWithin(a.Data.Objects[pr.A], b.Data.Objects[pr.B], d, pcFor(pr))
			}
			return t.FilterIntersects(a.Data.Objects[pr.A], b.Data.Objects[pr.B], pcFor(pr))
		},
		refine: func(t *core.Tester, pr Pair) bool {
			if k.within {
				return t.RefineWithin(a.Data.Objects[pr.A], b.Data.Objects[pr.B], d, pcFor(pr))
			}
			return t.RefineIntersects(a.Data.Objects[pr.A], b.Data.Objects[pr.B], pcFor(pr))
		},
	}
	switch {
	case k.within && (opt.Use0Object || opt.Use1Object):
		// Distance upper bounds identify positives early.
		p.pre = func(pr Pair) core.Verdict {
			pa, pb := a.Data.Objects[pr.A], b.Data.Objects[pr.B]
			if opt.Use0Object && filter.UpperBound0(pa.Bounds(), pb.Bounds()) <= d {
				return core.VerdictHit
			}
			if opt.Use1Object {
				// The larger object's geometry against the smaller
				// object's MBR.
				big, smallBounds := pa, pb.Bounds()
				if pb.NumVerts() > pa.NumVerts() {
					big, smallBounds = pb, pa.Bounds()
				}
				if filter.UpperBound1Within(big, smallBounds, d) {
					return core.VerdictHit
				}
			}
			return core.VerdictUndecided
		}
	case !k.within && opt.UseHullFilter:
		// The geometric filter rejects provably disjoint pairs. (The paper
		// evaluates its joins without an intermediate filter — this is the
		// Table 1 pre-processing technique, kept for comparison.)
		start := time.Now()
		ha, hb := a.Hulls(), b.Hulls()
		p.preSetup = time.Since(start)
		p.pre = func(pr Pair) core.Verdict {
			if filter.PairMayIntersect(ha, pr.A, hb, pr.B) {
				return core.VerdictUndecided
			}
			return core.VerdictMiss
		}
	}
	return p
}

// joinViews runs the join once per component pair of the two views (up
// to base×base, base×delta, delta×base, delta×delta); see composeViews.
func joinViews(ctx context.Context, a, b *View, k joinKind, tester *core.Tester, opt JoinOptions) ([]Pair, Stats, error) {
	return composeViews(a.components(), b.components(), opt, func(la, lb *Layer, o JoinOptions) ([]Pair, Stats, error) {
		return execute(ctx, la.Data.Objects, lb, k, tester, o, func() predicate { return k.bind(la, lb, o) })
	})
}

// composeViews runs one executor call per component pair of the outer
// side as and the inner side bs — a view's components, or a selection's
// window alone — remaps pairs, the returned ones and the streamed batches,
// to canonical positions, drops tombstoned participants, and returns the
// union sorted by (A, B). One component pair with identity positions is
// one call with nothing to remap. Tombstoned objects still pass through
// the component calls (they live in the base layer's R-tree), so the
// merged record includes their filtering work — the honest price of
// querying an uncompacted view. A budget trip in any call aborts with no
// result.
func composeViews(as, bs []viewComponent, opt JoinOptions,
	run func(a, b *Layer, opt JoinOptions) ([]Pair, Stats, error)) ([]Pair, Stats, error) {
	if len(as) == 1 && len(bs) == 1 && as[0].canon == nil && bs[0].canon == nil {
		return run(as[0].layer, bs[0].layer, opt)
	}
	var (
		out   []Pair
		stats Stats
		err   error
	)
loop:
	for _, ca := range as {
		for _, cb := range bs {
			remap := func(dst, pairs []Pair) []Pair {
				for _, pr := range pairs {
					if pa, pb := ca.pos(pr.A), cb.pos(pr.B); pa >= 0 && pb >= 0 {
						dst = append(dst, Pair{int(pa), int(pb)})
					}
				}
				return dst
			}
			o := opt
			if opt.Sink != nil {
				var buf []Pair
				o.Sink = func(pairs []Pair) error {
					if buf = remap(buf[:0], pairs); len(buf) == 0 {
						return nil
					}
					return opt.Sink(buf)
				}
			}
			pairs, st, rerr := run(ca.layer, cb.layer, o)
			stats.Merge(st)
			if _, budget := rerr.(*BudgetError); budget {
				return nil, stats, rerr
			}
			out = remap(out, pairs)
			if err = rerr; err != nil {
				break loop
			}
		}
	}
	sortPairsByOuter(out)
	stats.Results = len(out)
	return out, stats, err
}

// execute runs one component pair through the pipeline of Figure 8: the
// MBR filter (generate) of the outer polygons against b's R-tree, then
// the candidates through runStages under the predicate bind returns,
// bound only once generation succeeded.
func execute(ctx context.Context, outer []*geom.Polygon, b *Layer, k joinKind, tester *core.Tester, opt JoinOptions,
	bind func() predicate) ([]Pair, Stats, error) {
	start := time.Now()
	candidates, seen, err := generate(ctx, outer, b, k, opt.poolSize(tester), opt.MaxCandidates)
	st := Stats{Op: k.op, Candidates: seen, MBRFilterMS: ms(time.Since(start))}
	if err != nil {
		return nil, st, err
	}

	start = time.Now()
	p := bind()
	st.IntermediateMS, st.GeometryMS = ms(p.preSetup), ms(time.Since(start)-p.preSetup)
	return runStages(ctx, candidates, p, tester, opt, st)
}

// A generation task is a contiguous run of outer object ids, sized to give
// every worker genTasksPerWorker of them to balance skewed probe costs
// with, inside bounds that keep a claim rare against the probes it buys
// and the next cancellation check a few milliseconds away at most.
const (
	genTasksPerWorker = 8
	genMinRun         = 16
	genMaxRun         = 1024
)

// generate is the MBR join as an index-nested-loop: every outer polygon,
// in index order, probes b's R-tree with its MBR (MBR distance
// lower-bounds object distance, so the distance join loses no pair
// either). The tasks run on the worker pool; a task orders each of its
// polygons' mates by inner id, and the tasks' lists, concatenated in task
// order, are the candidate list in (A, B) order with no sort over the
// list: an outer polygon's pairs are consecutive, its vertices and edge
// index cache-hot across its run. A join's outer side is a layer's
// objects, a selection's its window alone.
//
// It returns the list and the number of candidates seen. The context is
// looked at once per task and every 1024 index visits, and a probe stops
// as soon as the running total passes the budget, so one outer polygon
// with a huge mate list can neither overrun the budget nor outlast its
// caller. A budget overflow is a *BudgetError, a context that ended before
// the last probe finished a *PartialError with nothing done; either way no
// tester has run.
func generate(ctx context.Context, outer []*geom.Polygon, b *Layer, k joinKind, workers, budget int) ([]Pair, int, error) {
	n := len(outer)
	run := min(max(n/(genTasksPerWorker*workers), genMinRun), genMaxRun)
	slots := make([][]Pair, (n+run-1)/run)
	// What the tasks share, in one value: one allocation per call, which a
	// selection pays on every request.
	var pool struct {
		seen         atomic.Int64
		over, ctxEnd atomic.Bool
	}
	probe := func(_ struct{}, t int) []Pair {
		if ctx.Err() != nil {
			pool.ctxEnd.Store(true)
		}
		var (
			out             []Pair
			a, from, visits int
			before          int64 // seen when the probe began
		)
		visit := func(e rtree.Entry) bool {
			if visits++; visits&1023 == 0 && ctx.Err() != nil {
				pool.ctxEnd.Store(true)
				return false
			}
			out = append(out, Pair{a, e.ID})
			if budget > 0 && before+int64(len(out)-from) > int64(budget) {
				pool.over.Store(true)
				return false
			}
			return true
		}
		for a = t * run; a < min((t+1)*run, n) && !pool.over.Load() && !pool.ctxEnd.Load(); a++ {
			from, before = len(out), pool.seen.Load()
			if r := outer[a].Bounds(); k.within {
				b.Index.SearchWithin(r, k.d, visit)
			} else {
				b.Index.Search(r, visit)
			}
			sortPairsByOuter(out[from:]) // one outer id: by inner id
			if total := pool.seen.Add(int64(len(out) - from)); budget > 0 && total > int64(budget) {
				pool.over.Store(true)
			}
		}
		return out
	}
	parallel.Ordered(len(slots), workers, func() struct{} { return struct{}{} }, probe,
		func(t int, out []Pair) { slots[t] = out })

	total := int(pool.seen.Load())
	switch {
	case pool.over.Load():
		return nil, budget, &BudgetError{Op: k.op, Candidates: budget + 1, Budget: budget}
	case pool.ctxEnd.Load():
		return nil, total, &PartialError{Op: k.op, Done: 0, Total: total, Err: ctxCause(ctx)}
	}
	if len(slots) == 1 {
		return slots[0], total, nil
	}
	candidates := make([]Pair, 0, total)
	for _, s := range slots {
		candidates = append(candidates, s...)
	}
	return candidates, total, nil
}

// pipeBatch is one candidate batch traveling through the stages.
type pipeBatch struct {
	pairs []Pair
	// keep is the per-pair verdict, filled in by the filter stage for
	// resolved pairs and the refine stage for the rest; emission order is
	// candidate order, so hits are read back out through it.
	keep []bool
	// undecided indexes into pairs the filter stage could not resolve.
	undecided []int32
	// complete is unset on a batch that never started or that the context
	// interrupted: it is not emitted.
	complete bool

	// The batch's share of the stats record, summed at emit: its stage
	// costs. The testers' counters are summed once the run ends.
	preHits, preRejects          int
	preTime, filterTime, refTime time.Duration
}

// stageWorker is one pool worker's refinement state: the run it serves,
// its tester, and the software-only retry tester built on the first panic.
type stageWorker struct {
	run   *stageRun
	t, sw *core.Tester
}

// stage is one pool task: batch i through filter, then refine while its
// polygons are still in the worker's cache, unless the run has stopped.
func (w *stageWorker) stage(i int) pipeBatch {
	r := w.run
	b := pipeBatch{pairs: r.candidates[r.cuts[i]:r.cuts[i+1]]}
	if r.stop.Load() || ended(r.ctx.Done()) {
		return b
	}
	b.complete = w.filterBatch(r.ctx, &r.p, &b) && w.refineBatch(r.ctx, &r.p, &b)
	return b
}

// safe runs one stage function with panic isolation: a panic never
// escapes, the caller is told instead.
func safe[T any](t *core.Tester, pr Pair, f func(*core.Tester, Pair) T) (v T, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true // v was never assigned: it is the zero T
		}
	}()
	return f(t, pr), false
}

// retry is the hw→sw degradation path for a pair whose stage function
// panicked on the worker's tester: the pair runs once more on a tester
// degraded to the pure software path with fault injection disarmed (so
// an injected fault cannot re-fire), and a second panic quarantines it —
// counted, excluded from the result. A panicked filter verdict never
// counted Tests, so its retry is the whole test from the top; a panicked
// refine retries refine-only, its filter half having counted already.
func (w *stageWorker) retry(p *predicate, pr Pair, whole bool) bool {
	w.t.Stats.Panics++
	if w.sw == nil {
		cfg := w.t.Config()
		cfg.DisableHardware = true
		cfg.Faults = nil
		w.sw = core.NewTester(cfg)
	}
	v, panicked := core.VerdictUndecided, false
	if whole {
		v, panicked = safe(w.sw, pr, p.filter)
	}
	keep := v == core.VerdictHit
	if !panicked && v == core.VerdictUndecided {
		keep, panicked = safe(w.sw, pr, p.refine)
	}
	// What the retry counted is the worker's: it goes to the worker's
	// tester, and so to the record.
	w.t.Stats.Add(w.sw.Stats)
	w.sw.Stats = core.Stats{}
	if panicked {
		w.t.Stats.Quarantined++
		return false
	}
	return keep
}

// filterBatch is the filter stage over one batch: the prefilter step,
// then the tester's render-free verdict for what it left. It reports
// false when ctx ended mid-batch; the batch is then incomplete and must
// not be emitted.
func (w *stageWorker) filterBatch(ctx context.Context, p *predicate, b *pipeBatch) bool {
	start := time.Now()
	b.keep = make([]bool, len(b.pairs))
	b.undecided = make([]int32, 0, len(b.pairs))
	for i, pr := range b.pairs {
		v := core.VerdictUndecided
		if p.pre != nil {
			v = p.pre(pr)
		}
		switch v {
		case core.VerdictHit:
			b.keep[i] = true
			b.preHits++
		case core.VerdictMiss:
			b.preRejects++
		default:
			b.undecided = append(b.undecided, int32(i))
		}
	}
	if p.pre != nil {
		b.preTime = time.Since(start)
	}
	rest := b.undecided[:0]
	done := ctx.Done()
	for _, i := range b.undecided {
		if ended(done) {
			return false
		}
		pr := b.pairs[i]
		v, panicked := safe(w.t, pr, p.filter)
		switch {
		case panicked:
			b.keep[i] = w.retry(p, pr, true)
		case v == core.VerdictHit:
			b.keep[i] = true
		case v == core.VerdictUndecided:
			rest = append(rest, i)
		}
	}
	b.undecided = rest
	b.filterTime = time.Since(start) - b.preTime
	return true
}

// ended reports whether done, a context's Done channel, is closed. It is
// the per-pair cancellation check: a receive that does not block takes no
// lock, where Context.Err on a cancelable context takes the context's
// mutex, which every worker of a run shares. The error itself is read
// from the context once the run stops.
func ended(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// refineBatch is the refine stage over one batch: the pairs the filter
// stage left undecided. It reports false when ctx ended mid-batch.
func (w *stageWorker) refineBatch(ctx context.Context, p *predicate, b *pipeBatch) bool {
	start := time.Now()
	done := ctx.Done()
	for _, i := range b.undecided {
		if ended(done) {
			return false
		}
		pr := b.pairs[i]
		keep, panicked := safe(w.t, pr, p.refine)
		if panicked {
			keep = w.retry(p, pr, false)
		}
		b.keep[i] = keep
	}
	b.refTime = time.Since(start)
	return true
}

// stageRun is one runStages call, what its workers read and the emit
// stage's state, in one allocation with room for a caller's tester's
// worker and the cuts of a selection's one batch.
type stageRun struct {
	ctx        context.Context
	p          predicate
	candidates []Pair
	cuts       []int       // batch i is candidates[cuts[i]:cuts[i+1]]
	stop       atomic.Bool // set by a sink failure

	sink func([]Pair) error
	// results holds the emitted hits in candidates' own array: batches
	// are emitted in candidate order and keep a subsequence of their
	// pairs, so the hits written so far end before the batch being read,
	// and no worker reads a batch emit has passed.
	results []Pair
	done    int   // pairs in emitted batches
	sinkErr error // first sink failure; nothing is sunk after it

	// What emit sums for the record: the prefilter's decisions, the stage
	// costs, and the batches and rows it passed on.
	preHits, preRejects, compared int
	preTime, filterTime, refTime  time.Duration
	batches, streamed             int64

	// workers are the pool's own workers, whose testers' counters the
	// record sums once the run ends; a caller's tester's worker is own.
	mu      sync.Mutex
	workers []*stageWorker
	own     stageWorker
	room    [2]int
}

// emit is the emit stage, on the calling goroutine, batch after batch in
// candidate order: for a complete batch it adds the batch's stage costs
// to the record, moves its hits to the result and hands them to the sink.
// A sink failure stops the run.
func (r *stageRun) emit(_ int, b pipeBatch) {
	if !b.complete {
		return
	}
	n := len(r.results)
	for i, keep := range b.keep {
		if keep {
			r.results = append(r.results, b.pairs[i])
		}
	}
	r.done += len(b.pairs)
	r.preHits += b.preHits
	r.preRejects += b.preRejects
	r.compared += len(b.pairs) - b.preHits - b.preRejects
	r.preTime += b.preTime
	r.filterTime += b.filterTime
	r.refTime += b.refTime
	r.batches++
	if r.sink != nil && r.sinkErr == nil && len(r.results) > n {
		if err := r.sink(r.results[n:]); err != nil {
			r.sinkErr = err
			r.stop.Store(true)
		} else {
			r.streamed += int64(len(r.results) - n)
		}
	}
}

// runStages drives a candidate list through filter → refine → emit and
// returns the result pairs in candidate order, written over the
// candidates' array, and the stats record: the stages' costs added to
// what the caller spent before them, and the counters of every tester the
// run used — a caller's tester included, which keeps them too.
// Batches extend past the nominal size to the end of the current outer
// object's run (bounded at 4×, so a monster outer group cannot serialize
// the join) so one outer polygon's pairs — and its lazily built edge
// index — stay on one worker pass. A selection's candidates are all one
// outer group, so its batches are 4× the nominal size.
//
// The batches are the pool's tasks: each worker owns one tester and takes
// batch after batch through filter and refine (stage), so no worker idles
// while a batch waits, whichever stage is the slow one; the calling
// goroutine emits them in candidate order. A caller's tester is the pool's
// one worker. The pool runs at most 2× its workers ahead of emit, so a
// slow sink (a congested client) stalls the workers and in-flight memory
// stays proportional to workers × batch size, never to the result set.
//
// Failure semantics: a panicking stage function goes through retry; ctx
// is checked per pair and an interrupted batch is dropped whole, so a
// partial result is made of complete batches; no goroutine outlives the
// call. A sink error stops the run — no batch starts after it, finished
// ones still drain into the result — and is the *PartialError cause.
func runStages(ctx context.Context, candidates []Pair, p predicate, tester *core.Tester, opt JoinOptions, spent Stats) ([]Pair, Stats, error) {
	batch := opt.BatchSize
	if batch <= 0 {
		batch = core.DefaultBatchSize
	}
	r := &stageRun{ctx: ctx, p: p, candidates: candidates, sink: opt.Sink, results: candidates[:0]}
	r.cuts = r.room[:1]
	if most := (len(candidates)+batch-1)/batch + 1; most > len(r.room) {
		r.cuts = make([]int, 1, most)
	}
	for lo := 0; lo < len(candidates); lo = r.cuts[len(r.cuts)-1] {
		hi := min(lo+batch, len(candidates))
		limit := min(lo+4*batch, len(candidates))
		for hi < limit && candidates[hi].A == candidates[hi-1].A {
			hi++
		}
		r.cuts = append(r.cuts, hi)
	}
	// A caller's tester counts this run from zero, and gets its earlier
	// counts back after.
	var held core.Stats
	if tester != nil {
		held, tester.Stats = tester.Stats, core.Stats{}
	}
	parallel.Ordered(len(r.cuts)-1, opt.poolSize(tester), func() *stageWorker {
		if tester != nil {
			r.own = stageWorker{run: r, t: tester}
			return &r.own
		}
		w := &stageWorker{run: r}
		if opt.Tester != nil {
			w.t = opt.Tester()
		} else {
			w.t = core.NewTester(core.Config{DisableHardware: true})
		}
		r.mu.Lock()
		r.workers = append(r.workers, w)
		r.mu.Unlock()
		return w
	}, (*stageWorker).stage, r.emit)

	st := spent
	if tester != nil {
		st.Stats.Add(tester.Stats)
		tester.Stats.Add(held)
	}
	for _, w := range r.workers {
		st.Stats.Add(w.t.Stats)
	}
	st.FilterHits += r.preHits
	st.FilterRejects += r.preRejects
	st.Compared += r.compared
	st.IntermediateMS += ms(r.preTime)
	st.GeometryMS += ms(r.filterTime + r.refTime)
	st.PipelineBatches += r.batches
	st.PipelineFilterNS += int64(r.preTime + r.filterTime)
	st.PipelineRefineNS += int64(r.refTime)
	st.StreamRowsEmitted += r.streamed
	st.Results = len(r.results)
	// The interruption, if any, is typed: a sink failure always (its rows
	// never arrived), a dead context only when it cost the result a batch.
	switch {
	case r.sinkErr != nil:
		return r.results, st, &PartialError{Op: p.op, Done: r.done, Total: len(candidates), Err: r.sinkErr}
	case r.done < len(candidates) && ctx.Err() != nil:
		return r.results, st, &PartialError{Op: p.op, Done: r.done, Total: len(candidates), Err: ctxCause(ctx)}
	}
	return r.results, st, nil
}
