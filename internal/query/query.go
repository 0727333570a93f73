// Package query implements the paper's three-stage query processing
// pipeline (Figure 8): MBR filtering over an R-tree, intermediate
// filtering (the interior filter for selections, the hull filter and the
// 0-Object and 1-Object filters for joins), and geometry comparison with
// either the software tests or the hardware-assisted tests from
// internal/core. Each stage's wall-clock cost and candidate counts are
// recorded, which is what the evaluation figures plot.
//
// Joins and selections have one driver, the staged batch executor in
// pipeline.go: intersects, within-distance and the selection are three
// predicates over it — a selection is a join whose only outer object is
// its window. The tester-taking entry points run it inline on the
// caller's goroutine and the tester-less ones on a worker pool, and views
// with a live delta are composed over it per component pair.
//
// # Failure semantics
//
// Every query takes a context.Context and honors cancellation and
// deadlines (per pair in the executor's stages, every 1024 index visits
// in its candidate generation): an interrupted query returns the results
// computed so far plus a *PartialError that unwraps to the context's
// error, and leaks no goroutines. Queries with a candidate budget fail
// fast with a *BudgetError before any refinement work when MBR filtering
// overflows the budget. The executor isolates panicking refinement tests:
// a pair whose test panics is retried once on the exact software path
// and, failing that, quarantined (counted in core.Stats, excluded from the
// result set) — one poisoned geometry pair can no longer take down a
// query. See DESIGN.md §5.
package query

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/edgeindex"
	"repro/internal/filter"
	"repro/internal/geom"
	"repro/internal/interval"
	"repro/internal/raster"
	"repro/internal/rtree"
	"repro/internal/store"
)

// Layer is a dataset with its R-tree index, the unit that queries operate
// on. Build layers once and reuse them across queries.
type Layer struct {
	Data  *data.Dataset
	Index *rtree.Tree

	// Origin records where the layer came from: "memory" for built
	// layers, the snapshot path (or "snapshot") for loaded ones. Serving
	// catalogs surface it as provenance.
	Origin string

	hullOnce sync.Once
	hulls    *filter.HullSet

	// edgeIdx caches each object's immutable edge index, built lazily on
	// first use and shared read-only by every worker (see EdgeIndex).
	edgeIdx []atomic.Pointer[edgeindex.Index]

	// snap, for snapshot-backed layers, retains the open snapshot: its
	// persisted edge boxes seed EdgeIndex and its mapping must outlive
	// every polygon view the layer hands out.
	snap *store.Snapshot

	// sigs holds the per-object persisted raster signatures of a
	// snapshot-backed layer (nil otherwise); see Signature.
	sigs []raster.Signature

	// ivalCol is the persisted v2 interval column of a snapshot-backed
	// layer (nil otherwise); ivalCache holds lazily built columns keyed by
	// grid for layers (or grids) without a persisted one. Columns are
	// immutable once built; the per-entry once makes concurrent queries on
	// the same grid share one build. objStats caches the bounds/extent
	// summary grid derivation needs.
	ivalMu    sync.Mutex
	ivalCache map[interval.Grid]*ivalEntry
	ivalCol   *interval.Column
	statsOnce sync.Once
	objBounds geom.Rect
	objExtent float64

	// selfView caches the layer's single-component View (layers are
	// immutable, so one view serves every query).
	viewOnce sync.Once
	selfView *View
}

// NewLayer bulk-loads an R-tree over the dataset's object MBRs.
func NewLayer(d *data.Dataset) *Layer {
	entries := make([]rtree.Entry, len(d.Objects))
	for i, p := range d.Objects {
		entries[i] = rtree.Entry{Bounds: p.Bounds(), ID: i}
	}
	return &Layer{
		Data:    d,
		Index:   rtree.NewBulk(entries),
		Origin:  "memory",
		edgeIdx: make([]atomic.Pointer[edgeindex.Index], len(d.Objects)),
	}
}

// NewLayerFromSnapshot builds a query-ready layer over an opened store
// snapshot: the dataset's polygons are views into the (possibly
// memory-mapped) file, the R-tree is materialized from the persisted
// packed image instead of being re-bulk-loaded, edge indexes hydrate
// lazily from the persisted box hierarchies, and persisted raster
// signatures short-circuit refinement. The layer keeps the snapshot open
// for its lifetime; callers must not Close it while the layer is in use.
func NewLayerFromSnapshot(s *store.Snapshot) (*Layer, error) {
	tree, err := s.Tree()
	if err != nil {
		return nil, err
	}
	d := s.Dataset()
	l := &Layer{
		Data:    d,
		Index:   tree,
		Origin:  "snapshot:" + s.Meta().Name,
		edgeIdx: make([]atomic.Pointer[edgeindex.Index], len(d.Objects)),
		snap:    s,
	}
	if s.HasSignatures() {
		l.sigs = make([]raster.Signature, len(d.Objects))
		for i := range l.sigs {
			l.sigs[i] = s.Signature(i)
		}
	}
	l.ivalCol = s.Intervals()
	return l, nil
}

type ivalEntry struct {
	once sync.Once
	col  *interval.Column
}

// objectStats caches the layer's MBR union and characteristic extent,
// the inputs of canonical interval-grid derivation.
func (l *Layer) objectStats() (geom.Rect, float64) {
	l.statsOnce.Do(func() {
		l.objBounds, l.objExtent = interval.ObjectStats(l.Data.Objects)
	})
	return l.objBounds, l.objExtent
}

// Intervals returns the layer's interval column on grid g: the persisted
// column when its grid matches exactly, else a lazily built one cached
// per grid (layers are immutable, so a grid's column never changes).
// Snapshot-backed layers without a persisted interval section (a pre-v2
// or `save ... nointervals` snapshot) never build lazily — they are v1
// artifacts and return nil so joins fall back to the v1 signature path
// rather than rebuilding at query time what the writer omitted. A build
// labels its gaps through the objects' EdgeIndex, which it leaves cached
// for the refinement that follows. Safe for concurrent callers;
// concurrent first requests for one grid share a single build.
func (l *Layer) Intervals(g interval.Grid) *interval.Column {
	if !g.Valid() {
		return nil
	}
	if c := l.ivalCol; c != nil && c.Grid == g {
		return c
	}
	if l.snap != nil && l.ivalCol == nil {
		return nil
	}
	l.ivalMu.Lock()
	if l.ivalCache == nil {
		l.ivalCache = map[interval.Grid]*ivalEntry{}
	}
	e := l.ivalCache[g]
	if e == nil {
		e = &ivalEntry{}
		l.ivalCache[g] = e
	}
	l.ivalMu.Unlock()
	e.once.Do(func() {
		e.col = interval.BuildIndexed(len(l.Data.Objects), l.EdgeIndex, g)
	})
	return e.col
}

// pairGrid derives the shared interval grid for a join between a and b:
// the canonical square of the union of both layers' bounds, at the finer
// of the two layers' auto orders (or the forced order when order > 0).
// When both layers carry persisted columns on the identical grid — the
// common case for snapshots saved over the same data domain — that grid
// is used directly, so neither side rebuilds anything.
func pairGrid(a, b *Layer, order int) (interval.Grid, bool) {
	if order <= 0 && a.ivalCol != nil && b.ivalCol != nil && a.ivalCol.Grid == b.ivalCol.Grid {
		return a.ivalCol.Grid, true
	}
	ba, ea := a.objectStats()
	bb, eb := b.objectStats()
	mnx, mny, size, ok := interval.FitSquare(ba.Union(bb))
	if !ok {
		return interval.Grid{}, false
	}
	if order <= 0 {
		order = max(interval.ChooseOrder(size, ea), interval.ChooseOrder(size, eb))
	}
	if order < interval.MinOrder || order > interval.MaxOrder {
		return interval.Grid{}, false
	}
	return interval.Grid{MinX: mnx, MinY: mny, Size: size, Order: order}, true
}

// intervalColumns resolves both sides' interval columns for a join,
// honoring the NoIntervals ablation. Either both columns are non-nil and
// share one grid, or both are nil (the v1 path).
func intervalColumns(a, b *Layer, noIntervals bool, order int) (*interval.Column, *interval.Column) {
	if noIntervals {
		return nil, nil
	}
	g, ok := pairGrid(a, b, order)
	if !ok {
		return nil, nil
	}
	ca, cb := a.Intervals(g), b.Intervals(g)
	if ca == nil || cb == nil {
		return nil, nil
	}
	return ca, cb
}

// Snapshot returns the layer's backing snapshot and true when the layer
// was loaded from one (see NewLayerFromSnapshot).
func (l *Layer) Snapshot() (*store.Snapshot, bool) { return l.snap, l.snap != nil }

// Signature returns object id's persisted conservative raster signature,
// or nil when the layer carries none. The signature is immutable and
// shared; refinement consults it through the PairContext.
func (l *Layer) Signature(id int) *raster.Signature {
	if l.sigs == nil {
		return nil
	}
	return &l.sigs[id]
}

// Hulls returns the layer's pre-computed convex-hull approximations,
// building them on first use (the pre-processing cost of the geometric
// filter; safe for concurrent callers).
func (l *Layer) Hulls() *filter.HullSet {
	l.hullOnce.Do(func() {
		l.hulls = filter.NewHullSet(l.Data.Objects)
	})
	return l.hulls
}

// EdgeIndex returns object id's edge index, building it on first use. The
// index is immutable once published, so concurrent callers may race to
// build: every build of the same object is identical and losers' copies
// are dropped, which keeps the fast path a single atomic load with no
// lock. The cached indexes are what joins reuse across a whole inner
// loop instead of rescanning the object's edge chain per pair.
func (l *Layer) EdgeIndex(id int) *edgeindex.Index {
	if ix := l.edgeIdx[id].Load(); ix != nil {
		return ix
	}
	ix := l.buildEdgeIndex(id)
	if !l.edgeIdx[id].CompareAndSwap(nil, ix) {
		return l.edgeIdx[id].Load()
	}
	return ix
}

// buildEdgeIndex hydrates one object's edge index: snapshot-backed layers
// reattach the persisted box hierarchy (no box recomputation — the boxes
// are CRC-verified views into the file), others run the O(n) build.
func (l *Layer) buildEdgeIndex(id int) *edgeindex.Index {
	p := l.Data.Objects[id]
	if l.snap != nil && l.snap.HasEdgeBoxes() {
		if ix, ok := edgeindex.FromFlatBoxes(p, l.snap.EdgeBoxes(id)); ok {
			return ix
		}
	}
	return edgeindex.New(p)
}

// Breaker returns nil. Only the benchmark harness (bench/loadbench),
// frozen between benchmark changes, calls it, to fill
// core.PairContext.Breaker, which nothing reads.
func (l *Layer) Breaker(other *Layer) *core.Breaker { return nil }

// selection is the generation kind of a selection: an intersects probe.
var selection = joinKind{op: "select"}

// bindSelection binds a selection of layer l's objects by window: the
// paper's selection pipeline, MBR → interior prefilter → containment →
// exact refinement. The prefilter is the interior filter, its tiles built
// on the first candidate whose MBR lies inside the window's — the only
// candidates CoversRect can accept. The window carries no raster
// approximation: rasterizing and signing it per request cost more than
// the few candidates it is compared with ever saved (DESIGN.md §5), so
// its PairContext holds its edge index, built once on the first pair the
// tester sees (never when the prefilter decides every candidate), and
// each candidate adds its own edge index.
func bindSelection(l *Layer, window *geom.Polygon, opt JoinOptions) predicate {
	p := predicate{op: selection.op}
	if opt.InteriorLevel >= 0 {
		wb := window.Bounds()
		var tiles struct {
			once sync.Once
			f    *filter.Interior
		}
		p.pre = func(pr Pair) core.Verdict {
			if b := l.Data.Objects[pr.B].Bounds(); wb.ContainsRect(b) {
				tiles.once.Do(func() { tiles.f = filter.NewInterior(window, opt.InteriorLevel) })
				if tiles.f.CoversRect(b) {
					return core.VerdictHit
				}
			}
			return core.VerdictUndecided
		}
	}
	var win struct { // the window's side of every pair
		once sync.Once
		pc   core.PairContext
	}
	pcFor := func(pr Pair) core.PairContext {
		win.once.Do(func() { win.pc = core.PairContext{PIndex: edgeindex.New(window)} })
		pc := win.pc
		pc.QIndex = l.EdgeIndex(pr.B)
		return pc
	}
	p.filter = func(t *core.Tester, pr Pair) core.Verdict {
		return t.FilterIntersects(window, l.Data.Objects[pr.B], pcFor(pr))
	}
	p.refine = func(t *core.Tester, pr Pair) bool {
		return t.RefineIntersects(window, l.Data.Objects[pr.B], pcFor(pr))
	}
	return p
}

// Pair is one join result: indices into the two layers' object slices.
type Pair struct {
	A, B int
}

// sortPairsByOuter orders pairs by (A, B), the candidate and result order:
// generation applies it to one outer object's mates at a time, joinViews
// to a multi-component join's union. A and B are object-slice indices,
// far below 2³², so (A, B) order is the order of the packed key A<<32|B
// and one comparison decides.
func sortPairsByOuter(pairs []Pair) {
	slices.SortFunc(pairs, func(x, y Pair) int {
		return cmp.Compare(uint64(x.A)<<32|uint64(x.B), uint64(y.A)<<32|uint64(y.B))
	})
}

// pairContexts returns a per-pair PairContext source for a join between
// layers a and b, honoring the NoSignatures ablation. Persisted
// signatures attach only on the sides that carry
// them; the tester's bounds check makes a one-sided or absent signature
// merely inconclusive. iva and ivb, when both non-nil (see
// intervalColumns), attach the objects' v2 interval spans — always from
// one shared grid, which is what makes them comparable — and that grid,
// which narrows the exact software test to the cells partial in both; the
// v1 signatures stay attached too and still decide pairs the interval
// check leaves inconclusive.
func pairContexts(a, b *Layer, opt JoinOptions, iva, ivb *interval.Column) func(Pair) core.PairContext {
	sigA, sigB := a.sigs != nil && !opt.NoSignatures, b.sigs != nil && !opt.NoSignatures
	ivals := iva != nil && ivb != nil
	return func(pr Pair) core.PairContext {
		pc := core.PairContext{PIndex: a.EdgeIndex(pr.A), QIndex: b.EdgeIndex(pr.B)}
		if sigA {
			pc.PSig = a.Signature(pr.A)
		}
		if sigB {
			pc.QSig = b.Signature(pr.B)
		}
		if ivals {
			pc.PIv, pc.QIv, pc.Grid = iva.Spans(pr.A), ivb.Spans(pr.B), iva.Grid
		}
		return pc
	}
}
