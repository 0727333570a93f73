package query

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
)

// Source is anything the serving layers can query: a plain immutable
// Layer or a live table absorbing mutations. View returns a point-in-time
// read view; for a Layer it is the layer itself as a single component,
// for a live table it composes snapshot ∪ delta − tombstones. Views are
// immutable — a mutation produces a fresh one — so a query holds a
// consistent world for its whole run.
type Source interface {
	View() *View
}

// View is an immutable point-in-time read view over one or two layer
// components: a base layer (usually mmap-snapshot-backed) and an optional
// in-memory delta of live inserts, minus tombstones. Object positions are
// canonical: base survivors in base order, then alive delta objects in
// insertion order — the same order a from-scratch build of the current
// state would use, which is what makes recovery differential-testable.
type View struct {
	base  *Layer
	delta *Layer // nil when no live inserts are visible

	// baseCanon maps base object index → canonical position, -1 for
	// tombstoned objects. Nil means identity (no tombstones).
	baseCanon []int32
	// deltaCanon maps delta-layer object index → canonical position.
	deltaCanon []int32

	numObjects int
	origin     string
}

// viewComponent is one queryable layer of a view plus its canonical
// position mapping (-1 = hidden by a tombstone; nil = identity).
type viewComponent struct {
	layer *Layer
	canon []int32
}

// pos is object i's canonical position, -1 when a tombstone hides it.
func (c viewComponent) pos(i int) int32 {
	if c.canon == nil {
		return int32(i)
	}
	return c.canon[i]
}

// View returns the layer itself as a single-component view (Source).
func (l *Layer) View() *View {
	l.viewOnce.Do(func() {
		l.selfView = &View{base: l, numObjects: len(l.Data.Objects), origin: l.Origin}
	})
	return l.selfView
}

// NumObjects returns the canonical object count (survivors plus live
// inserts).
func (v *View) NumObjects() int { return v.numObjects }

// Origin describes where the view's data came from, for provenance
// surfaces (layer listings, access logs).
func (v *View) Origin() string { return v.origin }

// Single returns the view's only layer when it is an undecorated single
// component (no delta, no tombstones) — the fast path every pre-ingestion
// query takes, and the required shape for kNN and overlay joins.
func (v *View) Single() (*Layer, bool) {
	if v.delta == nil && v.baseCanon == nil {
		return v.base, true
	}
	return nil, false
}

// Counts breaks the view down: base objects (before tombstones), alive
// delta objects, and tombstoned base objects.
func (v *View) Counts() (base, delta, tombs int) {
	base = len(v.base.Data.Objects)
	if v.delta != nil {
		delta = len(v.delta.Data.Objects)
	}
	tombs = base + delta - v.numObjects
	return base, delta, tombs
}

// Dataset materializes the view's objects in canonical order. Single
// views return their layer's dataset as-is (zero-copy); composed views
// allocate the object slice (the polygons themselves are shared).
func (v *View) Dataset() *data.Dataset {
	if l, ok := v.Single(); ok {
		return l.Data
	}
	objs := make([]*geom.Polygon, 0, v.numObjects)
	for i, p := range v.base.Data.Objects {
		if v.baseCanon == nil || v.baseCanon[i] >= 0 {
			objs = append(objs, p)
		}
	}
	if v.delta != nil {
		objs = append(objs, v.delta.Data.Objects...)
	}
	return &data.Dataset{Name: v.base.Data.Name, Objects: objs}
}

// components lists the view's queryable layers with their canonical
// mappings.
func (v *View) components() []viewComponent {
	comps := []viewComponent{{layer: v.base, canon: v.baseCanon}}
	if v.delta != nil {
		comps = append(comps, viewComponent{layer: v.delta, canon: v.deltaCanon})
	}
	return comps
}

// LiveUnsupportedError reports a query that requires a single-component
// view (kNN's ordered index walk, the overlay join's per-pair overlay of
// two layers' objects) being aimed at a view with live mutations. Compact
// the table to fold the delta down, then retry.
type LiveUnsupportedError struct {
	Op string
}

func (e *LiveUnsupportedError) Error() string {
	return fmt.Sprintf("query: %s does not support a live delta view; compact the layer first", e.Op)
}

// IntersectionSelectView returns the view's objects whose regions
// intersect the query polygon, as canonical positions in ascending order:
// the executor's three-stage pipeline with the query polygon as the only
// outer object, run once per component through the same composition loop
// as a join (composeViews), inline on the caller's tester, which decides
// software vs hardware-assisted refinement and accumulates the counters.
// opt.Sink receives (0, id) pairs, per component. A cancelled or expired
// context yields the merged results so far plus a *PartialError; an
// overflowing candidate budget (per component) a *BudgetError and no
// results.
func IntersectionSelectView(ctx context.Context, v *View, query *geom.Polygon, tester *core.Tester, opt JoinOptions) ([]int, Stats, error) {
	window := []*geom.Polygon{query}
	pairs, st, err := composeViews([]viewComponent{{}}, v.components(), opt,
		func(_, l *Layer, o JoinOptions) ([]Pair, Stats, error) {
			return execute(ctx, window, l, selection, tester, o, func() predicate { return bindSelection(l, query, o) })
		})
	return innerIDs(make([]int, 0, len(pairs)), pairs), st, err
}

// innerIDs appends the pairs' inner ids to dst: a selection's result.
func innerIDs(dst []int, pairs []Pair) []int {
	for _, pr := range pairs {
		dst = append(dst, pr.B)
	}
	return dst
}
