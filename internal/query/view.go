package query

import (
	"context"
	"fmt"
	"sort"

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
// position mapping (-1 = hidden by a tombstone).
type viewComponent struct {
	layer *Layer
	canon func(int) int32
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
	canonBase := func(i int) int32 { return int32(i) }
	if v.baseCanon != nil {
		canonBase = func(i int) int32 { return v.baseCanon[i] }
	}
	comps := []viewComponent{{layer: v.base, canon: canonBase}}
	if v.delta != nil {
		comps = append(comps, viewComponent{layer: v.delta, canon: func(i int) int32 { return v.deltaCanon[i] }})
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

// IntersectionSelectView runs IntersectionSelect over every component of
// the view and merges the results into canonical positions (sorted
// ascending). Single-component views take the exact legacy path. A
// *PartialError carries the merged results so far; a *BudgetError (per
// component) aborts with no results, as on a plain layer.
func IntersectionSelectView(ctx context.Context, v *View, query *geom.Polygon, tester *core.Tester, opt SelectionOptions) ([]int, Cost, error) {
	if l, ok := v.Single(); ok {
		return IntersectionSelect(ctx, l, query, tester, opt)
	}
	var out []int
	var cost Cost
	for _, c := range v.components() {
		o := opt
		if opt.Sink != nil {
			// Stream per-component rows through a canonical-remapping sink
			// (tombstoned objects dropped); the returned union is still
			// sorted, the stream is per-component ordered.
			canon := c.canon
			var remapped []int
			o.Sink = func(ids []int) error {
				remapped = remapped[:0]
				for _, id := range ids {
					if p := canon(id); p >= 0 {
						remapped = append(remapped, int(p))
					}
				}
				if len(remapped) == 0 {
					return nil
				}
				return opt.Sink(remapped)
			}
		}
		ids, cc, err := IntersectionSelect(ctx, c.layer, query, tester, o)
		cost.Add(cc)
		for _, id := range ids {
			if p := c.canon(id); p >= 0 {
				out = append(out, int(p))
			}
		}
		if err != nil {
			if _, ok := err.(*BudgetError); ok {
				return nil, cost, err
			}
			sort.Ints(out)
			cost.Results = len(out)
			return out, cost, err
		}
	}
	sort.Ints(out)
	cost.Results = len(out)
	return out, cost, nil
}
