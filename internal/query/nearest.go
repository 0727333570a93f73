package query

import (
	"context"
	"math"

	"repro/internal/dist"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// Neighbor is one k-nearest-neighbors result: the layer object's index and
// its exact region distance to the query polygon.
type Neighbor struct {
	ID       int
	Distance float64
}

// KNearest returns the k objects of the layer nearest to the query polygon
// by exact region distance (zero for intersecting objects), in
// non-decreasing distance order. This implements the nearest-neighbor
// queries the paper lists as future work (§5), on the software path: the
// R-tree's best-first traversal supplies MBR-distance lower bounds and
// Chan's minDist refines survivors, so only objects that could still make
// the top k are ever refined.
//
// A cancelled or expired context stops the traversal and returns the
// neighbors confirmed so far (still in order) plus a *PartialError.
func KNearest(ctx context.Context, layer *Layer, q *geom.Polygon, k int) ([]Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	// k arrives off the wire: size the result by the layer, not by k.
	out := make([]Neighbor, 0, min(k, len(layer.Data.Objects)))
	cancelled := false
	layer.Index.NearestBy(q.Bounds(),
		func(e rtree.Entry) float64 {
			// The exact-distance callback is the expensive step, so the
			// context is checked before every refinement. Once cancelled,
			// +Inf pushes the entry past every finite bound and the visit
			// callback terminates the traversal without another refinement.
			if cancelled || ctx.Err() != nil {
				cancelled = true
				return math.Inf(1)
			}
			return dist.MinDist(q, layer.Data.Objects[e.ID])
		},
		func(e rtree.Entry, d float64) bool {
			if cancelled || math.IsInf(d, 1) {
				return false
			}
			out = append(out, Neighbor{ID: e.ID, Distance: d})
			return len(out) < k
		})
	if cancelled {
		return out, &PartialError{Op: "knn", Done: len(out), Total: k, Err: ctxCause(ctx)}
	}
	return out, nil
}
