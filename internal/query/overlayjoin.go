package query

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/overlay"
)

// OverlayPair is one map-overlay result: an intersecting pair and the
// exact area of its intersection region.
type OverlayPair struct {
	A, B int
	Area float64
}

// OverlayAreaJoin runs the map-overlay operation the paper's introduction
// motivates: it finds every intersecting pair (via the intersection-join
// pipeline, hardware-assisted when the tester has hardware) and computes
// each pair's exact intersection area with the slab-decomposition overlay.
// The overlay computation is charged to the geometry-comparison stage —
// it is precisely the kind of intermediate result that did not exist
// before the query ran, which is why pre-computed approximations cannot
// help and runtime filtering can.
//
// Cancellation is honored both inside the join and between overlay
// computations: an interrupted call returns the overlays finished so far
// plus a *PartialError.
func OverlayAreaJoin(ctx context.Context, a, b *Layer, tester *core.Tester) ([]OverlayPair, Cost, error) {
	pairs, cost, err := IntersectionJoinView(ctx, a.View(), b.View(), tester, JoinOptions{})
	if err != nil {
		return nil, cost, err
	}
	start := time.Now()
	out := make([]OverlayPair, 0, len(pairs))
	for i, pr := range pairs {
		// Each overlay is a full slab decomposition — expensive enough to
		// justify a context check per pair rather than per stride.
		if ctx.Err() != nil {
			cost.GeometryComparison += time.Since(start)
			return out, cost, &PartialError{Op: "overlay-join", Done: i, Total: len(pairs), Err: ctxCause(ctx)}
		}
		area := overlay.IntersectionArea(a.Data.Objects[pr.A], b.Data.Objects[pr.B])
		out = append(out, OverlayPair{A: pr.A, B: pr.B, Area: area})
	}
	cost.GeometryComparison += time.Since(start)
	return out, cost, nil
}
