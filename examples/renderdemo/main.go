// Renderdemo: visualizes how the hardware segment-intersection filter
// works, rendering a near-miss polygon pair into small windows at several
// resolutions and dumping the two bit planes as ASCII art. Cells covered
// only by the first polygon (plane A) print '/', only by the second
// (plane B) '\', by both '#'.
// When no '#' appears, the hardware has *proven* the boundaries disjoint —
// that is the conservative rejection of Algorithm 3.1. It also shows the
// basic (non-anti-aliased) diamond-exit rule losing a segment entirely,
// the §2.2.2 pitfall that forces anti-aliased lines.
package main

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/raster"
)

func renderPair(p, q *geom.Polygon, res int) {
	ctx := raster.NewContext(res, res)
	region := p.Bounds().Intersection(q.Bounds())
	ctx.SetViewport(region)

	ctx.DrawPolygonEdges(&ctx.A, p)
	ctx.DrawPolygonEdges(&ctx.B, q)

	fmt.Printf("\n%dx%d window over the common MBR region:\n", res, res)
	fmt.Print(ctx.ASCII())
	overlap := ctx.A.Overlaps(&ctx.B)
	if overlap {
		fmt.Println("=> shared pixels: inconclusive, software test required")
	} else {
		fmt.Println("=> no shared pixel: boundaries PROVABLY disjoint, pair rejected")
	}
}

func main() {
	// Two interleaved combs: A's teeth point up, B's teeth reach down into
	// A's gaps with 0.75 units of clearance. Their MBRs overlap almost
	// completely; their boundaries never touch.
	a := geom.MustPolygon(
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 1),
		geom.Pt(8, 1), geom.Pt(8, 8), geom.Pt(7, 8), geom.Pt(7, 1),
		geom.Pt(5, 1), geom.Pt(5, 8), geom.Pt(4, 8), geom.Pt(4, 1),
		geom.Pt(2, 1), geom.Pt(2, 8), geom.Pt(1, 8), geom.Pt(1, 1),
		geom.Pt(0, 1),
	)
	b := geom.MustPolygon(
		geom.Pt(0, 10), geom.Pt(0, 9),
		geom.Pt(2.75, 9), geom.Pt(2.75, 2), geom.Pt(3.25, 2), geom.Pt(3.25, 9),
		geom.Pt(5.75, 9), geom.Pt(5.75, 2), geom.Pt(6.25, 2), geom.Pt(6.25, 9),
		geom.Pt(8.75, 9), geom.Pt(8.75, 2), geom.Pt(9.25, 2), geom.Pt(9.25, 9),
		geom.Pt(10, 9), geom.Pt(10, 10),
	)

	fmt.Println("Polygon A: comb with", a.NumVerts(), "vertices, teeth up")
	fmt.Println("Polygon B: comb with", b.NumVerts(), "vertices, teeth down into A's gaps")

	for _, res := range []int{4, 8, 16, 32} {
		renderPair(a, b, res)
	}

	// The §2.2.2 pitfall: a short diagonal segment that never exits any
	// pixel's diamond simply disappears under the basic rule.
	fmt.Println("\n--- diamond-exit rule demo (basic vs anti-aliased lines) ---")
	ctx := raster.NewContext(3, 3)
	s := geom.Seg(geom.Pt(1.35, 1.45), geom.Pt(1.65, 1.55))
	ctx.DrawSegmentBasic(&ctx.A, s)
	basic := ctx.A.Count()
	ctx.Clear()
	ctx.DrawSegment(&ctx.A, s)
	aa := ctx.A.Count()
	fmt.Printf("segment %v: basic rule colored %d pixels, anti-aliased colored %d\n", s, basic, aa)
	fmt.Println("(the basic rule loses the segment entirely — why Algorithm 3.1 enables anti-aliasing)")
}
