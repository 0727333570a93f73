package overlay_test

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/overlay"
)

func ExampleIntersectionArea() {
	a := geom.MustPolygon(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4))
	b := geom.MustPolygon(geom.Pt(2, 2), geom.Pt(6, 2), geom.Pt(6, 6), geom.Pt(2, 6))
	fmt.Println(overlay.IntersectionArea(a, b))
	// Output: 4
}
