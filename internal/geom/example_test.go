package geom_test

import (
	"fmt"

	"repro/internal/geom"
)

func ExamplePolygon_ContainsPoint() {
	l := geom.MustPolygon(
		geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(3, 1),
		geom.Pt(1, 1), geom.Pt(1, 3), geom.Pt(0, 3),
	)
	fmt.Println(l.ContainsPoint(geom.Pt(0.5, 0.5)))
	fmt.Println(l.ContainsPoint(geom.Pt(2, 2)))
	// Output:
	// true
	// false
}

func ExampleConvexHull() {
	hull := geom.ConvexHull([]geom.Point{
		{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4},
		{X: 2, Y: 2}, {X: 1, Y: 1}, // interior points vanish
	})
	fmt.Println(hull.NumVerts(), hull.Area())
	// Output: 4 16
}

func ExampleParsePolygonWKT() {
	p, err := geom.ParsePolygonWKT("POLYGON ((0 0, 4 0, 4 3, 0 3, 0 0))")
	if err != nil {
		panic(err)
	}
	fmt.Println(p.NumVerts(), p.Area())
	fmt.Println(p.WKT())
	// Output:
	// 4 12
	// POLYGON ((0 0, 4 0, 4 3, 0 3, 0 0))
}
