package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
)

func ExampleTester_Intersects() {
	// One tester per goroutine; it owns a small rendering window.
	tester := core.NewTester(core.Config{Resolution: 8, SWThreshold: 500})

	parcel := geom.MustPolygon(
		geom.Pt(0, 0), geom.Pt(8, 0), geom.Pt(8, 2),
		geom.Pt(2, 2), geom.Pt(2, 8), geom.Pt(0, 8),
	)
	inNotch := geom.MustPolygon(geom.Pt(4, 4), geom.Pt(7, 4), geom.Pt(7, 7), geom.Pt(4, 7))
	touching := geom.MustPolygon(geom.Pt(8, 0), geom.Pt(12, 0), geom.Pt(12, 4), geom.Pt(8, 4))

	fmt.Println(tester.Intersects(parcel, inNotch))
	fmt.Println(tester.Intersects(parcel, touching))
	// Output:
	// false
	// true
}

func ExampleTester_WithinDistance() {
	tester := core.NewTester(core.Config{Resolution: 8})
	a := geom.MustPolygon(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1))
	b := geom.MustPolygon(geom.Pt(3, 0), geom.Pt(4, 0), geom.Pt(4, 1), geom.Pt(3, 1))
	fmt.Println(tester.WithinDistance(a, b, 1.9))
	fmt.Println(tester.WithinDistance(a, b, 2.0))
	// Output:
	// false
	// true
}
