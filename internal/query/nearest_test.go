package query

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/geom"
)

func TestKNearestMatchesBrute(t *testing.T) {
	q := geom.MustPolygon(
		geom.Pt(100, 100), geom.Pt(140, 100), geom.Pt(140, 140), geom.Pt(100, 140),
	)
	// Brute oracle: exact region distance to every object.
	type de struct {
		id int
		d  float64
	}
	all := make([]de, len(layerA.Data.Objects))
	for i, p := range layerA.Data.Objects {
		all[i] = de{i, dist.MinDistBrute(q, p)}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })

	for _, k := range []int{1, 3, 10} {
		got, err := KNearest(bg, layerA, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("k=%d: %d results", k, len(got))
		}
		for i, nb := range got {
			if math.Abs(nb.Distance-all[i].d) > 1e-9 {
				t.Fatalf("k=%d result %d: distance %v, brute %v (id %d vs %d)",
					k, i, nb.Distance, all[i].d, nb.ID, all[i].id)
			}
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Distance < got[j].Distance }) {
			t.Fatal("results not sorted by distance")
		}
	}
	if got, err := KNearest(bg, layerA, q, 0); got != nil || err != nil {
		t.Errorf("k=0 returned %v, %v", got, err)
	}
}

func TestKNearestIntersectingIsZero(t *testing.T) {
	// A query containing an object must report distance 0 for it.
	obj := layerA.Data.Objects[0]
	b := obj.Bounds().Expand(1)
	q := geom.MustPolygon(
		geom.Pt(b.MinX, b.MinY), geom.Pt(b.MaxX, b.MinY),
		geom.Pt(b.MaxX, b.MaxY), geom.Pt(b.MinX, b.MaxY),
	)
	got, err := KNearest(bg, layerA, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Distance != 0 {
		t.Fatalf("nearest to containing query = %+v, want distance 0", got)
	}
}
