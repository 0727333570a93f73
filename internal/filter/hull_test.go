package filter

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/sweep"
)

func TestHullSetBasics(t *testing.T) {
	objs := []*geom.Polygon{
		square(0, 0, 2),
		square(5, 5, 2),
		geom.MustPolygon(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)), // degenerate: no hull
	}
	hs := NewHullSet(objs)
	if hs.Len() != 3 {
		t.Fatalf("Len = %d", hs.Len())
	}
	if hs.Hull(0) == nil || hs.Hull(1) == nil {
		t.Fatal("square hulls missing")
	}
	if hs.Hull(2) != nil {
		t.Fatal("degenerate polygon produced a hull")
	}
	// Degenerate objects never filter.
	if !PairMayIntersect(hs, 2, hs, 0) {
		t.Error("missing hull filtered a pair")
	}
}

// TestHullFilterSound: whenever the filter claims disjointness, the exact
// test agrees.
func TestHullFilterSound(t *testing.T) {
	rng := rand.New(rand.NewSource(191))
	var objs []*geom.Polygon
	for range 40 {
		objs = append(objs, star(rng, rng.Float64()*20, rng.Float64()*20, 0.5+rng.Float64()*3, 4+rng.Intn(20)))
	}
	hs := NewHullSet(objs)
	checked, rejected := 0, 0
	for i := range objs {
		for j := i + 1; j < len(objs); j++ {
			checked++
			if !PairMayIntersect(hs, i, hs, j) {
				rejected++
				if sweep.PolygonsIntersect(objs[i], objs[j], sweep.Options{}) {
					t.Fatalf("hull filter rejected an intersecting pair (%d,%d)", i, j)
				}
			}
		}
	}
	if rejected == 0 {
		t.Error("hull filter rejected nothing on a sparse workload")
	}
}

// TestHullFilterTighterThanMBR: the hull filter must reject at least the
// pairs it can prove disjoint that MBRs cannot (rotated thin shapes).
func TestHullFilterTighterThanMBR(t *testing.T) {
	// Two diagonal slivers whose MBRs overlap but hulls do not.
	a := geom.MustPolygon(geom.Pt(0, 0), geom.Pt(4, 4), geom.Pt(4.2, 4), geom.Pt(0.2, 0))
	b := geom.MustPolygon(geom.Pt(4, 0), geom.Pt(0.4, 3.6), geom.Pt(0.2, 3.4), geom.Pt(3.8, 0).Add(geom.Pt(-0.2, -0.2)))
	// Ensure MBRs overlap.
	if !a.Bounds().Intersects(b.Bounds()) {
		t.Skip("construction no longer overlaps MBRs")
	}
	hs := NewHullSet([]*geom.Polygon{a, b})
	got := PairMayIntersect(hs, 0, hs, 1)
	want := sweep.PolygonsIntersect(a, b, sweep.Options{})
	if !want && got {
		t.Log("hull filter could not separate this pair (allowed, just weaker)")
	}
	if want && !got {
		t.Fatal("hull filter rejected an intersecting pair")
	}
}
