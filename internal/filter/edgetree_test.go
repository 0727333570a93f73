package filter

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/sweep"
)

func TestEdgeTreeIntersectsMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := range 400 {
		p := star(rng, rng.Float64()*10, rng.Float64()*10, 0.5+rng.Float64()*4, 3+rng.Intn(30))
		q := star(rng, rng.Float64()*10, rng.Float64()*10, 0.5+rng.Float64()*4, 3+rng.Intn(30))
		tp, tq := NewEdgeTree(p), NewEdgeTree(q)
		want := sweep.PolygonsIntersect(p, q, sweep.Options{})
		if got := tp.Intersects(tq); got != want {
			t.Fatalf("trial %d: EdgeTree = %v, sweep = %v", trial, got, want)
		}
		// Symmetry.
		if got := tq.Intersects(tp); got != want {
			t.Fatalf("trial %d: EdgeTree (swapped) = %v, sweep = %v", trial, got, want)
		}
	}
}

func TestEdgeTreeContainment(t *testing.T) {
	outer := square(0, 0, 10)
	inner := square(4, 4, 1)
	far := square(20, 20, 1)
	to, ti, tf := NewEdgeTree(outer), NewEdgeTree(inner), NewEdgeTree(far)
	if !to.Intersects(ti) || !ti.Intersects(to) {
		t.Error("containment missed")
	}
	if to.Intersects(tf) {
		t.Error("disjoint pair reported")
	}
	if to.poly != outer {
		t.Error("tree indexes the wrong polygon")
	}
}

func TestEdgeTreeSet(t *testing.T) {
	set := NewEdgeTreeSet([]*geom.Polygon{square(0, 0, 1), square(2, 2, 1)})
	if set.Len() != 2 {
		t.Fatalf("Len = %d", set.Len())
	}
	if set.Tree(0).Intersects(set.Tree(1)) {
		t.Error("disjoint squares reported intersecting")
	}
}
