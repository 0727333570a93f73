package query

import (
	"testing"

	"repro/internal/core"
)

func TestHullFilterPreservesResults(t *testing.T) {
	sw := core.NewTester(core.Config{DisableHardware: true})
	want, plainCost, err := IntersectionJoinView(bg, layerA.View(), layerB.View(), sw, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, hullCost, err := IntersectionJoinView(bg, layerA.View(), layerB.View(), sw, JoinOptions{UseHullFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	g, w := sortedPairs(got), sortedPairs(want)
	if len(g) != len(w) {
		t.Fatalf("hull filter changed results: %d vs %d", len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("pair %d = %v, want %v", i, g[i], w[i])
		}
	}
	if hullCost.FilterRejects == 0 {
		t.Error("hull filter rejected nothing")
	}
	if hullCost.Compared+hullCost.FilterRejects != plainCost.Compared {
		t.Errorf("stage accounting: %d compared + %d rejected != %d candidates",
			hullCost.Compared, hullCost.FilterRejects, plainCost.Compared)
	}
}

func TestHullsCachedAndConcurrent(t *testing.T) {
	l := layerA
	done := make(chan *int, 8)
	for range 8 {
		go func() {
			hs := l.Hulls()
			n := hs.Len()
			done <- &n
		}()
	}
	for range 8 {
		n := <-done
		if *n != len(l.Data.Objects) {
			t.Fatalf("hull set size %d", *n)
		}
	}
	if l.Hulls() != l.Hulls() {
		t.Error("hulls not cached")
	}
}
