package faultinject

import (
	"sync"
	"testing"
	"time"
)

func TestDeterministicBySeed(t *testing.T) {
	pattern := func(seed int64) []bool {
		in := New(seed).Inject(SiteIntersects, KindPanic, 0.3)
		out := make([]bool, 200)
		for i := range out {
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(Panic); !ok {
							panic(r)
						}
						out[i] = true
					}
				}()
				in.Apply(SiteIntersects)
			}()
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical 200-call patterns")
	}
}

func TestRateZeroAndOne(t *testing.T) {
	in := New(1).
		Inject(SiteIntersects, KindPanic, 0).
		Inject(SiteWithinDistance, KindPanic, 1)
	for range 50 {
		in.Apply(SiteIntersects) // must never panic
	}
	panicked := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				_, panicked = r.(Panic)
			}
		}()
		in.Apply(SiteWithinDistance)
	}()
	if !panicked {
		t.Error("rate-1 panic rule did not fire")
	}
	if got := in.Fired(SiteWithinDistance, KindPanic); got != 1 {
		t.Errorf("Fired = %d, want 1", got)
	}
	if got := in.Fired(SiteIntersects, KindPanic); got != 0 {
		t.Errorf("rate-0 site fired %d times", got)
	}
}

func TestApproximateRate(t *testing.T) {
	in := New(7).Inject(SiteHWFilter, KindWrongAnswer, 0.25)
	fired := 0
	const n = 4000
	for range n {
		if in.Wrong(SiteHWFilter) {
			fired++
		}
	}
	frac := float64(fired) / n
	if frac < 0.20 || frac > 0.30 {
		t.Errorf("wrong-answer rate %.3f, want ≈0.25", frac)
	}
	if got := in.Fired(SiteHWFilter, KindWrongAnswer); got != int64(fired) {
		t.Errorf("Fired = %d, want %d", got, fired)
	}
}

func TestDelayFires(t *testing.T) {
	in := New(9).Inject(SiteRenderDraw, KindDelay, 1).SetDelay(5 * time.Millisecond)
	start := time.Now()
	in.Apply(SiteRenderDraw)
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("delay fault slept %v, want ≥ 5ms", elapsed)
	}
}

func TestConcurrentUseCountsEveryCall(t *testing.T) {
	in := New(3).Inject(SiteIntersects, KindDelay, 1).SetDelay(0)
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range per {
				in.Apply(SiteIntersects)
			}
		}()
	}
	wg.Wait()
	if got := in.Fired(SiteIntersects, KindDelay); got != workers*per {
		t.Errorf("fired %d delays, want %d", got, workers*per)
	}
}
