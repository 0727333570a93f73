package parallel

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// TestChunksCoverInOrder checks that the chunks tile 0..n in order at
// every worker count, each worker's state shared only by its own chunks.
func TestChunksCoverInOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 7, 100, 1000} {
			type worker struct{ busy bool }
			got := Chunks(n, func() *worker { return new(worker) }, func(w *worker, lo, hi int) []int {
				if w.busy {
					t.Error("a worker ran two chunks at once")
				}
				w.busy = true
				defer func() { w.busy = false }()
				var ids []int
				for i := lo; i < hi; i++ {
					ids = append(ids, i)
				}
				return ids
			})
			var all []int
			for _, ids := range got {
				if len(ids) == 0 {
					t.Fatalf("GOMAXPROCS %d, n %d: an empty chunk", procs, n)
				}
				all = append(all, ids...)
			}
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			if !slices.Equal(all, want) {
				t.Fatalf("GOMAXPROCS %d, n %d: chunks cover %v", procs, n, all)
			}
		}
	}
}

// TestChunksRaisePanicOnCaller checks that a panic in a worker reaches the
// caller's goroutine, where it can be recovered.
func TestChunksRaisePanicOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("GOMAXPROCS %d: recovered %v, want boom", procs, r)
				}
			}()
			Chunks(100, func() int { return 0 }, func(_ int, lo, hi int) int {
				if lo <= 50 && 50 < hi {
					panic("boom")
				}
				return 0
			})
			t.Fatalf("GOMAXPROCS %d: no panic", procs)
		}()
	}
}

// waitGoroutines polls until the goroutine count is back at the baseline
// (the runtime needs a moment to reap exiting goroutines).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOrderedDeliversInTaskOrder checks that results arrive in task order
// on the caller's goroutine when task costs are skewed, each worker's
// state used by one task at a time.
func TestOrderedDeliversInTaskOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 2, 7, 100} {
			type worker struct{ busy bool }
			var got []int
			Ordered(n, workers, func() *worker { return new(worker) }, func(w *worker, i int) int {
				if w.busy {
					t.Error("a worker ran two tasks at once")
				}
				w.busy = true
				defer func() { w.busy = false }()
				if i%7 == 0 {
					time.Sleep(time.Millisecond) // a slow task among fast ones
				}
				return i * i
			}, func(i, r int) {
				if r != i*i {
					t.Errorf("workers %d: task %d delivered %d", workers, i, r)
				}
				got = append(got, i)
			})
			for i, id := range got {
				if id != i {
					t.Fatalf("workers %d, n %d: delivered %v", workers, n, got)
				}
			}
			if len(got) != n {
				t.Fatalf("workers %d, n %d: delivered %d tasks", workers, n, len(got))
			}
		}
	}
}

// TestOrderedBoundsTasksAhead checks the backpressure: while a slow
// deliver holds the caller, no task more than 2×workers past the next
// delivery starts.
func TestOrderedBoundsTasksAhead(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var started atomic.Int64 // highest task started, plus one
		Ordered(60, workers, func() struct{} { return struct{}{} }, func(_ struct{}, i int) int {
			for {
				s := started.Load()
				if int64(i) < s || started.CompareAndSwap(s, int64(i)+1) {
					return i
				}
			}
		}, func(i, _ int) {
			if s := started.Load(); s > int64(i+2*workers) {
				t.Errorf("workers %d: task %d started while task %d waited for delivery", workers, s-1, i)
			}
			time.Sleep(200 * time.Microsecond)
		})
	}
}

// TestOrderedPoolOfOneStartsNoGoroutine checks that one worker, or one
// task, runs on the caller's goroutine alone.
func TestOrderedPoolOfOneStartsNoGoroutine(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{10, 1}, {1, 8}} {
		before := runtime.NumGoroutine()
		Ordered(c.n, c.workers, func() struct{} { return struct{}{} }, func(_ struct{}, i int) int {
			if n := runtime.NumGoroutine(); n != before {
				t.Errorf("%d tasks on %d workers: %d goroutines running, %d before", c.n, c.workers, n, before)
			}
			return i
		}, func(int, int) {})
	}
}

// TestOrderedRaisesPanicOnCaller checks that a panic in a task reaches
// the caller's goroutine, where it can be recovered, with no later task
// delivered and no worker left running. Task 0 is slow, so whichever
// worker draws it — the caller first, most often — leaves the panicking
// task to another.
func TestOrderedRaisesPanicOnCaller(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		baseline := runtime.NumGoroutine()
		var got []int
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers %d: recovered %v, want boom", workers, r)
				}
			}()
			Ordered(100, workers, func() struct{} { return struct{}{} }, func(_ struct{}, i int) int {
				switch i {
				case 0:
					time.Sleep(20 * time.Millisecond)
				case 5:
					panic("boom")
				}
				return i
			}, func(i, _ int) { got = append(got, i) })
			t.Fatalf("workers %d: no panic", workers)
		}()
		if len(got) > 5 || !slices.Equal(got, []int{0, 1, 2, 3, 4}[:len(got)]) {
			t.Errorf("workers %d: delivered %v around a panic in task 5", workers, got)
		}
		waitGoroutines(t, baseline)
	}
}
