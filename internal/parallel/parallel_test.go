package parallel

import (
	"runtime"
	"slices"
	"testing"
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
