// Package parallel runs a loop over a layer's objects on every core and
// hands back its results in object order, so what the loop builds is the
// same bytes whatever the core count.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// chunksPerWorker is how many contiguous chunks each worker gets on
// average. Object costs vary by orders of magnitude within a layer, so a
// worker that draws an expensive chunk leaves the rest to the others.
const chunksPerWorker = 8

// Chunks splits 0..n into contiguous chunks and returns do's result for
// each, in chunk order. The chunks run on up to runtime.GOMAXPROCS(0)
// goroutines, each with its own worker state from newWorker, which do may
// keep scratch in: a worker runs its chunks one after another. With one
// worker, or one object, everything runs on the caller's goroutine. A
// panic in do is raised again on the caller's goroutine once every worker
// has stopped.
func Chunks[W, R any](n int, newWorker func() W, do func(w W, lo, hi int) R) []R {
	if n <= 0 {
		return nil
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers == 1 {
		return []R{do(newWorker(), 0, n)}
	}
	chunks := min(n, workers*chunksPerWorker)
	out := make([]R, chunks)
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
					next.Store(int64(chunks)) // the others stop after their current chunk
				}
			}()
			w := newWorker()
			for {
				c := int(next.Add(1) - 1)
				if c >= chunks {
					return
				}
				out[c] = do(w, c*n/chunks, (c+1)*n/chunks)
			}
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
	return out
}
