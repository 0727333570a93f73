// Package parallel is the program's one worker pool: Ordered runs numbered
// tasks on a few goroutines and hands their results back on the caller's
// goroutine in task order, so what a pooled loop builds or streams is the
// same whatever the core count. A pool of one is the inline loop. The
// query executor's candidate generation and join stages, the interval
// column build and the snapshot writer all run on it.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Ordered runs do(w, i) for every task i in 0..n-1 and hands each result
// to deliver(i, r) on the caller's goroutine, in task order. Up to workers
// workers run the tasks, the caller and workers-1 goroutines, each with
// its own state from newWorker, built as it starts, for do's scratch; the
// caller runs a task only while it has nothing to deliver. Tasks are
// handed out in order, at most 2×workers past the next delivery, so a
// deliver that stalls (a congested client) stalls the workers and at most
// that many results wait. One worker, or one task, runs everything on the
// caller: no goroutine starts and no channel is made. A panic in do is
// raised on the caller once every worker has stopped, and nothing is
// delivered after it.
func Ordered[W, R any](n, workers int, newWorker func() W, do func(w W, i int) R, deliver func(i int, r R)) {
	if workers = min(workers, n); workers <= 1 {
		w := newWorker()
		for i := range n {
			deliver(i, do(w, i))
		}
		return
	}

	window := 2 * workers
	// Task i's result waits in slots[i%window]: task i+window is handed
	// out only once task i is delivered, so todo never holds more than
	// window tasks. done carries a goroutine's finished task to the caller,
	// or -1 for its panic, so it never holds more than window+workers.
	type slot struct {
		r     R
		ready bool // finished, not yet delivered; the caller's alone
	}
	slots := make([]slot, window)
	todo := make(chan int, window)
	done := make(chan int, window+workers)
	for i := range min(window, n) {
		todo <- i
	}
	var pool struct {
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	}
	for range workers - 1 {
		pool.wg.Add(1)
		go func() {
			defer pool.wg.Done()
			defer func() {
				if r := recover(); r != nil {
					pool.panicked.CompareAndSwap(nil, &r)
					done <- -1
				}
			}()
			w := newWorker()
			for i := range todo {
				if pool.panicked.Load() != nil {
					return
				}
				slots[i%window].r = do(w, i)
				done <- i
			}
		}()
	}
	// Every worker stops once todo is closed, after the last delivery or
	// a panic, in do, newWorker or deliver.
	defer func() {
		close(todo)
		pool.wg.Wait()
		if r := pool.panicked.Load(); r != nil {
			panic(*r)
		}
	}()

	// The caller is the last worker. A finished task comes first: one the
	// caller runs delays every delivery behind it.
	w := newWorker()
	for next := 0; next < n; {
		var i int
		select {
		case i = <-done:
		default:
			select {
			case i = <-done:
			case i = <-todo:
				slots[i%window].r = do(w, i)
			}
		}
		if i < 0 || pool.panicked.Load() != nil {
			return
		}
		slots[i%window].ready = true
		for ; next < n && slots[next%window].ready; next++ {
			r := slots[next%window].r
			slots[next%window] = slot{} // the pool keeps no delivered result alive
			deliver(next, r)
			if next+window < n {
				todo <- next + window
			}
		}
	}
}

// chunksPerWorker is how many contiguous chunks each worker gets on
// average. Object costs vary by orders of magnitude within a layer, so a
// worker that draws an expensive chunk leaves the rest to the others.
const chunksPerWorker = 8

// Chunks splits 0..n into contiguous chunks, runs do over each on
// Ordered's pool of runtime.GOMAXPROCS(0) workers, and returns the
// results in chunk order.
func Chunks[W, R any](n int, newWorker func() W, do func(w W, lo, hi int) R) []R {
	workers := runtime.GOMAXPROCS(0)
	chunks := min(n, workers*chunksPerWorker)
	out := make([]R, chunks)
	Ordered(chunks, workers, newWorker, func(w W, c int) R {
		return do(w, c*n/chunks, (c+1)*n/chunks)
	}, func(c int, r R) { out[c] = r })
	return out
}
