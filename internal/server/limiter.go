package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// OverloadError is the typed admission rejection: the server already has
// its configured maximum of refinement-running queries in flight and the
// caller could not be admitted — the wait queue was full, or the caller's
// grace period (QueueWait) elapsed without a slot freeing. RetryAfter is
// the server's load-shedding hint, estimated from the recent slot-release
// rate and the queue depth ahead of a new arrival; clients should back
// off at least that long before retrying. The request did no query work.
type OverloadError struct {
	Limit      int
	Wait       time.Duration // grace period that elapsed (0: rejected immediately)
	Queued     int           // waiters ahead at rejection time
	RetryAfter time.Duration // suggested backoff before retrying
}

func (e *OverloadError) Error() string {
	msg := fmt.Sprintf("overloaded: %d queries in flight", e.Limit)
	if e.Wait > 0 {
		msg = fmt.Sprintf("overloaded: %d queries in flight, no slot within %v", e.Limit, e.Wait)
	}
	if e.Queued > 0 {
		msg += fmt.Sprintf(", %d queued", e.Queued)
	}
	if e.RetryAfter > 0 {
		// The trailing hint is part of the wire contract: the spatiald
		// client's retry loop parses it from the "error:" status line.
		msg += fmt.Sprintf("; retry after %v", e.RetryAfter)
	}
	return msg
}

// errShuttingDown is the admission refusal of a query still queued when
// shutdown cancels the server's base context; every transport reports it
// as "error: shutting down".
var errShuttingDown = errors.New("shutting down")

// AdmissionStats is the limiter's counter snapshot for /metrics.
type AdmissionStats struct {
	InFlight  int   // slots currently held
	Queued    int   // waiters currently parked in the FIFO queue
	Admitted  int64 // total successful acquisitions
	Shed      int64 // arrivals rejected because the queue was full
	Timeouts  int64 // waiters whose grace period elapsed unserved
	WaitNanos int64 // cumulative queue wait of admitted queries
}

// waiter is one parked acquirer. granted is set under the limiter mutex
// when a released slot is handed directly to the queue head; the waiter
// owns the slot from that moment, so a racing timeout/cancellation must
// check granted and pass the slot onward rather than leak it.
type waiter struct {
	ready   chan struct{}
	granted bool
}

// limiter is the admission gate bounding concurrent refinement work, a
// counted set of slots fronted by a bounded FIFO wait queue. An arrival
// with a free slot is admitted immediately; otherwise it parks in the
// queue (admission order is arrival order — no barging) until a slot is
// handed to it, its grace period elapses, or its context ends. Arrivals
// beyond the queue bound are shed immediately with an OverloadError
// carrying a retry-after hint derived from the observed service rate.
type limiter struct {
	limit    int
	wait     time.Duration // per-waiter grace period (<=0: reject, never queue)
	maxQueue int           // queue bound (<=0 with wait>0: unbounded is not offered; see newLimiter)

	mu          sync.Mutex
	inUse       int
	queue       []*waiter
	lastRelease time.Time
	interEWMA   time.Duration // smoothed inter-release interval (service-rate estimate)

	admitted  atomic.Int64
	shed      atomic.Int64
	timeouts  atomic.Int64
	waitNanos atomic.Int64
}

// newLimiter builds an admission gate with the given slot count, waiter
// grace period, and queue bound. maxQueue <= 0 defaults to 4× the slot
// count when waiting is enabled; with wait <= 0 the queue is disabled and
// over-limit arrivals are rejected immediately (the pre-queue semantics).
func newLimiter(slots int, wait time.Duration, maxQueue int) *limiter {
	if maxQueue <= 0 {
		maxQueue = 4 * slots
	}
	if wait <= 0 {
		maxQueue = 0
	}
	return &limiter{limit: slots, wait: wait, maxQueue: maxQueue}
}

// acquire claims a slot, parking in the FIFO queue for at most the grace
// period when none is free. It returns a *OverloadError on admission
// failure, or errShuttingDown if base ends first: base is the server's
// base context, which only shutdown cancels.
func (l *limiter) acquire(base context.Context) error {
	l.mu.Lock()
	if l.inUse < l.limit && len(l.queue) == 0 {
		l.inUse++
		l.mu.Unlock()
		l.admitted.Add(1)
		return nil
	}
	if l.wait <= 0 || len(l.queue) >= l.maxQueue {
		queued := len(l.queue)
		hint := l.retryHintLocked(queued)
		l.mu.Unlock()
		l.shed.Add(1)
		return &OverloadError{Limit: l.limit, Queued: queued, RetryAfter: hint}
	}
	w := &waiter{ready: make(chan struct{})}
	l.queue = append(l.queue, w)
	l.mu.Unlock()

	start := time.Now()
	t := time.NewTimer(l.wait)
	defer t.Stop()
	select {
	case <-w.ready:
		l.admitted.Add(1)
		l.waitNanos.Add(int64(time.Since(start)))
		return nil
	case <-t.C:
		if abandoned, queued, hint := l.abandonForTimeout(w); abandoned {
			l.timeouts.Add(1)
			return &OverloadError{Limit: l.limit, Wait: l.wait, Queued: queued, RetryAfter: hint}
		}
		// The grant raced the timer and won: the slot is ours after all.
		l.admitted.Add(1)
		l.waitNanos.Add(int64(time.Since(start)))
		return nil
	case <-base.Done():
		if !l.abandon(w) {
			// Granted concurrently with shutdown: we cannot use the slot,
			// so pass it to the next waiter (or free it) instead of
			// leaking.
			l.release()
		}
		return errShuttingDown
	}
}

// abandon removes a parked waiter from the queue. It reports false when
// the waiter was already granted a slot (the caller then owns it).
func (l *limiter) abandon(w *waiter) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.abandonLocked(w)
}

// abandonForTimeout is abandon plus a consistent snapshot of the queue
// depth and retry hint for the OverloadError, in one critical section.
func (l *limiter) abandonForTimeout(w *waiter) (abandoned bool, queued int, hint time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.abandonLocked(w) {
		return false, 0, 0
	}
	queued = len(l.queue)
	return true, queued, l.retryHintLocked(queued)
}

func (l *limiter) abandonLocked(w *waiter) bool {
	if w.granted {
		return false
	}
	for i, q := range l.queue {
		if q == w {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			break
		}
	}
	return true
}

// release returns a slot, handing it directly to the queue head when one
// is parked (FIFO admission: the slot never becomes visible to barging
// arrivals while someone is queued).
func (l *limiter) release() {
	l.mu.Lock()
	now := time.Now()
	if !l.lastRelease.IsZero() {
		// EWMA with weight 1/4: stable under bursts, adapts within a few
		// releases. This is the service-rate estimate behind RetryAfter.
		iv := now.Sub(l.lastRelease)
		if l.interEWMA == 0 {
			l.interEWMA = iv
		} else {
			l.interEWMA += (iv - l.interEWMA) / 4
		}
	}
	l.lastRelease = now
	if len(l.queue) > 0 {
		w := l.queue[0]
		l.queue = l.queue[1:]
		w.granted = true
		close(w.ready)
		l.mu.Unlock()
		return
	}
	l.inUse--
	l.mu.Unlock()
}

// retryHintLocked estimates how long a shed caller should back off: the
// time for the queue ahead of it (plus one slot for itself) to drain at
// the observed service rate, clamped to a sane operational window. Called
// with l.mu held.
func (l *limiter) retryHintLocked(queued int) time.Duration {
	iv := l.interEWMA
	if iv <= 0 {
		iv = 100 * time.Millisecond // no releases observed yet: guess
	}
	hint := iv * time.Duration(queued+1)
	if hint < 100*time.Millisecond {
		hint = 100 * time.Millisecond
	}
	if hint > 30*time.Second {
		hint = 30 * time.Second
	}
	return hint
}

// snapshot captures the admission counters for /metrics.
func (l *limiter) snapshot() AdmissionStats {
	l.mu.Lock()
	inUse, queued := l.inUse, len(l.queue)
	l.mu.Unlock()
	return AdmissionStats{
		InFlight:  inUse,
		Queued:    queued,
		Admitted:  l.admitted.Load(),
		Shed:      l.shed.Load(),
		Timeouts:  l.timeouts.Load(),
		WaitNanos: l.waitNanos.Load(),
	}
}
