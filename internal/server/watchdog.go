package server

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// StuckQueryError is the cancellation cause the stuck-query timer installs
// when it kills a query that exceeded the stuck threshold — typically a
// query stalled by injected delays, a pathological geometry, or a session
// whose client vanished without closing. It unwraps to context.Canceled
// so the query winds down through the ordinary partial-result path.
type StuckQueryError struct {
	Op  string        // the command verb that stalled
	Age time.Duration // how long it had been running when killed
}

func (e *StuckQueryError) Error() string {
	return fmt.Sprintf("server: watchdog cancelled stuck %s query after %v", e.Op, e.Age)
}

func (e *StuckQueryError) Unwrap() error { return context.Canceled }

// stuckQueries counts what the stuck-query timers do: the queries armed
// now, and the kills since start. /metrics exports both.
type stuckQueries struct {
	running atomic.Int64
	cancels atomic.Int64
}

// active reports the query count armed now.
func (d *stuckQueries) active() int { return int(d.running.Load()) }

// cancelCount reports the total queries the timers have killed.
func (d *stuckQueries) cancelCount() int64 { return d.cancels.Load() }

// arm bounds one starting query with two timers and returns their disarm,
// which must run when the query returns, however it returns. It is the
// backstop *behind* deadline governance: deadlines bound well-behaved
// queries cooperatively, while the timers reap queries whose deadline was
// unset or whose wind-down itself stalled, so their admission slots are
// returned.
//
// The first timer cancels the query at the threshold, by cause: the query
// observes a *StuckQueryError and returns partial results. The second
// runs sever, when non-nil, one grace period later — the threshold
// floored at a second, so an ordinary kill's wind-down (cancel → partial
// results → status line) has room to finish first. A query still running
// then is pinned where cancellation cannot reach, like a conn.Write to a
// client that stopped reading; sever closes the connection, which fails
// the write and lets the session unwind. A nil sever (HTTP, whose writes
// carry their own deadlines) arms only the first timer. Each timer fires
// at most once, and a query that returns first fires neither.
func (d *stuckQueries) arm(timeout time.Duration, op string, cancel context.CancelCauseFunc, sever func()) (disarm func()) {
	start := time.Now()
	d.running.Add(1)
	kill := time.AfterFunc(timeout, func() {
		cancel(&StuckQueryError{Op: op, Age: time.Since(start)})
		d.cancels.Add(1)
	})
	var pin *time.Timer
	if sever != nil {
		pin = time.AfterFunc(timeout+max(timeout, time.Second), sever)
	}
	return func() {
		kill.Stop()
		if pin != nil {
			pin.Stop()
		}
		d.running.Add(-1)
	}
}
