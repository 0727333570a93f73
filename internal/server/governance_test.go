package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/shellcmd"
)

// TestLimiterFIFOQueue checks that parked waiters are admitted in arrival
// order as slots free, with no barging by fresh arrivals.
func TestLimiterFIFOQueue(t *testing.T) {
	l := newLimiter(1, time.Second, 8)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	const waiters = 4
	order := make(chan int, waiters)
	var done sync.WaitGroup
	for i := 0; i < waiters; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			if err := l.acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			order <- i
			l.release()
		}(i)
		// Wait until this waiter is parked before launching the next, so
		// queue order (and thus expected admission order) is deterministic.
		waitForQueued(t, l, i+1)
	}

	l.release() // hand the slot down the queue
	done.Wait()
	close(order)
	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("admission order: got waiter %d, want %d", got, want)
		}
		want++
	}
	if l.snapshot().InFlight != 0 || l.snapshot().Queued != 0 {
		t.Errorf("after drain: inFlight=%d queued=%d", l.snapshot().InFlight, l.snapshot().Queued)
	}
	st := l.snapshot()
	if st.Admitted != int64(waiters+1) || st.Shed != 0 || st.Timeouts != 0 {
		t.Errorf("snapshot = %+v", st)
	}
	if st.WaitNanos <= 0 {
		t.Errorf("WaitNanos = %d, want > 0", st.WaitNanos)
	}
}

func waitForQueued(t *testing.T, l *limiter, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for l.snapshot().Queued < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", n, l.snapshot().Queued)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestLimiterQueueBoundShedsWithHint fills the queue and checks that the
// next arrival is shed immediately with a parseable retry-after hint.
func TestLimiterQueueBoundShedsWithHint(t *testing.T) {
	l := newLimiter(1, time.Second, 2)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go func() {
			_ = l.acquire(ctx) // parks until cancel
		}()
	}
	waitForQueued(t, l, 2)

	err := l.acquire(context.Background())
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *OverloadError", err)
	}
	if oe.Queued != 2 {
		t.Errorf("Queued = %d, want 2", oe.Queued)
	}
	if oe.RetryAfter < 100*time.Millisecond || oe.RetryAfter > 30*time.Second {
		t.Errorf("RetryAfter = %v outside clamp window", oe.RetryAfter)
	}
	// The wire contract: the hint is the text after the last "retry after ".
	msg := oe.Error()
	i := strings.LastIndex(msg, "retry after ")
	if i < 0 {
		t.Fatalf("message %q missing retry-after hint", msg)
	}
	d, perr := time.ParseDuration(msg[i+len("retry after "):])
	if perr != nil || d != oe.RetryAfter {
		t.Errorf("parsed hint %v (err %v), want %v", d, perr, oe.RetryAfter)
	}
	if got := l.snapshot().Shed; got != 1 {
		t.Errorf("Shed = %d, want 1", got)
	}
	cancel()
}

// TestLimiterCancelledWaiterHandsSlotOn covers the grant-vs-cancel race:
// a waiter cancelled after being granted must pass the slot on, not leak it.
func TestLimiterCancelledWaiterHandsSlotOn(t *testing.T) {
	l := newLimiter(1, time.Second, 4)
	for i := 0; i < 200; i++ {
		if err := l.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() { errc <- l.acquire(ctx) }()
		waitForQueued(t, l, 1)
		// Race the grant against the cancellation.
		go l.release()
		go cancel()
		if err := <-errc; err == nil {
			l.release() // waiter won the race and owns the slot
		}
		// Whatever the interleaving, exactly zero slots must remain held.
		deadline := time.Now().Add(time.Second)
		for l.snapshot().InFlight != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("iteration %d: inFlight=%d, slot leaked", i, l.snapshot().InFlight)
			}
			time.Sleep(50 * time.Microsecond)
		}
		cancel()
	}
}

// TestWatchdogCancelsStuckQuery arms the stuck-query timers around a
// query that never returns by itself, and checks the first one kills it
// once, with a typed cause whose Age is at least the threshold; and that
// a query returning before the threshold is neither killed nor severed.
// Once both are disarmed the counts are back to idle and no timer
// goroutine is left behind.
func TestWatchdogCancelsStuckQuery(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const threshold = 10 * time.Millisecond
	var dog stuckQueries
	ctx, cancel := context.WithCancelCause(context.Background())
	var kills atomic.Int32
	disarm := dog.arm(threshold, "join", func(err error) { kills.Add(1); cancel(err) }, nil)
	if dog.active() != 1 {
		t.Fatalf("active = %d after arm, want 1", dog.active())
	}
	<-ctx.Done()
	var se *StuckQueryError
	if cause := context.Cause(ctx); !errors.As(cause, &se) || se.Op != "join" {
		t.Fatalf("cause = %v, want *StuckQueryError{Op: join}", cause)
	}
	if se.Age < threshold {
		t.Errorf("killed at age %v, before the %v threshold", se.Age, threshold)
	}
	if !errors.Is(context.Cause(ctx), context.Canceled) {
		t.Error("StuckQueryError does not unwrap to context.Canceled")
	}
	time.Sleep(5 * threshold) // a second kill would land here
	if n := kills.Load(); n != 1 {
		t.Errorf("killed %d times, want once", n)
	}
	disarm()

	// A query that returns first: neither timer fires.
	var late atomic.Int32
	disarm = dog.arm(threshold, "select",
		func(error) { late.Add(1) }, func() { late.Add(1) })
	disarm()
	time.Sleep(5 * threshold)
	if n := late.Load(); n != 0 {
		t.Errorf("a query that returned before the threshold drew %d kill/sever calls", n)
	}
	if dog.active() != 0 || dog.cancelCount() != 1 {
		t.Errorf("active=%d cancels=%d, want 0 and 1", dog.active(), dog.cancelCount())
	}
	waitGoroutines(t, baseline)
}

// TestWatchdogKillReleasesAdmissionSlot runs a real server whose watchdog
// reaps a deliberately stalled query (every refinement test delayed 2ms,
// so the 800+-candidate join runs for seconds against a 30ms threshold),
// and checks the admission slot comes back, the registry empties, and the
// wire response is a partial carrying the stuck-query cause. Run under
// -race this also proves register/scan/deregister are data-race free
// against a live query.
func TestWatchdogKillReleasesAdmissionSlot(t *testing.T) {
	inj := faultinject.New(13).
		Inject(faultinject.SiteIntersects, faultinject.KindDelay, 1).
		SetDelay(2 * time.Millisecond)
	s := startServer(t, Config{
		MaxConcurrent:   1,
		WatchdogTimeout: 30 * time.Millisecond,
		Faults:          inj,
	})
	c := dialWire(t, s.Addr().String())
	c.mustOK(t, fmt.Sprintf("gen water WATER %g", e2eScale))
	c.mustOK(t, fmt.Sprintf("gen prism PRISM %g", e2eScale))

	lines, status := c.do(t, "join water prism hw")
	if !strings.HasPrefix(status, "partial: ") {
		t.Fatalf("status = %q (lines %q), want watchdog partial", status, lines)
	}
	if !strings.Contains(status, "watchdog cancelled stuck join query") {
		t.Errorf("partial without watchdog cause: %q", status)
	}
	if s.dog.cancelCount() == 0 {
		t.Error("watchdog cancel not counted")
	}

	// The slot and the registry must be clean, and the session must still
	// be usable for the next command.
	waitForIdle(t, s)
	if err := s.lim.acquire(context.Background()); err != nil {
		t.Fatalf("slot not reclaimed after watchdog kill: %v", err)
	}
	s.lim.release()
	c.mustOK(t, "layers")
}

func waitForIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.lim.snapshot().InFlight != 0 || s.dog.active() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("not idle: inFlight=%d watchdogActive=%d", s.lim.snapshot().InFlight, s.dog.active())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueryTimeoutCeiling checks the server-imposed deadline end to end:
// a session cannot escape QueryTimeout by setting timeout 0, expiry
// surfaces as a partial whose message names the exhausted budget, and the
// deadline counter reaches /metrics.
func TestQueryTimeoutCeiling(t *testing.T) {
	s := startServer(t, Config{QueryTimeout: time.Nanosecond})
	c := dialWire(t, s.Addr().String())
	c.mustOK(t, fmt.Sprintf("gen water WATER %g", e2eScale))
	c.mustOK(t, fmt.Sprintf("gen prism PRISM %g", e2eScale))

	// timeout 0 would mean "no deadline" but the server ceiling still binds.
	c.mustOK(t, "timeout 0")
	_, status := c.do(t, "join water prism hw")
	if !strings.HasPrefix(status, "partial: ") || !strings.Contains(status, "wall-clock budget 1ns exhausted") {
		t.Errorf("status = %q, want deadline partial naming the budget", status)
	}
	if got := s.Metrics().DeadlineExpirations.Load(); got == 0 {
		t.Error("DeadlineExpirations not incremented")
	}
}

// TestEffectiveTimeoutCap checks the Settings-level min semantics directly.
func TestEffectiveTimeoutCap(t *testing.T) {
	cases := []struct {
		timeout, max, want time.Duration
	}{
		{0, 0, 0},
		{time.Second, 0, time.Second},
		{0, time.Minute, time.Minute},
		{time.Second, time.Minute, time.Second},
		{time.Hour, time.Minute, time.Minute},
	}
	for _, c := range cases {
		st := shellcmd.Settings{Timeout: c.timeout, MaxTimeout: c.max}
		if got := st.EffectiveTimeout(); got != c.want {
			t.Errorf("EffectiveTimeout(%v, %v) = %v, want %v", c.timeout, c.max, got, c.want)
		}
	}
}

// TestHTTPOverloadRetryAfter saturates admission and checks the 503
// carries both the Retry-After header and the parseable message hint.
func TestHTTPOverloadRetryAfter(t *testing.T) {
	s := startServer(t, Config{MaxConcurrent: 1})
	base := "http://" + s.HTTPAddr().String()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	httpGet(t, client, base+"/query?cmd=gen+water+WATER+0.01")
	httpGet(t, client, base+"/query?cmd=gen+prism+PRISM+0.01")

	if err := s.lim.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.lim.release()

	resp, err := client.Get(base + "/query?cmd=join+water+prism")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("503 missing Retry-After header")
	}
	secs, perr := strconv.Atoi(ra)
	if perr != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want integer seconds >= 1", ra)
	}
}

// TestShutdownRefusesQueuedQueries: queries queued behind a held slot when
// shutdown cancels the server's base context are refused as "shutting
// down" on every transport — the TCP status line, /query's 503 JSON error
// and /stream's 503 body.
func TestShutdownRefusesQueuedQueries(t *testing.T) {
	s := startServer(t, Config{MaxConcurrent: 1, QueueWait: time.Minute})
	base := "http://" + s.HTTPAddr().String()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	if err := s.lim.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.lim.release()

	c := dialWire(t, s.Addr().String())
	if err := c.send("join water prism"); err != nil {
		t.Fatal(err)
	}
	type answer struct {
		code int
		body string
	}
	answers := make(chan answer, 2)
	for _, path := range []string{"/query", "/stream"} {
		go func() {
			resp, err := client.Get(base + path + "?cmd=join+water+prism")
			if err != nil {
				answers <- answer{body: err.Error()}
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			answers <- answer{resp.StatusCode, path + " " + string(b)}
		}()
	}
	waitForQueued(t, s.lim, 3)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, status, err := c.readResponse(); err != nil || status != "error: shutting down" {
		t.Errorf("TCP status = %q (err %v), want \"error: shutting down\"", status, err)
	}
	for range 2 {
		a := <-answers
		if a.code != http.StatusServiceUnavailable || !strings.Contains(a.body, "shutting down") {
			t.Errorf("HTTP answer %d %q, want 503 saying shutting down", a.code, a.body)
		}
	}
}
