package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// Streaming wind-down tests: rows now reach the client while a query is
// still refining, so a client that disappears mid-stream (or a deadline
// that expires under it) must cancel the running pipeline, release the
// admission slot, and leak nothing.

// TestStreamWriteFaultWindsDownJoin severs the connection at the write
// site after a handful of streamed rows: the client sees a truncated
// stream (rows but no status line), the running join's sinks wind down
// via the cancelled command context, and the session releases its
// admission slot without leaking a goroutine.
func TestStreamWriteFaultWindsDownJoin(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// Write #1 is the greeting; #5 lands a few rows into the join stream.
	inj := faultinject.New(3).InjectAt(faultinject.SiteServerWrite, faultinject.KindDisconnect, 5)
	s := New(Config{Addr: "127.0.0.1:0", Faults: inj})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	water, prism := preload(t, s)
	wantJoin := directJoinCount(t, water, prism)
	if wantJoin < 5 {
		t.Fatalf("join has only %d pairs; the stream would end before the injected cut", wantJoin)
	}

	c := dialWire(t, s.Addr().String())
	if err := c.send("shardjoin water prism -Inf -Inf +Inf +Inf"); err != nil {
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	rows := 0
	sawStatus := false
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			break
		}
		l := strings.TrimSuffix(line, "\n")
		if l == "ok" || strings.HasPrefix(l, "partial:") || strings.HasPrefix(l, "error:") {
			sawStatus = true
			break
		}
		if strings.HasPrefix(l, "pair ") {
			rows++
		}
	}
	if sawStatus {
		t.Fatalf("severed session still delivered a status line after %d rows", rows)
	}
	if rows == 0 {
		t.Fatal("no rows streamed before the injected disconnect: output is not streaming")
	}
	if inj.Fired(faultinject.SiteServerWrite, faultinject.KindDisconnect) == 0 {
		t.Fatal("write-site disconnect never fired")
	}

	waitFor(t, "severed session to unwind", func() bool {
		return s.Metrics().SessionsActive.Load() == 0
	})
	waitFor(t, "admission slot release", func() bool {
		return s.lim.snapshot().InFlight == 0
	})
	checkCatalogIntact(t, s, water, prism, wantJoin)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
}

// TestStreamDeadlineExpiryReleasesSlot expires a session deadline in the
// middle of a streamed join (refinement slowed by injected delays): the
// client gets a partial status after whatever rows made it out, and the
// server is left with no held slot, no watchdog entry, and no leaked
// goroutine.
func TestStreamDeadlineExpiryReleasesSlot(t *testing.T) {
	baseline := runtime.NumGoroutine()
	inj := faultinject.New(5).
		Inject(faultinject.SiteIntersects, faultinject.KindDelay, 1).
		SetDelay(5 * time.Millisecond)
	s := New(Config{Addr: "127.0.0.1:0", Faults: inj})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	water, prism := preload(t, s)
	wantJoin := directJoinCount(t, water, prism)

	c := dialWire(t, s.Addr().String())
	c.mustOK(t, "timeout 25ms")
	lines, status := c.do(t, "shardjoin water prism -Inf -Inf +Inf +Inf")
	if !strings.HasPrefix(status, "partial:") {
		t.Fatalf("deadline-expired join answered %q (%d lines), want partial:", status, len(lines))
	}
	rows := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "pair ") {
			rows++
		}
	}
	if rows >= wantJoin {
		t.Fatalf("expired join streamed all %d rows; the deadline never bit", rows)
	}

	waitFor(t, "admission slot release", func() bool {
		return s.lim.snapshot().InFlight == 0 && s.dog.active() == 0
	})
	checkCatalogIntact(t, s, water, prism, wantJoin)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
}

// TestBatchVerbOverWire runs two queries in one round trip under a
// single admission slot and pins the framing: each sub-command's output
// streams in order with its "sub <n> ok: <op>" trailer, and the batch
// answers one status line.
func TestBatchVerbOverWire(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0"})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	water, prism := preload(t, s)
	wantJoin := directJoinCount(t, water, prism)

	c := dialWire(t, s.Addr().String())
	lines := c.mustOK(t, "batch join water prism sw; shardjoin water prism -Inf -Inf +Inf +Inf")

	var trailers []string
	rows := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "sub ") {
			trailers = append(trailers, l)
		}
		if strings.HasPrefix(l, "pair ") {
			rows++
		}
	}
	if len(trailers) != 2 || !strings.HasPrefix(trailers[0], "sub 1 ok: join") ||
		!strings.HasPrefix(trailers[1], "sub 2 ok: shardjoin") {
		t.Fatalf("batch trailers = %q, want sub 1 ok: join / sub 2 ok: shardjoin", trailers)
	}
	if got := countFrom(t, lines, "join: %d results"); got != wantJoin {
		t.Errorf("batched join reports %d results, want %d", got, wantJoin)
	}
	if rows != wantJoin {
		t.Errorf("batched shardjoin streamed %d pairs, want %d", rows, wantJoin)
	}

	// A failing sub-command is reported in-band and does not abort the
	// batch or the session.
	lines = c.mustOK(t, "batch join nosuch prism; join water prism sw")
	found := false
	for _, l := range lines {
		if strings.HasPrefix(l, "sub 1 error:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("failing sub not reported in-band: %q", lines)
	}
	if got := countFrom(t, lines, "join: %d results"); got != wantJoin {
		t.Errorf("join after failing sub reports %d results, want %d", got, wantJoin)
	}
}

// TestSendWriteDeadlineUnblocksStalledClient pins the slow-reader
// defense: a client that stops reading (without disconnecting) must fail
// the protocol write within the configured write deadline, instead of
// parking the session — and, mid-query, its admission slot — in a
// conn.Write that context cancellation cannot unblock. net.Pipe is
// unbuffered, so the unread write models a full socket buffer exactly.
func TestSendWriteDeadlineUnblocksStalledClient(t *testing.T) {
	s := New(Config{WriteTimeout: 50 * time.Millisecond})
	srv, client := net.Pipe()
	defer srv.Close()
	defer client.Close() // never read from: the stalled client

	start := time.Now()
	err := s.newConnWriter(srv).line("row nobody reads")
	if err == nil {
		t.Fatal("send to a client that never reads returned nil, want deadline error")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("send error = %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("send took %v to fail; the write deadline never armed", d)
	}
}

// TestWatchdogSeversPinnedQuery pins the stuck-query escalation: the
// kill fires once at the threshold, nothing is severed inside the grace
// period that follows (the threshold floored at a second), and a query
// still running after it — pinned where cancellation cannot reach — has
// its sever hook run, which closes the client connection. Disarming
// afterwards returns the counts to idle and leaves no goroutine.
func TestWatchdogSeversPinnedQuery(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var dog stuckQueries
	killed := make(chan time.Time, 2)
	severed := make(chan time.Time, 2)
	disarm := dog.arm(10*time.Millisecond, "join",
		func(error) { killed <- time.Now() },
		func() { severed <- time.Now() })

	var killAt time.Time
	select {
	case killAt = <-killed:
	case <-time.After(5 * time.Second):
		t.Fatal("the kill timer never fired")
	}
	select {
	case <-severed:
		t.Fatal("severed on the kill; escalation must wait out the grace period")
	case <-time.After(500 * time.Millisecond):
	}
	var severAt time.Time
	select {
	case severAt = <-severed:
	case <-time.After(5 * time.Second):
		t.Fatal("query pinned past the kill grace was not severed")
	}
	if gap := severAt.Sub(killAt); gap < 900*time.Millisecond {
		t.Errorf("severed %v after the kill, inside the 1s grace", gap)
	}
	if len(killed) != 0 || len(severed) != 0 {
		t.Errorf("killed %d and severed %d more times, want one of each", len(killed), len(severed))
	}
	disarm()
	if dog.active() != 0 || dog.cancelCount() != 1 {
		t.Fatalf("active=%d cancels=%d after sever+disarm", dog.active(), dog.cancelCount())
	}
	waitGoroutines(t, baseline)
}

// TestHTTPStreamEndpoint drives /stream: the response body must carry
// the TCP wire framing — data lines, then exactly one status line — and
// the streamed rows must match the direct join. Afterwards the pipeline
// and streaming metric families must be live on /metrics.
func TestHTTPStreamEndpoint(t *testing.T) {
	s := startServer(t, Config{})
	water, prism := preload(t, s)
	wantJoin := directJoinCount(t, water, prism)
	base := "http://" + s.HTTPAddr().String()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	// '+Inf' needs %2B: a literal '+' in a query string decodes to space.
	code, body := httpGet(t, client, base+"/stream?cmd=shardjoin+water+prism+-Inf+-Inf+%2BInf+%2BInf")
	if code != http.StatusOK {
		t.Fatalf("/stream = %d %q", code, body)
	}
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if n := len(lines); n == 0 || lines[n-1] != "ok" {
		t.Fatalf("stream body does not end with an ok status line: %q", lines)
	}
	rows := 0
	for _, l := range lines[:len(lines)-1] {
		if strings.HasPrefix(l, "pair ") {
			rows++
		} else if !strings.HasPrefix(l, "stats ") {
			t.Fatalf("unexpected stream line %q", l)
		}
	}
	if rows != wantJoin {
		t.Fatalf("/stream delivered %d pairs, want %d", rows, wantJoin)
	}

	// Hard errors still end with the in-band status line.
	code, body = httpGet(t, client, base+"/stream?cmd=join+nosuch+prism")
	if code != http.StatusOK || !strings.HasPrefix(strings.TrimSpace(body), "error:") {
		t.Fatalf("bad /stream = %d %q, want in-band error status", code, body)
	}

	code, body = httpGet(t, client, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, name := range []string{
		"spatiald_pipeline_batches_total",
		"spatiald_pipeline_filter_seconds_total",
		"spatiald_pipeline_refine_seconds_total",
		"spatiald_stream_rows_emitted_total",
	} {
		if !strings.Contains(body, name+" ") {
			t.Errorf("metrics missing %s", name)
		}
	}
	for _, counter := range []string{"spatiald_pipeline_batches_total", "spatiald_stream_rows_emitted_total"} {
		for _, l := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(l, counter+" "); ok && v == "0" {
				t.Errorf("%s still zero after a streamed pipelined join", counter)
			}
		}
	}
}
