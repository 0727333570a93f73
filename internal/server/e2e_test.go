package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/query"
)

// wireClient is a minimal wire-protocol client for tests: it frames
// responses by the ok / partial: / error: status-line contract.
type wireClient struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialWire(t *testing.T, addr string) *wireClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &wireClient{conn: conn, r: bufio.NewReader(conn)}
	greeting, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("reading greeting: %v", err)
	}
	if strings.TrimSpace(greeting) != "spatiald ready" {
		t.Fatalf("greeting = %q", greeting)
	}
	return c
}

// send writes one command line without waiting for the response.
func (c *wireClient) send(cmd string) error {
	_, err := fmt.Fprintf(c.conn, "%s\n", cmd)
	return err
}

// readResponse collects data lines until the status line.
func (c *wireClient) readResponse() (lines []string, status string, err error) {
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return lines, "", err
		}
		line = strings.TrimSuffix(line, "\n")
		if line == "ok" || strings.HasPrefix(line, "partial:") || strings.HasPrefix(line, "error:") {
			return lines, line, nil
		}
		lines = append(lines, line)
	}
}

// do sends one command and returns its framed response.
func (c *wireClient) do(t *testing.T, cmd string) ([]string, string) {
	t.Helper()
	if err := c.send(cmd); err != nil {
		t.Fatalf("send %q: %v", cmd, err)
	}
	lines, status, err := c.readResponse()
	if err != nil {
		t.Fatalf("response to %q: %v (got %q)", cmd, err, lines)
	}
	return lines, status
}

// mustOK runs a command and fails the test unless it completes.
func (c *wireClient) mustOK(t *testing.T, cmd string) []string {
	t.Helper()
	lines, status := c.do(t, cmd)
	if status != "ok" {
		t.Fatalf("%q -> %q (lines %q)", cmd, status, lines)
	}
	return lines
}

// countFrom extracts N from the first data line matching "<op>: N ...".
func countFrom(t *testing.T, lines []string, format string) int {
	t.Helper()
	for _, l := range lines {
		var n int
		if _, err := fmt.Sscanf(l, format, &n); err == nil {
			return n
		}
	}
	t.Fatalf("no line matching %q in %q", format, lines)
	return 0
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitGoroutines polls until the goroutine count returns to (at most) the
// pre-test baseline, dumping all stacks on failure.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}

const (
	e2eQueryWKT = "POLYGON ((200 150, 220 150, 220 170, 200 170))"
	e2eScale    = 0.01
)

// TestE2EConcurrentClients is the end-to-end gate: spatiald on an
// ephemeral port, 8 concurrent wire clients running a mixed
// gen/load/join/pjoin/select/knn workload against the shared catalog,
// every result checked against direct query-library calls, and zero
// goroutines leaked once the server shuts down.
func TestE2EConcurrentClients(t *testing.T) {
	baseline := runtime.NumGoroutine()

	// Ground truth from direct library calls on the same datasets.
	waterData := data.MustLoad("WATER", e2eScale)
	water := query.NewLayer(waterData)
	prism := query.NewLayer(data.MustLoad("PRISM", e2eScale))
	tester := core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold})
	pairs, _, err := query.IntersectionJoinView(context.Background(), water.View(), prism.View(), tester, query.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantJoin := len(pairs)
	qpoly, err := geom.ParsePolygonWKT(e2eQueryWKT)
	if err != nil {
		t.Fatal(err)
	}
	ids, _, err := query.IntersectionSelectView(context.Background(), water.View(), qpoly,
		core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold}),
		query.JoinOptions{InteriorLevel: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantSelect := len(ids)
	neighbors, err := query.KNearest(context.Background(), water, qpoly, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantKNN := fmt.Sprintf("%d neighbors", len(neighbors))

	// A dataset file for the load path.
	waterFile := filepath.Join(t.TempDir(), "water.json")
	if err := waterData.SaveFile(waterFile); err != nil {
		t.Fatal(err)
	}

	s := startServer(t, Config{MaxConcurrent: 16, QueueWait: 5 * time.Second})
	addr := s.Addr().String()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("client %d: "+format, append([]any{i}, args...)...)
			}
			conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				fail("dial: %v", err)
				return
			}
			defer conn.Close()
			c := &wireClient{conn: conn, r: bufio.NewReader(conn)}
			if _, err := c.r.ReadString('\n'); err != nil {
				fail("greeting: %v", err)
				return
			}
			run := func(cmd string) ([]string, bool) {
				if err := c.send(cmd); err != nil {
					fail("send %q: %v", cmd, err)
					return nil, false
				}
				lines, status, err := c.readResponse()
				if err != nil || status != "ok" {
					fail("%q -> status %q err %v (lines %q)", cmd, status, err, lines)
					return nil, false
				}
				return lines, true
			}
			count := func(lines []string, format string) int {
				for _, l := range lines {
					var n int
					if _, err := fmt.Sscanf(l, format, &n); err == nil {
						return n
					}
				}
				fail("no %q line in %q", format, lines)
				return -1
			}

			// Every client generates the shared layers (idempotent
			// rebinds), loads its own copy from disk, and runs the full
			// query mix, checking each answer against the ground truth.
			mine := fmt.Sprintf("w%d", i)
			steps := []struct {
				cmd    string
				format string // "" = no count check
				want   int
			}{
				{fmt.Sprintf("gen water WATER %g", e2eScale), "", 0},
				{fmt.Sprintf("gen prism PRISM %g", e2eScale), "", 0},
				{fmt.Sprintf("load %s %s", mine, waterFile), "", 0},
				{"join water prism hw", "join: %d results", wantJoin},
				{"join water prism sw", "join: %d results", wantJoin},
				{fmt.Sprintf("join %s prism hw", mine), "join: %d results", wantJoin},
				{"pjoin water prism 2", "pjoin: %d results", wantJoin},
				{fmt.Sprintf("select water %s", e2eQueryWKT), "select: %d results", wantSelect},
				{"layers", "", 0},
			}
			for _, st := range steps {
				lines, ok := run(st.cmd)
				if !ok {
					return
				}
				if st.format != "" {
					if got := count(lines, st.format); got != st.want {
						fail("%q = %d results, want %d", st.cmd, got, st.want)
						return
					}
				}
			}
			lines, ok := run(fmt.Sprintf("knn water %s 5", e2eQueryWKT))
			if !ok {
				return
			}
			if len(lines) == 0 || !strings.HasPrefix(lines[0], wantKNN) {
				fail("knn header = %q, want prefix %q", lines, wantKNN)
				return
			}
			for _, nb := range neighbors {
				found := false
				for _, l := range lines[1:] {
					if strings.Contains(l, fmt.Sprintf("object %-6d", nb.ID)) {
						found = true
						break
					}
				}
				if !found {
					fail("knn response missing neighbor %d: %q", nb.ID, lines)
					return
				}
			}
			if err := c.send("quit"); err == nil {
				_, _, _ = c.readResponse()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The catalog holds the 2 shared + 8 per-client layers.
	if got := s.Catalog().Len(); got != 2+clients {
		t.Errorf("catalog has %d layers, want %d", got, 2+clients)
	}
	m := s.Metrics()
	if got := m.ConnsAccepted.Load(); got != clients {
		t.Errorf("ConnsAccepted = %d, want %d", got, clients)
	}
	if m.QueriesOK.Load() == 0 || m.Candidates.Load() == 0 {
		t.Errorf("metrics did not aggregate: ok=%d candidates=%d",
			m.QueriesOK.Load(), m.Candidates.Load())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	waitFor(t, "sessions to exit", func() bool { return m.SessionsActive.Load() == 0 })
	waitGoroutines(t, baseline)
}

// TestShutdownDrainsPartialResults proves the drain contract on the wire:
// a query in flight when Shutdown begins is cancelled (DrainGrace < 0)
// and its session still delivers the partial results with a partial:
// status line before the connection closes.
func TestShutdownDrainsPartialResults(t *testing.T) {
	baseline := runtime.NumGoroutine()

	// Every refinement test stalls 2ms, so the 800+-candidate join runs
	// long enough to be shut down mid-flight, and the serial join's
	// cancellation stride (64 tests) fires well before completion.
	inj := faultinject.New(7).
		Inject(faultinject.SiteIntersects, faultinject.KindDelay, 1).
		SetDelay(2 * time.Millisecond)
	s := New(Config{Addr: "127.0.0.1:0", Faults: inj, DrainGrace: -1})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	c := dialWire(t, s.Addr().String())
	c.mustOK(t, fmt.Sprintf("gen water WATER %g", e2eScale))
	c.mustOK(t, fmt.Sprintf("gen prism PRISM %g", e2eScale))

	if err := c.send("join water prism hw"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "join to enter refinement", func() bool {
		return s.lim.snapshot().InFlight > 0 && inj.Fired(faultinject.SiteIntersects, faultinject.KindDelay) > 0
	})

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	lines, status, err := c.readResponse()
	if err != nil {
		t.Fatalf("reading drained response: %v (lines %q)", err, lines)
	}
	if !strings.HasPrefix(status, "partial:") {
		t.Fatalf("status = %q, want partial:..., lines %q", status, lines)
	}
	results := countFrom(t, lines, "join: %d results")
	t.Logf("drained join returned %d partial results, status %q", results, status)
	noted := false
	for _, l := range lines {
		if strings.HasPrefix(l, "note:") && strings.Contains(l, "partial") {
			noted = true
		}
	}
	if !noted {
		t.Errorf("no interruption note in drained output %q", lines)
	}

	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := s.Metrics().QueriesPartial.Load(); got != 1 {
		t.Errorf("QueriesPartial = %d, want 1", got)
	}
	waitGoroutines(t, baseline)
}
