package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/query"
)

func testLayer(t *testing.T, name string, scale float64) *query.Layer {
	t.Helper()
	d, err := data.Load(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return query.NewLayer(d)
}

func TestCatalogCopyOnWrite(t *testing.T) {
	c := NewCatalog(0)
	water := testLayer(t, "WATER", 0.01)
	if err := c.Set("water", water); err != nil {
		t.Fatal(err)
	}

	// A view pinned before a later write keeps the old generation.
	view := c.View()
	prism := testLayer(t, "PRISM", 0.01)
	if err := c.Set("prism", prism); err != nil {
		t.Fatal(err)
	}
	if _, ok := view.Get("prism"); ok {
		t.Error("pinned view sees a layer published after it was taken")
	}
	if l, ok := view.Get("water"); !ok || l != water {
		t.Error("pinned view lost the layer it was taken with")
	}
	if _, ok := c.Get("prism"); !ok {
		t.Error("live catalog missing newly published layer")
	}
	// Writes through the view reach the live catalog.
	if err := view.Set("water2", water); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("water2"); !ok {
		t.Error("view.Set did not publish to live catalog")
	}
	if got := c.Names(); strings.Join(got, ",") != "prism,water,water2" {
		t.Errorf("Names() = %v", got)
	}
}

func TestCatalogFull(t *testing.T) {
	c := NewCatalog(1)
	water := testLayer(t, "WATER", 0.01)
	if err := c.Set("a", water); err != nil {
		t.Fatal(err)
	}
	err := c.Set("b", water)
	var cf *CatalogFullError
	if !errors.As(err, &cf) || cf.Limit != 1 {
		t.Fatalf("second Set: err = %v, want *CatalogFullError{Limit: 1}", err)
	}
	// Rebinding an existing name is always allowed.
	if err := c.Set("a", water); err != nil {
		t.Errorf("rebind existing name: %v", err)
	}
	if c.Len() != 1 {
		t.Errorf("Len() = %d", c.Len())
	}
}

func TestCatalogConcurrentReadersAndWriters(t *testing.T) {
	c := NewCatalog(0)
	water := testLayer(t, "WATER", 0.01)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := c.Set(fmt.Sprintf("l%d-%d", i, j), water); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				v := c.View()
				for _, n := range v.Names() {
					if _, ok := v.Get(n); !ok {
						t.Error("name listed but not gettable in same view")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != 200 {
		t.Errorf("Len() = %d, want 200", c.Len())
	}
}

func TestLimiterOverload(t *testing.T) {
	l := newLimiter(2, 0, 0)
	ctx := context.Background()
	if err := l.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := l.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	err := l.acquire(ctx)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Limit != 2 {
		t.Fatalf("third acquire: err = %v, want *OverloadError{Limit: 2}", err)
	}
	if l.snapshot().InFlight != 2 {
		t.Errorf("inFlight = %d", l.snapshot().InFlight)
	}
	l.release()
	if err := l.acquire(ctx); err != nil {
		t.Errorf("acquire after release: %v", err)
	}
}

func TestLimiterBoundedWait(t *testing.T) {
	l := newLimiter(1, 50*time.Millisecond, 0)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A slot freeing within the grace period admits the waiter.
	go func() {
		time.Sleep(10 * time.Millisecond)
		l.release()
	}()
	if err := l.acquire(context.Background()); err != nil {
		t.Errorf("acquire within grace: %v", err)
	}
	// Grace elapsing without a free slot rejects with the wait recorded.
	start := time.Now()
	err := l.acquire(context.Background())
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Wait != 50*time.Millisecond {
		t.Fatalf("err = %v, want OverloadError with Wait=50ms", err)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Error("rejected before the grace period elapsed")
	}
	// Context cancellation beats the grace timer.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled acquire: err = %v", err)
	}
}

func TestMetricsPrometheus(t *testing.T) {
	m := newMetrics()
	m.ConnsAccepted.Add(3)
	m.observe(query.Stats{Op: "join", Candidates: 100, Tests: 80, HWRejects: 60}, StatusOK, time.Second)
	m.observe(query.Stats{Op: "join"}, StatusPartial, time.Millisecond)
	m.observe(query.Stats{Op: "select"}, StatusError, 0)
	m.observe(query.Stats{Op: "pjoin"}, StatusOverload, 0)

	m.observe(query.Stats{Op: "join", SentinelChecks: 7, SentinelDisagreements: 2,
		BreakerTrips: 1, BreakerRecoveries: 1, BreakerOpenSkips: 40}, StatusOK, 0)
	m.observe(query.Stats{Op: "load", SigChecks: 30, SigRejects: 12,
		SnapshotBytes: 4096, SnapshotSections: 7, SnapshotMMap: true, SnapshotLoadMS: 1.5}, StatusOK, 0)
	m.observeFailure(&query.PartialError{Op: "join", Err: &query.DeadlineError{Budget: time.Second}})

	var sb strings.Builder
	m.WritePrometheus(&sb, Gauges{
		Admission: AdmissionStats{InFlight: 2, Queued: 3, Admitted: 9, Shed: 4,
			Timeouts: 1, WaitNanos: int64(time.Second / 2)},
		Layers:          5,
		WatchdogActive:  1,
		WatchdogCancels: 6,
	})
	out := sb.String()
	for _, want := range []string{
		"spatiald_connections_accepted_total 3",
		`spatiald_queries_total{status="ok"} 3`,
		`spatiald_queries_total{status="partial"} 1`,
		`spatiald_queries_total{status="error"} 1`,
		`spatiald_queries_total{status="overload"} 1`,
		"spatiald_commands_total 6",
		"spatiald_queries_in_flight 2",
		"spatiald_admission_queued 3",
		"spatiald_admission_admitted_total 9",
		"spatiald_admission_shed_total 4",
		"spatiald_admission_timeouts_total 1",
		"spatiald_admission_wait_seconds_total 0.5",
		"spatiald_watchdog_active 1",
		"spatiald_watchdog_cancels_total 6",
		"spatiald_deadline_expirations_total 1",
		"spatiald_catalog_layers 5",
		"spatiald_refine_candidates_total 100",
		"spatiald_refine_tests_total 80",
		"spatiald_refine_hw_rejects_total 60",
		"spatiald_sentinel_checks_total 7",
		"spatiald_sentinel_disagreements_total 2",
		"spatiald_breaker_trips_total 1",
		"spatiald_breaker_recoveries_total 1",
		"spatiald_breaker_open_skips_total 40",
		"spatiald_refine_sig_checks_total 30",
		"spatiald_refine_sig_rejects_total 12",
		"spatiald_snapshot_loads_total 1",
		"spatiald_snapshot_bytes_total 4096",
		"spatiald_snapshot_mmap_loads_total 1",
		"spatiald_snapshot_load_seconds_total 0.0015",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing metric line %q in:\n%s", want, out)
		}
	}
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.HTTPAddr == "" {
		cfg.HTTPAddr = "127.0.0.1:0"
	}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func httpGet(t *testing.T, client *http.Client, url string) (int, string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestHTTPEndpoints(t *testing.T) {
	s := startServer(t, Config{})
	base := "http://" + s.HTTPAddr().String()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	code, body := httpGet(t, client, base+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	// POST a gen, then GET a join: both paths hit the shared catalog.
	resp, err := client.Post(base+"/query", "application/json",
		strings.NewReader(`{"cmd": "gen water WATER 0.01"}`))
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || qr.Status != "ok" {
		t.Fatalf("POST gen = %d %+v", resp.StatusCode, qr)
	}
	if qr.Stats == nil || qr.Stats.Op != "gen" || qr.Stats.Results == 0 {
		t.Errorf("gen stats = %+v", qr.Stats)
	}

	resp, err = client.Post(base+"/query", "application/json",
		strings.NewReader(`{"cmd": "gen prism PRISM 0.01"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	code, body = httpGet(t, client, base+"/query?cmd=join+water+prism")
	if code != http.StatusOK {
		t.Fatalf("GET join = %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Status != "ok" || qr.Stats == nil || qr.Stats.Op != "join" || qr.Stats.Results == 0 {
		t.Errorf("join response = %+v", qr)
	}
	if !strings.Contains(qr.Output, "join: ") {
		t.Errorf("join output = %q", qr.Output)
	}

	// Hard errors are 400 with no stats.
	code, body = httpGet(t, client, base+"/query?cmd=join+nosuch+prism")
	if code != http.StatusBadRequest {
		t.Errorf("bad join = %d %s", code, body)
	}
	qr = QueryResponse{}
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Status != "error" || qr.Error == "" || qr.Stats != nil {
		t.Errorf("error response = %+v", qr)
	}

	code, _ = httpGet(t, client, base+"/query?cmd=")
	if code != http.StatusBadRequest {
		t.Errorf("empty cmd = %d", code)
	}

	code, body = httpGet(t, client, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "spatiald_commands_total") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if !strings.Contains(body, "spatiald_catalog_layers 2") {
		t.Errorf("metrics missing catalog gauge:\n%s", body)
	}
	// The degradation/governance metric families must always be exposed,
	// even when zero, so dashboards and alerts can rely on their presence.
	for _, name := range []string{
		"spatiald_sentinel_checks_total",
		"spatiald_sentinel_disagreements_total",
		"spatiald_breaker_trips_total",
		"spatiald_breaker_recoveries_total",
		"spatiald_breaker_open_skips_total",
		"spatiald_admission_queued",
		"spatiald_admission_shed_total",
		"spatiald_watchdog_active",
		"spatiald_watchdog_cancels_total",
		"spatiald_deadline_expirations_total",
	} {
		if !strings.Contains(body, name+" ") {
			t.Errorf("metrics missing %s:\n%s", name, body)
		}
	}
}

// TestHTTPOverload occupies every admission slot and checks the typed
// 503 rejection, then frees them and checks recovery.
func TestHTTPOverload(t *testing.T) {
	s := startServer(t, Config{MaxConcurrent: 2})
	base := "http://" + s.HTTPAddr().String()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	httpGet(t, client, base+"/query?cmd=gen+water+WATER+0.01")
	httpGet(t, client, base+"/query?cmd=gen+prism+PRISM+0.01")

	for i := 0; i < 2; i++ {
		if err := s.lim.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	code, body := httpGet(t, client, base+"/query?cmd=join+water+prism")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("overloaded join = %d %s", code, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Status != "overload" || !strings.Contains(qr.Error, "overloaded") {
		t.Errorf("overload response = %+v", qr)
	}
	// Admin commands bypass admission control even under full load.
	code, _ = httpGet(t, client, base+"/query?cmd=layers")
	if code != http.StatusOK {
		t.Errorf("layers under load = %d", code)
	}

	s.lim.release()
	s.lim.release()
	code, _ = httpGet(t, client, base+"/query?cmd=join+water+prism")
	if code != http.StatusOK {
		t.Errorf("join after slots freed = %d", code)
	}
	if got := s.Metrics().Overloads.Load(); got != 1 {
		t.Errorf("Overloads = %d, want 1", got)
	}
}

func TestHealthzDraining(t *testing.T) {
	s := startServer(t, Config{})
	base := "http://" + s.HTTPAddr().String()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The HTTP listener is closed by Shutdown, so /healthz may refuse the
	// connection entirely — both refusal and a 503 count as "not ready".
	resp, err := client.Get(base + "/healthz")
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("/healthz after shutdown = %d", resp.StatusCode)
		}
	}
}

func TestAccessLog(t *testing.T) {
	var mu sync.Mutex
	var sb strings.Builder
	logw := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(p)
	})
	s := startServer(t, Config{AccessLog: logw})
	base := "http://" + s.HTTPAddr().String()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	httpGet(t, client, base+"/query?cmd=gen+water+WATER+0.01")
	httpGet(t, client, base+"/query?cmd=select+water+POLYGON+((0+0,+500+0,+500+500,+0+500))")

	mu.Lock()
	out := sb.String()
	mu.Unlock()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines:\n%s", len(lines), out)
	}
	for _, want := range []string{"op=select", "status=ok", "candidates=", "hw_rejects=", "sw_fallbacks=", "panics=", "quarantined=", "remote="} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("log line missing %q: %s", want, lines[1])
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestDoubleStartAndShutdownIdempotent(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0"})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Error("second Start succeeded")
	}
	ctx := context.Background()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}
