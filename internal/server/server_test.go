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

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ingest"
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
	// Shutdown (the base context ending) beats the grace timer.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.acquire(ctx); !errors.Is(err, errShuttingDown) {
		t.Errorf("cancelled acquire: err = %v", err)
	}
}

func TestMetricsPrometheus(t *testing.T) {
	m := newMetrics()
	m.ConnsAccepted.Add(3)
	m.SessionsActive.Add(2)
	m.HTTPRequests.Add(4)
	m.observe(query.Stats{Op: "join", Candidates: 100, Stats: core.Stats{Tests: 80, HWRejects: 60,
		HWPassed: 9, HWFallbacks: 2, Panics: 3, Quarantined: 1, EdgeIndexHits: 11, EdgeIndexSkippedEdges: 500,
		IntervalChecks: 70, IntervalTrueHits: 20, IntervalRejects: 15, IntervalInconclusive: 35}},
		StatusOK, time.Second)
	m.observe(query.Stats{Op: "join"}, StatusPartial, time.Millisecond)
	m.observe(query.Stats{Op: "select"}, StatusError, 0)
	m.observe(query.Stats{Op: "pjoin"}, StatusOverload, 0)

	m.observe(query.Stats{Op: "join"}, StatusOK, 0)
	m.observe(query.Stats{Op: "load", Stats: core.Stats{SigChecks: 30, SigRejects: 12},
		SnapshotBytes: 4096, SnapshotSections: 7, SnapshotMMap: true, SnapshotLoadMS: 1.5}, StatusOK, 0)
	m.observe(query.Stats{Op: "load", SnapshotBytes: 1024, SnapshotSections: 7, SnapshotLoadMS: 0.25}, StatusOK, 0)
	m.observe(query.Stats{Op: "shardjoin", Candidates: 50, Stats: core.Stats{Tests: 5, HWPassed: 1},
		PipelineBatches: 4, PipelineFilterNS: 2_500_000_000, PipelineRefineNS: 500_000_000,
		PipelineQueueDepth: 5, StreamRowsEmitted: 33, LiveDelta: 6, LiveTombstones: 2}, StatusOK, 0)
	m.observe(query.Stats{Op: "shardselect", PipelineBatches: 1, PipelineQueueDepth: 3, StreamRowsEmitted: 4,
		LiveDelta: 1}, StatusPartial, 0)
	m.observeFailure(&query.PartialError{Op: "join", Err: &query.DeadlineError{Budget: time.Second}})

	var sb strings.Builder
	m.WritePrometheus(&sb, Gauges{
		Admission: AdmissionStats{InFlight: 2, Queued: 3, Admitted: 9, Shed: 4,
			Timeouts: 1, WaitNanos: int64(time.Second / 2)},
		Layers:          5,
		WatchdogActive:  1,
		WatchdogCancels: 6,
		Shards: []coord.Health{
			{Tile: 0, Replica: 0, Role: "primary", Addr: "127.0.0.1:1", State: "closed", Queries: 12, IdleConn: 2},
			{Tile: 1, Replica: 1, Role: "replica", Addr: "127.0.0.1:2", State: coord.BreakerOpen, Open: true,
				Fails: 5, ConsecFails: 3, Queries: 8},
			{Tile: 2, Replica: 0, Role: "primary", Addr: "127.0.0.1:3", State: coord.BreakerHalfOpen, Fails: 1},
		},
		Failover: &coord.Totals{Retries: 2, Probes: 10, ProbeFails: 4},
		Ingest: &ingest.Totals{Tables: 1, Objects: 200, Pending: 7, Inserts: 210, Deletes: 10, NotFound: 1,
			WALAppends: 220, WALBatches: 40, WALBytes: 65536, WALRotations: 2, WALSegments: 3,
			WALTruncated: 1, WALRecovered: 5, WALTornBytes: 17, Compactions: 4, CompactMS: 250,
			CompactedFolded: 150},
	})
	// Uptime is the one series that depends on the clock.
	out := sb.String()
	uptime, rest, ok := strings.Cut(out, "\n")
	if !ok || !strings.HasPrefix(uptime, "spatiald_uptime_seconds ") {
		t.Fatalf("first line %q is not the uptime", uptime)
	}
	if rest != metricsGolden {
		t.Errorf("exposition differs from the golden:\n%s", lineDiff(metricsGolden, rest))
	}
}

// metricsGolden is TestMetricsPrometheus's exposition after the uptime
// line: every series, in order, for records that set every counter of
// the query record the server exports.
const metricsGolden = `spatiald_connections_accepted_total 3
spatiald_sessions_active 2
spatiald_http_requests_total 4
spatiald_commands_total 9
spatiald_queries_total{status="ok"} 5
spatiald_queries_total{status="partial"} 2
spatiald_queries_total{status="error"} 1
spatiald_queries_total{status="overload"} 1
spatiald_query_seconds_total 1.001
spatiald_queries_in_flight 2
spatiald_admission_queued 3
spatiald_admission_admitted_total 9
spatiald_admission_shed_total 4
spatiald_admission_timeouts_total 1
spatiald_admission_wait_seconds_total 0.5
spatiald_watchdog_active 1
spatiald_watchdog_cancels_total 6
spatiald_deadline_expirations_total 1
spatiald_catalog_layers 5
spatiald_refine_candidates_total 150
spatiald_refine_tests_total 85
spatiald_refine_hw_rejects_total 60
spatiald_refine_sw_fallbacks_total 12
spatiald_refine_panics_total 3
spatiald_refine_quarantined_total 1
spatiald_refine_edge_index_hits_total 11
spatiald_refine_edge_index_skipped_edges_total 500
spatiald_refine_sig_checks_total 30
spatiald_refine_sig_rejects_total 12
spatiald_refine_interval_checks_total 70
spatiald_refine_interval_true_hits_total 20
spatiald_refine_interval_rejects_total 15
spatiald_refine_interval_inconclusive_total 35
spatiald_snapshot_loads_total 2
spatiald_snapshot_bytes_total 5120
spatiald_snapshot_mmap_loads_total 1
spatiald_snapshot_load_seconds_total 0.00175
spatiald_live_delta_objects_total 7
spatiald_live_tombstones_total 2
spatiald_pipeline_batches_total 5
spatiald_pipeline_filter_seconds_total 2.5
spatiald_pipeline_refine_seconds_total 0.5
spatiald_pipeline_queue_depth_max 5
spatiald_stream_rows_emitted_total 37
spatiald_shard_up{tile="0",replica="0",role="primary",addr="127.0.0.1:1"} 1
spatiald_shard_breaker_state{tile="0",replica="0"} 0
spatiald_shard_consecutive_failures{tile="0",replica="0"} 0
spatiald_shard_queries_total{tile="0",replica="0"} 12
spatiald_shard_failures_total{tile="0",replica="0"} 0
spatiald_shard_idle_connections{tile="0",replica="0"} 2
spatiald_shard_up{tile="1",replica="1",role="replica",addr="127.0.0.1:2"} 0
spatiald_shard_breaker_state{tile="1",replica="1"} 2
spatiald_shard_consecutive_failures{tile="1",replica="1"} 3
spatiald_shard_queries_total{tile="1",replica="1"} 8
spatiald_shard_failures_total{tile="1",replica="1"} 5
spatiald_shard_idle_connections{tile="1",replica="1"} 0
spatiald_shard_up{tile="2",replica="0",role="primary",addr="127.0.0.1:3"} 1
spatiald_shard_breaker_state{tile="2",replica="0"} 1
spatiald_shard_consecutive_failures{tile="2",replica="0"} 0
spatiald_shard_queries_total{tile="2",replica="0"} 0
spatiald_shard_failures_total{tile="2",replica="0"} 1
spatiald_shard_idle_connections{tile="2",replica="0"} 0
spatiald_failover_retries_total 2
spatiald_probe_checks_total 10
spatiald_probe_failures_total 4
spatiald_ingest_tables 1
spatiald_ingest_objects 200
spatiald_ingest_pending 7
spatiald_ingest_inserts_total 210
spatiald_ingest_deletes_total 10
spatiald_ingest_not_found_total 1
spatiald_wal_appends_total 220
spatiald_wal_batches_total 40
spatiald_wal_bytes_total 65536
spatiald_wal_rotations_total 2
spatiald_wal_segments 3
spatiald_wal_truncated_segments_total 1
spatiald_wal_recovered_records_total 5
spatiald_wal_torn_bytes_total 17
spatiald_compaction_runs_total 4
spatiald_compaction_seconds_total 0.25
spatiald_compaction_folded_total 150
`

// lineDiff lists the lines where want and got differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&sb, "line %d: want %q, got %q\n", i+2, wl, gl)
		}
	}
	return sb.String()
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

// TestNoAccessLogFormatsNothing: a server without an access log neither
// takes the log lock nor formats a line — logging a command allocates
// nothing, it returns while another holds the lock, and a cheap command
// run end to end allocates less than on a server logging to io.Discard.
func TestNoAccessLogFormatsNothing(t *testing.T) {
	quiet, discard := New(Config{}), New(Config{AccessLog: io.Discard})
	st := query.Stats{Op: "select", Results: 3}
	if n := testing.AllocsPerRun(100, func() { quiet.logCommand("127.0.0.1:1", st, StatusOK, time.Millisecond) }); n != 0 {
		t.Errorf("logging without a log allocates %.1f times, want 0", n)
	}
	quiet.logMu.Lock()
	done := make(chan struct{})
	go func() {
		quiet.logCommand("127.0.0.1:1", st, StatusOK, time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("logging without a log waits for the log lock")
	}
	quiet.logMu.Unlock()
	<-done

	runs := func(s *Server) float64 {
		eng := s.newEngine()
		return testing.AllocsPerRun(100, func() {
			if o := s.run(eng, command{line: "budget off", remote: "127.0.0.1:1", out: io.Discard}); o.err != nil {
				t.Fatal(o.err)
			}
		})
	}
	if q, d := runs(quiet), runs(discard); q >= d {
		t.Errorf("a command allocates %.1f times without a log, %.1f logging to io.Discard: want fewer", q, d)
	}
}

// TestCommentLinesAreNoOps sends a comment line over TCP, /query (GET
// and POST) and /stream: each answers ok, and none is counted or logged.
// A blank HTTP command stays a 400.
func TestCommentLinesAreNoOps(t *testing.T) {
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

	if lines := dialWire(t, s.Addr().String()).mustOK(t, "# a comment"); len(lines) != 0 {
		t.Errorf("TCP comment printed %q", lines)
	}
	code, body := httpGet(t, client, base+"/query?cmd=%23x")
	var qr QueryResponse
	if err := json.Unmarshal([]byte(body), &qr); err != nil || code != http.StatusOK || qr.Status != "ok" || qr.Output != "" {
		t.Errorf("/query comment = %d %s (%v)", code, body, err)
	}
	resp, err := client.Post(base+"/query", "application/json", strings.NewReader(`{"cmd": "# x"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST /query comment = %d", resp.StatusCode)
	}
	if code, body := httpGet(t, client, base+"/stream?cmd=%23x"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("/stream comment = %d %q", code, body)
	}
	for _, url := range []string{base + "/query?cmd=", base + "/query?cmd=+", base + "/stream?cmd="} {
		if code, body := httpGet(t, client, url); code != http.StatusBadRequest {
			t.Errorf("%s = %d %s, want 400", url, code, body)
		}
	}

	m := s.Metrics()
	if n, ok := m.Commands.Load(), m.QueriesOK.Load(); n != 0 || ok != 0 {
		t.Errorf("comments counted: %d commands, %d ok", n, ok)
	}
	mu.Lock()
	defer mu.Unlock()
	if sb.Len() != 0 {
		t.Errorf("comments logged:\n%s", sb.String())
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
