package server

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/query"
)

// preload binds the standard test layers directly into the catalog so
// fault tests can assert its integrity afterwards.
func preload(t *testing.T, s *Server) (water, prism *query.Layer) {
	t.Helper()
	water = testLayer(t, "WATER", e2eScale)
	prism = testLayer(t, "PRISM", e2eScale)
	if err := s.Catalog().Set("water", water); err != nil {
		t.Fatal(err)
	}
	if err := s.Catalog().Set("prism", prism); err != nil {
		t.Fatal(err)
	}
	return water, prism
}

// checkCatalogIntact verifies the shared catalog still serves exactly the
// layers published before the faults, and that a direct join over them
// still computes the correct result — the "no corruption" bar.
func checkCatalogIntact(t *testing.T, s *Server, water, prism *query.Layer, wantJoin int) {
	t.Helper()
	if got, ok := s.Catalog().Get("water"); !ok || got != water {
		t.Errorf("catalog lost or swapped layer water (ok=%v)", ok)
	}
	if got, ok := s.Catalog().Get("prism"); !ok || got != prism {
		t.Errorf("catalog lost or swapped layer prism (ok=%v)", ok)
	}
	a, _ := s.Catalog().Get("water")
	b, _ := s.Catalog().Get("prism")
	tester := core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold})
	pairs, _, err := query.IntersectionJoinView(context.Background(), a.(*query.Layer).View(), b.(*query.Layer).View(), tester, query.JoinOptions{})
	if err != nil || len(pairs) != wantJoin {
		t.Errorf("join over post-fault catalog = %d results, err %v; want %d",
			len(pairs), err, wantJoin)
	}
}

func directJoinCount(t *testing.T, a, b *query.Layer) int {
	t.Helper()
	tester := core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold})
	pairs, _, err := query.IntersectionJoinView(context.Background(), a.View(), b.View(), tester, query.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return len(pairs)
}

// TestFaultAcceptPanicContained arms a panic at the accept site: every
// session dies before greeting its client, yet the server keeps
// accepting, the catalog is untouched, and no goroutine leaks.
func TestFaultAcceptPanicContained(t *testing.T) {
	baseline := runtime.NumGoroutine()
	inj := faultinject.New(1).Inject(faultinject.SiteServerAccept, faultinject.KindPanic, 1)
	s := New(Config{Addr: "127.0.0.1:0", Faults: inj})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	water, prism := preload(t, s)
	wantJoin := directJoinCount(t, water, prism)

	for i := 0; i < 3; i++ {
		conn, err := net.DialTimeout("tcp", s.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		// The injected panic kills the session before the greeting; the
		// contained failure surfaces to the client as a clean close.
		buf := make([]byte, 64)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(buf); err == nil {
			t.Errorf("dial %d: read %q, want connection closed", i, buf[:n])
		}
		conn.Close()
	}
	if got := inj.Fired(faultinject.SiteServerAccept, faultinject.KindPanic); got != 3 {
		t.Errorf("accept panics fired = %d, want 3", got)
	}
	waitFor(t, "panicked sessions to unwind", func() bool {
		return s.Metrics().SessionsActive.Load() == 0
	})
	if got := s.Metrics().ConnsAccepted.Load(); got != 3 {
		t.Errorf("ConnsAccepted = %d, want 3 (accept loop must survive session panics)", got)
	}
	checkCatalogIntact(t, s, water, prism, wantJoin)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
}

// TestFaultQueryPanicContained arms a panic inside the refinement tester
// at every pair test. Every query verb that refines — select, join, pjoin
// — runs on the executor, which retries a panicking test on the software
// path, so each answers the unfaulted count on one live session, and the
// catalog is untouched. (A panic that escapes a command and kills its
// session is covered by TestFaultAcceptPanicContained.)
func TestFaultQueryPanicContained(t *testing.T) {
	baseline := runtime.NumGoroutine()
	inj := faultinject.New(1).Inject(faultinject.SiteIntersects, faultinject.KindPanic, 1)
	s := New(Config{Addr: "127.0.0.1:0", Faults: inj})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	water, prism := preload(t, s)
	wantJoin := directJoinCount(t, water, prism)
	qpoly, err := geom.ParsePolygonWKT(e2eQueryWKT)
	if err != nil {
		t.Fatal(err)
	}
	ids, _, err := query.IntersectionSelect(context.Background(), water, qpoly,
		core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold}), query.SelectionOptions{InteriorLevel: 4})
	if err != nil {
		t.Fatal(err)
	}

	c := dialWire(t, s.Addr().String())
	lines := c.mustOK(t, fmt.Sprintf("select water %s", e2eQueryWKT))
	if got := countFrom(t, lines, "select: %d results"); got != len(ids) {
		t.Errorf("select under panic faults = %d results, want %d", got, len(ids))
	}
	for _, verb := range []string{"join", "pjoin"} {
		lines := c.mustOK(t, verb+" water prism")
		if got := countFrom(t, lines, verb+": %d results"); got != wantJoin {
			t.Errorf("%s under panic faults = %d results, want %d", verb, got, wantJoin)
		}
	}
	c.mustOK(t, fmt.Sprintf("knn water %s 3", e2eQueryWKT))
	if inj.Fired(faultinject.SiteIntersects, faultinject.KindPanic) == 0 {
		t.Error("no intersects panic fired")
	}
	checkCatalogIntact(t, s, water, prism, wantJoin)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
}

// TestFaultMidResponseDisconnect arms disconnects at the write site: the
// server severs the connection partway through a response. The client
// observes a truncated exchange, never a malformed frame, and the server
// carries on.
func TestFaultMidResponseDisconnect(t *testing.T) {
	baseline := runtime.NumGoroutine()
	inj := faultinject.New(1).Inject(faultinject.SiteServerWrite, faultinject.KindDisconnect, 1)
	s := New(Config{Addr: "127.0.0.1:0", Faults: inj})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	water, prism := preload(t, s)
	wantJoin := directJoinCount(t, water, prism)

	// With every write faulted, the session dies on its greeting.
	conn, err := net.DialTimeout("tcp", s.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(buf); err == nil {
		t.Errorf("read %q from write-faulted session, want disconnect", buf[:n])
	}
	conn.Close()
	if inj.Fired(faultinject.SiteServerWrite, faultinject.KindDisconnect) == 0 {
		t.Error("no disconnect fault fired")
	}
	waitFor(t, "disconnected session to unwind", func() bool {
		return s.Metrics().SessionsActive.Load() == 0
	})
	checkCatalogIntact(t, s, water, prism, wantJoin)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
}

// TestFaultSlowClient arms delays at the read site (a slow client holding
// its session open). Commands still execute correctly — slowness is not
// an error — and the session's pace cannot starve a concurrent fast
// client, because admission is only held during refinement.
func TestFaultSlowClient(t *testing.T) {
	baseline := runtime.NumGoroutine()
	inj := faultinject.New(1).
		Inject(faultinject.SiteServerRead, faultinject.KindDelay, 1).
		SetDelay(10 * time.Millisecond)
	s := New(Config{Addr: "127.0.0.1:0", Faults: inj, MaxConcurrent: 2})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	water, prism := preload(t, s)
	wantJoin := directJoinCount(t, water, prism)

	slow := dialWire(t, s.Addr().String())
	fast := dialWire(t, s.Addr().String())
	lines := slow.mustOK(t, "join water prism hw")
	if got := countFrom(t, lines, "join: %d results"); got != wantJoin {
		t.Errorf("slow client join = %d, want %d", got, wantJoin)
	}
	lines = fast.mustOK(t, "join water prism sw")
	if got := countFrom(t, lines, "join: %d results"); got != wantJoin {
		t.Errorf("fast client join = %d, want %d", got, wantJoin)
	}
	if inj.Fired(faultinject.SiteServerRead, faultinject.KindDelay) == 0 {
		t.Error("no read delay fired")
	}
	checkCatalogIntact(t, s, water, prism, wantJoin)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
}
