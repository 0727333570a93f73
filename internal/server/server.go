package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/faultinject"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/shellcmd"
)

// Config controls a Server. The zero value serves the TCP wire protocol
// on an ephemeral port with GOMAXPROCS admission slots and no HTTP
// listener.
type Config struct {
	// Addr is the TCP wire-protocol listen address; "" means ":0"
	// (ephemeral, for tests and embedding).
	Addr string
	// HTTPAddr is the HTTP listen address for /query, /metrics and
	// /healthz; "" disables the HTTP listener.
	HTTPAddr string

	// MaxConcurrent bounds refinement-running queries across all
	// sessions (the admission semaphore); 0 means GOMAXPROCS.
	MaxConcurrent int
	// QueueWait is how long an over-limit query may wait for a slot
	// before the typed overload rejection; 0 rejects immediately.
	QueueWait time.Duration
	// MaxQueue bounds the admission wait queue; arrivals beyond it are
	// shed immediately with a retry-after hint. 0 means 4×MaxConcurrent
	// (ignored when QueueWait is 0: no queue forms).
	MaxQueue int
	// MaxLayers bounds the shared catalog; 0 means 64.
	MaxLayers int

	// DefaultTimeout seeds each session's timeout setting (sessions may
	// change it with the timeout command); 0 means none.
	DefaultTimeout time.Duration
	// QueryTimeout is the server-imposed ceiling on every query's
	// wall-clock budget: sessions may set tighter timeouts but cannot
	// escape it. Expiry yields partial results with a typed
	// *query.DeadlineError. 0 means no ceiling.
	QueryTimeout time.Duration
	// WatchdogTimeout is the stuck-query threshold: a query running
	// longer is cancelled at the threshold by its stuck-query timer
	// (cause *StuckQueryError) and its admission slot reclaimed. It
	// should comfortably exceed QueryTimeout; 0 disables the watchdog.
	WatchdogTimeout time.Duration
	// WriteTimeout bounds every client-bound write+flush (wire-protocol
	// lines and HTTP stream chunks). A client that stops reading without
	// disconnecting would otherwise block the session in conn.Write once
	// the socket buffer fills — where context cancellation cannot reach —
	// pinning the query goroutine and its admission slot; with the
	// deadline the write fails, the command context cancels, and the
	// slot frees. 0 means 30s; negative disables the bound.
	//
	//reach:keep TestSendWriteDeadlineUnblocksStalledClient stalls a client against a 50 ms bound; at the 30 s default it fails its 5 s limit
	WriteTimeout time.Duration
	// DefaultBudget seeds each session's candidate budget; 0 means
	// unlimited.
	DefaultBudget int

	// DataDir is where sessions' save and load commands resolve bare
	// snapshot names (shellcmd.Engine.DataDir); "" leaves paths as given.
	DataDir string

	// DrainGrace is how long graceful shutdown lets in-flight queries
	// finish naturally before cancelling them into partial results;
	// 0 means 250ms. Negative cancels immediately.
	DrainGrace time.Duration

	// AccessLog receives one structured line per executed command; nil
	// keeps no log, and no line is formatted.
	AccessLog io.Writer

	// Faults arms fault injection for resilience tests: the server
	// protocol sites (accept delay/panic, slow reads, mid-response
	// disconnects) and the refinement testers built for each command
	// (so injected query-path faults exercise the serving layer's
	// containment). Nil in production.
	Faults *faultinject.Injector

	// Ingest, when non-nil, enables the durable ingestion verbs (live,
	// insert, delete, compact) on every session: live tables bind into
	// the shared catalog next to plain layers, and the manager's
	// durability totals are exported as wal_*/compaction_* metrics. The
	// caller owns the manager's lifecycle (Close after Shutdown).
	Ingest *ingest.Manager

	// Coordinator, when non-nil, turns this spatiald into the scatter-
	// gather front of a sharded fleet: every session's query verbs fan
	// out over the shards (internal/coord) under the same admission
	// control, deadline ceiling, and watchdog as local queries, and the
	// per-shard breaker health is exported under spatiald_shard_*. The
	// caller owns the coordinator's lifecycle (Close after Shutdown).
	Coordinator *coord.Coordinator
}

// Server is a spatiald instance: listeners, shared catalog, admission
// control, metrics, and the session set.
type Server struct {
	cfg     Config
	catalog *Catalog
	lim     *limiter
	metrics *Metrics
	dog     stuckQueries

	// baseCtx parents every command context; cancelled to force
	// in-flight queries into partial results during shutdown.
	baseCtx context.Context
	cancel  context.CancelFunc

	ln      net.Listener
	httpSrv *http.Server
	httpLn  net.Listener

	wg    sync.WaitGroup
	logMu sync.Mutex

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	started  bool
	shutdown chan struct{}
}

// New builds an unstarted server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = ":0"
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxLayers == 0 {
		cfg.MaxLayers = 64
	}
	if cfg.DrainGrace == 0 {
		cfg.DrainGrace = 250 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:      cfg,
		catalog:  NewCatalog(cfg.MaxLayers),
		lim:      newLimiter(cfg.MaxConcurrent, cfg.QueueWait, cfg.MaxQueue),
		metrics:  newMetrics(),
		baseCtx:  ctx,
		cancel:   cancel,
		conns:    map[net.Conn]struct{}{},
		shutdown: make(chan struct{}),
	}
}

// Catalog exposes the shared layer catalog, e.g. for preloading layers
// before Start.
func (s *Server) Catalog() *Catalog { return s.catalog }

// Metrics exposes the server's counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Start opens the configured listeners and begins serving. It returns
// once listening (use Addr / HTTPAddr for the bound addresses); serving
// continues until Shutdown.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("server: already started")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	if s.cfg.HTTPAddr != "" {
		hln, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("server: listen http %s: %w", s.cfg.HTTPAddr, err)
		}
		s.httpLn = hln
		s.httpSrv = &http.Server{Handler: s.httpHandler()}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			// Serve returns ErrServerClosed on Shutdown; other errors
			// mean the listener died, which shutdown will surface by the
			// connection refusals that follow.
			_ = s.httpSrv.Serve(hln)
		}()
	}
	s.started = true
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound wire-protocol address (nil before Start).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// HTTPAddr returns the bound HTTP address (nil when HTTP is disabled).
func (s *Server) HTTPAddr() net.Addr {
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			// Listener closed (shutdown) or a transient accept error;
			// either way, stop on closure and retry otherwise.
			select {
			case <-s.shutdown:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.metrics.ConnsAccepted.Add(1)
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// writeTimeout resolves the per-write deadline for client-bound output;
// zero means unbounded (explicitly disabled with a negative config).
func (s *Server) writeTimeout() time.Duration {
	switch {
	case s.cfg.WriteTimeout > 0:
		return s.cfg.WriteTimeout
	case s.cfg.WriteTimeout < 0:
		return 0
	}
	return 30 * time.Second
}

func (s *Server) draining() bool {
	select {
	case <-s.shutdown:
		return true
	default:
		return false
	}
}

// Shutdown gracefully stops the server: listeners close, idle sessions
// end, in-flight queries get DrainGrace to finish naturally and are then
// cancelled so their partial results flow back to clients (PartialError
// semantics), and all session goroutines are reaped. ctx bounds the
// whole wait; on expiry remaining connections are severed. Shutdown is
// idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return errors.New("server: not started")
	}
	select {
	case <-s.shutdown:
		s.mu.Unlock()
		return nil
	default:
	}
	close(s.shutdown)
	if s.ln != nil {
		s.ln.Close()
	}
	// Unblock sessions parked in Read: the past deadline fails pending
	// and future reads, while in-flight command execution and response
	// writes proceed.
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	httpSrv := s.httpSrv
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()

	if s.cfg.DrainGrace > 0 {
		t := time.NewTimer(s.cfg.DrainGrace)
		select {
		case <-done:
			t.Stop()
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	// Cancel what's still running: queries return their partial results,
	// sessions write them and exit.
	s.cancel()
	if httpSrv != nil {
		_ = httpSrv.Shutdown(ctx)
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// newEngine builds a per-session (or per-HTTP-request) command engine
// over the shared catalog with the server's default settings. With
// faults configured, the engine's testers carry the injector so query-
// path faults strike inside served commands.
func (s *Server) newEngine() *shellcmd.Engine {
	return &shellcmd.Engine{
		Store: s.catalog,
		Settings: shellcmd.Settings{
			Timeout:    s.cfg.DefaultTimeout,
			MaxTimeout: s.cfg.QueryTimeout,
			Budget:     s.cfg.DefaultBudget,
		},
		Faults:  s.cfg.Faults,
		DataDir: s.cfg.DataDir,
		Live:    s.cfg.Ingest,
		Coord:   s.cfg.Coordinator,
	}
}

// command is one line a transport hands to run, with what the transport
// adds to it.
type command struct {
	line   string
	remote string    // the client's address, for the access log
	out    io.Writer // where Exec writes
	// writer, when set, is out's failure state: a failed write cancels
	// the command, so streaming sinks wind down instead of refining for
	// a dead client.
	writer *sticky
	// client, when set, is a request context whose end (the client went
	// away) cancels the command.
	client context.Context
	// sever, when set, is the stuck-query escalation for a query its
	// kill did not dislodge: closing the client connection unblocks a
	// write the cancel cannot reach.
	sever func()
}

// outcome is how a command ended.
type outcome struct {
	stats   query.Stats // the command's record, Op defaulted to its verb
	partial *query.PartialError
	status  Status
	err     error // Exec's error, or the admission refusal
	refused bool  // admission turned the command away: Exec never ran
}

// statusLine is the outcome's terminal wire line.
func (o outcome) statusLine() string {
	switch {
	case o.err != nil:
		return "error: " + o.err.Error()
	case o.partial != nil:
		return "partial: " + o.partial.Error()
	}
	return "ok"
}

// run executes one command end to end, the same for every transport:
// admission control for query verbs, a context that shutdown (baseCtx),
// a failed write and a departed client cancel, the stuck-query timers,
// Exec into c.out, status classification, metrics and the access log. It
// writes nothing of its own: each transport frames the outcome. A blank
// or comment line runs nothing and is neither counted nor logged.
//
// The deferred release keeps a panicking Exec — contained by the
// transport's recover — from leaking its admission slot, and the deferred
// disarm stops the stuck-query timers on every exit.
func (s *Server) run(eng *shellcmd.Engine, c command) outcome {
	start := time.Now()
	verb := shellcmd.Verb(c.line)
	o := outcome{stats: query.Stats{Op: verb}, status: StatusOK}
	if verb == "" || strings.HasPrefix(verb, "#") {
		return o
	}
	isQuery := shellcmd.IsQuery(verb)
	if isQuery {
		if err := s.lim.acquire(s.baseCtx); err != nil {
			o.status, o.err, o.refused = StatusError, err, true
			var oe *OverloadError
			if errors.As(err, &oe) {
				o.status = StatusOverload
			}
		}
	}
	if !o.refused {
		// The slot and the context last only as long as Exec.
		res, err := func() (shellcmd.Result, error) {
			if isQuery {
				defer s.lim.release()
			}
			ctx, cancel := context.WithCancelCause(s.baseCtx)
			defer cancel(nil)
			if c.client != nil {
				defer context.AfterFunc(c.client, func() { cancel(nil) })()
			}
			if c.writer != nil {
				c.writer.cancel = cancel
				defer func() { c.writer.cancel = nil }()
			}
			if isQuery && s.cfg.WatchdogTimeout > 0 {
				defer s.dog.arm(s.cfg.WatchdogTimeout, verb, cancel, c.sever)()
			}
			return eng.Exec(ctx, c.line, c.out)
		}()
		o.stats, o.partial, o.err = res.Stats, res.Partial, err
		if o.stats.Op == "" {
			o.stats.Op = verb
		}
		switch {
		case err != nil:
			o.status = StatusError
		case res.Partial != nil:
			o.status = StatusPartial
			s.metrics.observeFailure(res.Partial)
		}
	}
	dur := time.Since(start)
	s.metrics.observe(o.stats, o.status, dur)
	s.logCommand(c.remote, o.stats, o.status, dur)
	return o
}

// logCommand writes one structured access-log line. The log writer is
// shared by all sessions, so writes are serialized; without a log it
// returns before the lock and the formatting.
func (s *Server) logCommand(remote string, st query.Stats, status Status, dur time.Duration) {
	if s.cfg.AccessLog == nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	fmt.Fprintf(s.cfg.AccessLog,
		"time=%s remote=%s op=%s status=%s dur=%s results=%d candidates=%d tests=%d hw_rejects=%d sw_fallbacks=%d panics=%d quarantined=%d\n",
		time.Now().UTC().Format(time.RFC3339Nano), remote, st.Op, status,
		dur.Round(time.Microsecond), st.Results, st.Candidates, st.Tests,
		st.HWRejects, st.SWFallbacks(), st.Panics, st.Quarantined)
}

// sticky is a client writer's failure state: the first write error is
// kept, returned by every later call, and cancels the running command.
type sticky struct {
	err    error
	cancel context.CancelCauseFunc // the running command's; nil between commands
}

func (st *sticky) fail(err error) error {
	st.err = err
	if st.cancel != nil {
		st.cancel(err)
	}
	return err
}
