package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/query"
	"repro/internal/shellcmd"
)

// QueryResponse is the JSON shape of POST/GET /query: the command's
// shell-identical text output, its terminal status, and the uniform
// per-query statistics record.
type QueryResponse struct {
	Status string       `json:"status"` // "ok", "partial", "error", "overload"
	Output string       `json:"output,omitempty"`
	Error  string       `json:"error,omitempty"`
	Stats  *query.Stats `json:"stats,omitempty"`
}

func (s *Server) httpHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/stream", s.handleStream)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g := Gauges{
		Admission:       s.lim.snapshot(),
		Layers:          s.catalog.Len(),
		WatchdogActive:  s.dog.active(),
		WatchdogCancels: s.dog.cancelCount(),
	}
	if s.cfg.Ingest != nil {
		t := s.cfg.Ingest.Totals()
		g.Ingest = &t
	}
	if s.cfg.Coordinator != nil {
		g.Shards = s.cfg.Coordinator.Health()
		t := s.cfg.Coordinator.Totals()
		g.Failover = &t
	}
	s.metrics.WritePrometheus(w, g)
}

// handleQuery runs one command per request: the cmd string comes from a
// JSON body {"cmd": "..."} on POST or the ?cmd= parameter on GET. Each
// request gets a fresh single-command engine over the shared catalog
// with the server's default settings, so HTTP callers are stateless
// peers of TCP sessions — same grammar, same admission control, same
// stats.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.metrics.HTTPRequests.Add(1)
	var cmd string
	switch r.Method {
	case http.MethodPost:
		var body struct {
			Cmd string `json:"cmd"`
		}
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<24)).Decode(&body); err != nil {
			writeJSON(w, http.StatusBadRequest, QueryResponse{Status: "error", Error: "bad request body: " + err.Error()})
			return
		}
		cmd = body.Cmd
	case http.MethodGet:
		cmd = r.URL.Query().Get("cmd")
	default:
		writeJSON(w, http.StatusMethodNotAllowed, QueryResponse{Status: "error", Error: "use GET ?cmd= or POST {\"cmd\": ...}"})
		return
	}
	verb := shellcmd.Verb(cmd)
	if verb == "" {
		writeJSON(w, http.StatusBadRequest, QueryResponse{Status: "error", Error: "empty command"})
		return
	}

	start := time.Now()
	if shellcmd.IsQuery(verb) {
		if err := s.lim.acquire(s.baseCtx); err != nil {
			st := query.Stats{Op: verb}
			status := StatusError
			var oe *OverloadError
			if errors.As(err, &oe) {
				status = StatusOverload
				if oe.RetryAfter > 0 {
					w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(oe.RetryAfter)))
				}
			}
			s.metrics.observe(st, status, time.Since(start))
			s.logCommand(r.RemoteAddr, st, status, time.Since(start))
			writeJSON(w, http.StatusServiceUnavailable, QueryResponse{Status: string(status), Error: err.Error()})
			return
		}
		defer s.lim.release()
	}

	// The command context follows server shutdown (baseCtx), the client
	// going away (request context), and — for query verbs — the session
	// watchdog, whose stuck-query cause flows into the partial result.
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	defer cancel(nil)
	stop := context.AfterFunc(r.Context(), func() { cancel(nil) })
	defer stop()
	if shellcmd.IsQuery(verb) && s.dog.enabled() {
		id := s.dog.register(verb, cancel, nil)
		defer s.dog.deregister(id)
	}

	eng := s.newEngine()
	var buf bytes.Buffer
	res, err := eng.Exec(ctx, cmd, &buf)

	st := res.Stats
	if st.Op == "" {
		st.Op = verb
	}
	dur := time.Since(start)
	resp := QueryResponse{Status: string(StatusOK), Output: buf.String(), Stats: &st}
	code := http.StatusOK
	status := StatusOK
	switch {
	case err != nil:
		status = StatusError
		resp.Status = string(StatusError)
		resp.Error = err.Error()
		resp.Stats = nil
		code = http.StatusBadRequest
	case res.Partial != nil:
		status = StatusPartial
		resp.Status = string(StatusPartial)
		resp.Error = res.Partial.Error()
		s.metrics.observeFailure(res.Partial)
	}
	s.metrics.observe(st, status, dur)
	s.logCommand(r.RemoteAddr, st, status, dur)
	// The response write is deadline-bounded like every other client-bound
	// write: a client that stopped reading must not pin the handler (and,
	// for query verbs, the admission slot held until this handler returns).
	if d := s.writeTimeout(); d > 0 {
		_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(d))
	}
	writeJSON(w, code, resp)
}

// handleStream is /query's streaming sibling: it runs one command and
// delivers the output as a chunked plain-text stream in the TCP wire
// framing and under the TCP session's flush contract — data lines
// flushed to the client once per batch the command emits, then exactly
// one status line ("ok" / "partial: <reason>" / "error: <reason>")
// flushed together with whatever the command wrote last. Admission
// control, watchdog coverage, and metrics match /query; a client that
// goes away mid-stream cancels the command so its sinks wind down. Pre-execution failures (bad request,
// overload) still get proper HTTP status codes — once streaming starts
// the response is committed as 200 and the trailing status line is
// authoritative.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.metrics.HTTPRequests.Add(1)
	var cmd string
	switch r.Method {
	case http.MethodPost:
		var body struct {
			Cmd string `json:"cmd"`
		}
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<24)).Decode(&body); err != nil {
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		cmd = body.Cmd
	case http.MethodGet:
		cmd = r.URL.Query().Get("cmd")
	default:
		http.Error(w, "use GET ?cmd= or POST {\"cmd\": ...}", http.StatusMethodNotAllowed)
		return
	}
	verb := shellcmd.Verb(cmd)
	if verb == "" {
		http.Error(w, "empty command", http.StatusBadRequest)
		return
	}

	start := time.Now()
	if shellcmd.IsQuery(verb) {
		if err := s.lim.acquire(s.baseCtx); err != nil {
			st := query.Stats{Op: verb}
			status := StatusError
			var oe *OverloadError
			if errors.As(err, &oe) {
				status = StatusOverload
				if oe.RetryAfter > 0 {
					w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(oe.RetryAfter)))
				}
			}
			s.metrics.observe(st, status, time.Since(start))
			s.logCommand(r.RemoteAddr, st, status, time.Since(start))
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		defer s.lim.release()
	}

	ctx, cancel := context.WithCancelCause(s.baseCtx)
	defer cancel(nil)
	stop := context.AfterFunc(r.Context(), func() { cancel(nil) })
	defer stop()
	if shellcmd.IsQuery(verb) && s.dog.enabled() {
		id := s.dog.register(verb, cancel, nil)
		defer s.dog.deregister(id)
	}

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	fw := &flushWriter{w: w, rc: http.NewResponseController(w), d: s.writeTimeout(), cancel: cancel}
	eng := s.newEngine()
	res, err := eng.Exec(ctx, cmd, fw)

	st := res.Stats
	if st.Op == "" {
		st.Op = verb
	}
	status, statusLine := StatusOK, "ok"
	switch {
	case err != nil:
		status, statusLine = StatusError, "error: "+err.Error()
	case res.Partial != nil:
		status, statusLine = StatusPartial, "partial: "+res.Partial.Error()
		s.metrics.observeFailure(res.Partial)
	}
	dur := time.Since(start)
	s.metrics.observe(st, status, dur)
	s.logCommand(r.RemoteAddr, st, status, dur)
	_, _ = fw.Write([]byte(statusLine + "\n"))
	_ = fw.Flush()
}

// flushWriter streams Exec output over an HTTP response: Write appends
// to the response's buffer, Flush — called by streaming verbs once per
// emitted batch, and by the handler with the status line — pushes it to
// the client through the chunked encoder. A failed write or flush — the
// client hung up — is sticky and cancels the running command. Write and
// Flush each arm the write deadline anew (http.Server has no per-flush
// WriteTimeout, and a Write that outgrows the buffer reaches the socket
// too), so a client that merely stops reading fails the stream instead
// of pinning the handler and its admission slot in a write the context
// cancel cannot unblock.
type flushWriter struct {
	w      io.Writer
	rc     *http.ResponseController
	d      time.Duration // per-write deadline; 0 means unbounded
	cancel context.CancelCauseFunc
	err    error
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	if fw.err != nil {
		return 0, fw.err
	}
	fw.arm()
	n, err := fw.w.Write(p)
	if err != nil {
		return n, fw.fail(err)
	}
	return n, nil
}

func (fw *flushWriter) Flush() error {
	if fw.err != nil {
		return fw.err
	}
	fw.arm()
	if err := fw.rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return fw.fail(err)
	}
	return nil
}

func (fw *flushWriter) arm() {
	if fw.d > 0 {
		// ErrNotSupported (a recording ResponseWriter in tests) just means
		// no deadline; real server connections support it.
		_ = fw.rc.SetWriteDeadline(time.Now().Add(fw.d))
	}
}

func (fw *flushWriter) fail(err error) error {
	fw.err = err
	fw.cancel(err)
	return err
}

// retryAfterSeconds converts an OverloadError's backoff hint to the
// whole-second Retry-After header value, rounding up so the header never
// understates the hint (minimum 1s: a zero header means "retry now").
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
