package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

// handleQuery runs one command per request and answers it as JSON. Each
// request gets a fresh single-command engine over the shared catalog
// with the server's default settings, so HTTP callers are stateless
// peers of TCP sessions — same grammar, same admission control, same
// stats. A client that goes away cancels the command.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.metrics.HTTPRequests.Add(1)
	cmd, code, err := requestCommand(r)
	if err != nil {
		writeJSON(w, code, QueryResponse{Status: "error", Error: err.Error()})
		return
	}
	var buf bytes.Buffer
	o := s.run(s.newEngine(), command{line: cmd, remote: r.RemoteAddr, out: &buf, client: r.Context()})
	if o.refused {
		retryAfter(w, o.err)
		writeJSON(w, http.StatusServiceUnavailable, QueryResponse{Status: string(o.status), Error: o.err.Error()})
		return
	}
	resp := QueryResponse{Status: string(o.status), Output: buf.String(), Stats: &o.stats}
	code = http.StatusOK
	switch {
	case o.err != nil:
		resp.Error, resp.Stats, code = o.err.Error(), nil, http.StatusBadRequest
	case o.partial != nil:
		resp.Error = o.partial.Error()
	}
	// The response write is deadline-bounded like every other client-bound
	// write: a client that stopped reading must not pin the handler.
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
// flushed together with whatever the command wrote last. A client that
// goes away mid-stream cancels the command so its sinks wind down.
// Pre-execution failures (bad request, overload) still get proper HTTP
// status codes — once streaming starts the response is committed as 200
// and the trailing status line is authoritative.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.metrics.HTTPRequests.Add(1)
	cmd, code, err := requestCommand(r)
	if err != nil {
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	fw := &flushWriter{w: w, rc: http.NewResponseController(w), d: s.writeTimeout()}
	o := s.run(s.newEngine(), command{line: cmd, remote: r.RemoteAddr, out: fw, writer: &fw.sticky, client: r.Context()})
	if o.refused {
		retryAfter(w, o.err)
		http.Error(w, o.err.Error(), http.StatusServiceUnavailable)
		return
	}
	_, _ = fw.Write([]byte(o.statusLine() + "\n"))
	_ = fw.Flush()
}

// requestCommand reads the command of a /query or /stream request: the
// JSON body {"cmd": "..."} of a POST or the ?cmd= parameter of a GET. A
// request it cannot serve — a bad body, another method, a blank command —
// gets an error and the HTTP code to answer with.
func requestCommand(r *http.Request) (string, int, error) {
	var cmd string
	switch r.Method {
	case http.MethodPost:
		var body struct {
			Cmd string `json:"cmd"`
		}
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<24)).Decode(&body); err != nil {
			return "", http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
		}
		cmd = body.Cmd
	case http.MethodGet:
		cmd = r.URL.Query().Get("cmd")
	default:
		return "", http.StatusMethodNotAllowed, errors.New(`use GET ?cmd= or POST {"cmd": ...}`)
	}
	if shellcmd.Verb(cmd) == "" {
		return "", http.StatusBadRequest, errors.New("empty command")
	}
	return cmd, 0, nil
}

// retryAfter sets an admission refusal's Retry-After header from the
// overload's backoff hint, rounded up to whole seconds so the header
// never understates it (at least 1: a zero header means "retry now").
func retryAfter(w http.ResponseWriter, err error) {
	var oe *OverloadError
	if errors.As(err, &oe) && oe.RetryAfter > 0 {
		secs := max(int((oe.RetryAfter+time.Second-1)/time.Second), 1)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
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
	sticky
	w  io.Writer
	rc *http.ResponseController
	d  time.Duration // per-write deadline; 0 means unbounded
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
