package server

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"time"

	"repro/internal/faultinject"
)

// Wire protocol: on connect the server sends one greeting line
// ("spatiald ready"). The client then sends one command per line in the
// shellcmd grammar; the server answers with zero or more data lines —
// byte-identical to what the spatialdb shell would print — followed by
// exactly one status line:
//
//	ok                   command completed
//	partial: <reason>    query interrupted; data lines above are valid but incomplete
//	error: <reason>      hard failure (syntax, unknown layer, budget, overload); no results
//
// No data line ever begins with "ok", "partial:" or "error:", so clients
// frame responses by scanning for those prefixes. "quit" (or "exit")
// answers "ok" and closes the connection.
//
// Data lines stream, a batch at a time. Command output is appended to the
// connection's buffered writer and reaches the socket only when someone
// flushes:
//
//   - a streaming verb (shardselect, shardjoin, shardwithin, and the
//     coordinator's select/join/within) flushes once per batch its sink
//     emits, through the optional Flush() error of the io.Writer handed to
//     Exec, so a join's first rows arrive while refinement is still
//     running and a batch costs one socket write, not one per row;
//   - the session flushes once more with the status line, which therefore
//     shares a write with whatever the command wrote last (a stats line, a
//     summary);
//   - a verb that never flushes reaches the client in that one write, or
//     earlier in buffer-sized pieces if its output outgrows the buffer.
//
// Every socket write, explicit or buffer-full, arms the write deadline
// anew, so the deadline bounds one write, not a whole response. The
// framing is unchanged — data lines, then exactly one status line — and
// so are the bytes: only where they are cut into writes differs. A hard
// error still usually means "no results": the verbs validate before
// emitting, and the rare exception (every shard of a fan-out dying
// mid-stream) leaves valid-but-incomplete rows above an "error:" status.

// serveConn runs one TCP session. Any panic — an injected accept-site
// fault or a session-handler bug — is contained here: the connection
// closes, shared state (catalog, limiter, metrics) is untouched beyond
// already-completed commands, and no goroutine leaks.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	s.metrics.SessionsActive.Add(1)
	defer func() {
		_ = recover()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.metrics.SessionsActive.Add(-1)
	}()
	if inj := s.cfg.Faults; inj != nil {
		inj.Apply(faultinject.SiteServerAccept)
	}

	eng := s.newEngine()
	w := s.newConnWriter(conn)
	if w.line("spatiald ready") != nil {
		return
	}
	remote := conn.RemoteAddr().String()
	sever := func() { conn.Close() }
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<24)
	for {
		if s.draining() {
			_ = w.line("error: " + errShuttingDown.Error())
			return
		}
		if inj := s.cfg.Faults; inj != nil && inj.Disconnect(faultinject.SiteServerRead) {
			return
		}
		if !sc.Scan() {
			return // EOF, read error, or shutdown deadline
		}
		line := strings.TrimSpace(sc.Text())
		if line == "quit" || line == "exit" {
			_ = w.line("ok")
			return
		}
		// Output goes through w: batches reach the client while the
		// command is still running.
		o := s.run(eng, command{line: line, remote: remote, out: w, writer: &w.sticky, sever: sever})
		if w.line(o.statusLine()) != nil {
			return
		}
	}
}

// sessionBufSize is the connection's write buffer. It bounds what a
// session holds back between flushes and is sized so that a default
// batch of rows (256 of at most 47 bytes) and any summary fit without a
// buffer-full write in the middle.
const sessionBufSize = 16 << 10

// connWriter is a session's way to its client, and the io.Writer the
// session hands to Exec. Write appends to a buffer; the bytes reach the
// socket at Flush (streaming verbs call it once per emitted batch,
// through the optional Flush() error shellcmd looks for) and with the
// next protocol line. The write-site disconnect fault keeps striking per
// line, exactly as it did when every line was its own write. A socket
// error is sticky: it cancels the running command's context (winding
// streaming sinks down), fails every later call fast, and ends the
// session without a status line.
type connWriter struct {
	sticky
	faults *faultinject.Injector
	conn   net.Conn
	w      *bufio.Writer // over a deadlineWriter on conn
	open   bool          // the last byte written did not end a line
}

func (s *Server) newConnWriter(conn net.Conn) *connWriter {
	return &connWriter{
		faults: s.cfg.Faults,
		conn:   conn,
		w:      bufio.NewWriterSize(deadlineWriter{conn: conn, d: s.writeTimeout()}, sessionBufSize),
	}
}

// deadlineWriter arms the connection's write deadline before every
// socket write. Sitting under the bufio.Writer it sees each write the
// session causes, a buffer-full one in the middle of a Write included: a
// client that stops reading (without disconnecting) fails the write once
// its socket buffer fills, instead of pinning the session — and,
// mid-query, the admission slot — in a conn.Write that no context
// cancellation can unblock.
type deadlineWriter struct {
	conn net.Conn
	d    time.Duration // per-write deadline; 0 means unbounded
}

func (dw deadlineWriter) Write(p []byte) (int, error) {
	if dw.d > 0 {
		_ = dw.conn.SetWriteDeadline(time.Now().Add(dw.d))
	}
	return dw.conn.Write(p)
}

func (cw *connWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	if len(p) == 0 {
		return 0, nil
	}
	if cw.faults != nil {
		// One decision per line, as when lines were written one by one: a
		// strike delivers the lines before it and severs the connection —
		// the mid-response disconnect clients must survive.
		for end := 0; end < len(p); {
			i := bytes.IndexByte(p[end:], '\n')
			if i < 0 {
				break
			}
			if cw.faults.Disconnect(faultinject.SiteServerWrite) {
				_, _ = cw.w.Write(p[:end])
				_ = cw.w.Flush()
				cw.conn.Close()
				return end, cw.fail(net.ErrClosed)
			}
			end += i + 1
		}
	}
	n, err := cw.w.Write(p)
	if err != nil {
		return n, cw.fail(err)
	}
	cw.open = p[len(p)-1] != '\n'
	return n, nil
}

// Flush sends what is buffered in one socket write.
func (cw *connWriter) Flush() error {
	if cw.err != nil {
		return cw.err
	}
	if err := cw.w.Flush(); err != nil {
		return cw.fail(err)
	}
	return nil
}

// line sends one protocol line — greeting or status — together with
// everything buffered before it, first closing a data line the command
// left without its newline.
func (cw *connWriter) line(text string) error {
	if cw.open {
		_, _ = cw.Write([]byte{'\n'})
	}
	_, _ = cw.Write(append([]byte(text), '\n'))
	return cw.Flush()
}
