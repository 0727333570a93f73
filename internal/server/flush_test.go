package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/data"
	"repro/internal/faultinject"
	"repro/internal/partition"
	"repro/internal/query"
	"repro/internal/store"
)

// The flush contract: a batch is the unit of delivery. These tests count
// socket writes from under the session, compare the response bytes with
// an in-process Exec, and check that batching did not cost the first
// rows their head start.

// countingConn records every Write the session issues on its connection.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *countingConn) snapshot() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

// serveCounted runs one session of s over a loopback TCP pair whose
// server side counts its writes, and returns the client side past the
// greeting.
func serveCounted(t *testing.T, s *Server) (*countingConn, *wireClient) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: srv}
	s.wg.Add(1)
	go s.serveConn(cc)
	t.Cleanup(func() {
		client.Close()
		s.wg.Wait()
	})
	c := &wireClient{conn: client, r: bufio.NewReader(client)}
	client.SetReadDeadline(time.Now().Add(60 * time.Second))
	if greeting, err := c.r.ReadString('\n'); err != nil || !strings.Contains(greeting, "ready") {
		t.Fatalf("greeting %q, %v", greeting, err)
	}
	return cc, c
}

func landLayers(t *testing.T, s *Server) {
	t.Helper()
	for name, ds := range map[string]string{"landc": "LANDC", "lando": "LANDO"} {
		if err := s.Catalog().Set(name, testLayer(t, ds, 0.05)); err != nil {
			t.Fatal(err)
		}
	}
}

const shardJoinPlane = "shardjoin landc lando -Inf -Inf +Inf +Inf"

// TestSocketWritesPerBatch pins the count the change is about: a streamed
// join costs one socket write per emitted batch plus one for the trailer,
// not one per row, and the status line never travels alone.
func TestSocketWritesPerBatch(t *testing.T) {
	s := New(Config{})
	landLayers(t, s)
	cc, c := serveCounted(t, s)

	lines, status := c.do(t, shardJoinPlane)
	if status != "ok" {
		t.Fatalf("status %q", status)
	}
	rows := 0
	var st query.Stats
	for _, l := range lines {
		if strings.HasPrefix(l, "pair ") {
			rows++
		} else if js, ok := strings.CutPrefix(l, "stats "); ok {
			if err := json.Unmarshal([]byte(js), &st); err != nil {
				t.Fatal(err)
			}
		}
	}
	batches := int(st.PipelineBatches)
	if batches < 2 || rows < 8*batches {
		t.Fatalf("%d rows in %d batches: too few for the count to mean anything", rows, batches)
	}
	writes := cc.snapshot()
	if len(writes) > batches+2 {
		t.Fatalf("%d socket writes for %d rows in %d batches, want at most batches+2 (greeting, batches, trailer)",
			len(writes), rows, batches)
	}
	last := writes[len(writes)-1]
	if !bytes.HasSuffix(last, []byte("\nok\n")) || !bytes.HasPrefix(last, []byte("stats ")) {
		t.Fatalf("the status line must share its write with the data lines before it; last write = %q", last)
	}
	t.Logf("%d rows, %d batches, %d socket writes", rows, batches, len(writes))

	// A verb that does not stream never flushes: summary and status are
	// one write.
	before := len(writes)
	c.mustOK(t, "join landc lando sw")
	if got := len(cc.snapshot()) - before; got != 1 {
		t.Fatalf("join answered in %d socket writes, want 1", got)
	}
}

// TestWireBytesMatchExec is the framing check: whatever the session does
// to the bytes between Exec and the socket, the client must receive
// exactly Exec's output followed by the status line.
func TestWireBytesMatchExec(t *testing.T) {
	s := New(Config{})
	landLayers(t, s)
	_, c := serveCounted(t, s)

	for _, cmd := range []string{
		shardJoinPlane,
		"shardselect landc POLYGON ((100 100, 400 100, 400 400, 100 400))",
		"batch pipeline on 16; " + shardJoinPlane + "; layers",
		"layers",
		"help",
	} {
		var want bytes.Buffer
		res, err := s.newEngine().Exec(context.Background(), cmd, &want)
		if err != nil || res.Partial != nil {
			t.Fatalf("%s: %v %v", cmd, err, res.Partial)
		}
		want.WriteString("ok\n")

		if err := c.send(cmd); err != nil {
			t.Fatal(err)
		}
		var got []byte
		for !bytes.HasSuffix(got, []byte("\nok\n")) {
			line, err := c.r.ReadBytes('\n')
			if err != nil {
				t.Fatalf("%s: %v after %q", cmd, err, clip(got))
			}
			got = append(got, line...)
		}
		// The stats record carries timings; compare it by shape only.
		if g, w := maskStats(got), maskStats(want.Bytes()); !bytes.Equal(g, w) {
			t.Fatalf("%s: wire bytes differ from Exec output\n got %q\nwant %q", cmd, clip(g), clip(w))
		}
	}
}

// maskStats blanks the payload of every "stats {...}" line down to its
// length, so two runs of one command compare byte for byte around it.
func maskStats(b []byte) []byte {
	out := make([]byte, 0, len(b))
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("stats ")) {
			line = []byte("stats\n")
		}
		out = append(out, line...)
	}
	return out
}

func clip(b []byte) []byte {
	if len(b) > 400 {
		return append(append(append([]byte(nil), b[:200]...), " ... "...), b[len(b)-200:]...)
	}
	return b
}

// slowRefine slows every exact intersection test, so a join over a few
// hundred candidates takes a large multiple of a scheduling hiccup.
func slowRefine() *faultinject.Injector {
	return faultinject.New(1).
		Inject(faultinject.SiteIntersects, faultinject.KindDelay, 1).
		SetDelay(time.Millisecond)
}

// firstRowBeforeCommandEnds sends a slowed streaming join and checks
// that its first row can be read while the command is still running.
// The serving side counts a command (Metrics.Commands) after Exec
// returns and before it writes the status line, so a row read while the
// counter stands still came from a batch flushed in mid-join; had rows
// been held back for the final write, the counter would have moved
// before the first of them left.
func firstRowBeforeCommandEnds(t *testing.T, front *Server, send func() *bufio.Reader) {
	t.Helper()
	before := front.Metrics().Commands.Load()
	r := send()
	var line string
	var err error
	for !strings.HasPrefix(line, "pair ") {
		if line, err = r.ReadString('\n'); err != nil {
			t.Fatalf("no row before the stream ended: %v", err)
		}
	}
	if n := front.Metrics().Commands.Load() - before; n != 0 {
		t.Fatal("the first row arrived only after the join had finished")
	}
	for line != "ok\n" {
		if line, err = r.ReadString('\n'); err != nil {
			t.Fatalf("no ok status: %v", err)
		}
	}
}

func TestFirstBatchBeforeJoinEndsTCP(t *testing.T) {
	s := New(Config{Faults: slowRefine()})
	preload(t, s)
	_, c := serveCounted(t, s)
	c.mustOK(t, "pipeline on 8")
	firstRowBeforeCommandEnds(t, s, func() *bufio.Reader {
		if err := c.send("shardjoin water prism -Inf -Inf +Inf +Inf"); err != nil {
			t.Fatal(err)
		}
		return c.r
	})
}

func TestFirstBatchBeforeJoinEndsHTTP(t *testing.T) {
	s := startServer(t, Config{Faults: slowRefine()})
	preload(t, s)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	firstRowBeforeCommandEnds(t, s, func() *bufio.Reader {
		resp, err := client.Get("http://" + s.HTTPAddr().String() +
			"/stream?cmd=batch+pipeline+on+8%3B+shardjoin+water+prism+-Inf+-Inf+%2BInf+%2BInf")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return bufio.NewReader(resp.Body)
	})
}

// bootFront partitions LANDC and LANDO over four tile shards (each a
// started server with shardCfg) and returns an unstarted coordinator-mode
// server over them, for sessions run with serveCounted.
func bootFront(t *testing.T, shardCfg Config) *Server {
	t.Helper()
	dir := t.TempDir()
	layers := map[string]string{"landc": "LANDC", "lando": "LANDO"}
	for name, ds := range layers {
		if _, err := partition.Write(dir, name, data.MustLoad(ds, 0.05), partition.Options{Tiles: 4, Margin: 1}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := partition.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for _, tile := range m.Tiles {
		srv := startServer(t, shardCfg)
		for name := range layers {
			snap, err := store.Open(filepath.Join(dir, tile.Dir, partition.SnapshotName(name)), store.OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			l, err := query.NewLayerFromSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Catalog().Set(name, l); err != nil {
				t.Fatal(err)
			}
		}
		addrs = append(addrs, srv.Addr().String())
	}
	c, err := coord.New(coord.Config{Manifest: m, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return New(Config{Coordinator: c})
}

// TestFrontSocketWritesPerChunk is the coordinator-front half of the
// count: merged rows leave in one socket write per merged chunk, and the
// merged answer is still the single node's.
func TestFrontSocketWritesPerChunk(t *testing.T) {
	front := bootFront(t, Config{})
	cc, c := serveCounted(t, front)
	lines := c.mustOK(t, "join landc lando")

	single := New(Config{})
	landLayers(t, single)
	var want bytes.Buffer
	if _, err := single.newEngine().Exec(context.Background(), shardJoinPlane, &want); err != nil {
		t.Fatal(err)
	}
	pairs := func(lines []string) []string {
		var out []string
		for _, l := range lines {
			if strings.HasPrefix(l, "pair ") {
				out = append(out, l)
			}
		}
		sort.Strings(out)
		return out
	}
	got, exp := pairs(lines), pairs(strings.Split(want.String(), "\n"))
	if !slices.Equal(got, exp) {
		t.Fatalf("front join streamed %d pairs, single node %d, or they differ", len(got), len(exp))
	}
	writes := len(cc.snapshot()) - 1 // the greeting
	if writes*8 > len(got) {
		t.Fatalf("%d socket writes for %d merged rows: rows are not leaving by the chunk", writes, len(got))
	}
	t.Logf("%d merged rows in %d socket writes", len(got), writes)
}

func TestFirstBatchBeforeJoinEndsFront(t *testing.T) {
	front := bootFront(t, Config{Faults: slowRefine()})
	_, c := serveCounted(t, front)
	firstRowBeforeCommandEnds(t, front, func() *bufio.Reader {
		if err := c.send("join landc lando"); err != nil {
			t.Fatal(err)
		}
		return c.r
	})
}

// TestExecWriterFlushIsOptional: Exec must serve a writer with no Flush
// method, and must flush one that has it once per emitted batch.
func TestExecWriterFlushIsOptional(t *testing.T) {
	s := New(Config{})
	landLayers(t, s)
	if _, err := s.newEngine().Exec(context.Background(), shardJoinPlane, io.Discard); err != nil {
		t.Fatal(err)
	}
	var fc flushCounter
	res, err := s.newEngine().Exec(context.Background(), shardJoinPlane, &fc)
	if err != nil {
		t.Fatal(err)
	}
	if fc.flushes < 2 || int64(fc.flushes) > res.Stats.PipelineBatches {
		t.Fatalf("%d flushes for %d batches", fc.flushes, res.Stats.PipelineBatches)
	}
	if fc.writes != fc.flushes+1 {
		t.Fatalf("%d writes for %d flushed batches and a stats line", fc.writes, fc.flushes)
	}
}

type flushCounter struct{ writes, flushes int }

func (f *flushCounter) Write(p []byte) (int, error) { f.writes++; return len(p), nil }
func (f *flushCounter) Flush() error                { f.flushes++; return nil }
