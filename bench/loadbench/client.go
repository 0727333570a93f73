package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// kind is a wire verb the benchmark issues; latencies are kept per kind.
type kind int

const (
	kSelect kind = iota
	kJoin
	kPjoin
	kShardjoin
	kWithin
	kShardwithin
	kInsert
	kDelete
	numKinds
)

var kindNames = [numKinds]string{"select", "join", "pjoin", "shardjoin", "within", "shardwithin", "insert", "delete"}

// request is one wire command with what the oracle says its answer is.
type request struct {
	line string
	kind kind
	// count is the expected "<verb>: N results" summary count and rows the
	// expected number of streamed "pair"/"id" rows; -1 leaves either
	// unchecked (single-node select prints no rows, shardjoin no summary).
	count, rows int
	// atLeast relaxes count to a lower bound: a select on the live table
	// racing the writer sees the base objects plus whatever is alive.
	atLeast bool
}

// reply is what the client saw of one response.
type reply struct {
	status string // "ok", or the whole "partial: ..." / "error: ..." line
	count  int    // summary count, -1 when the response carried none
	rows   int
	id     uint64        // stable id acknowledged by an insert
	first  time.Duration // time to the first response line
	total  time.Duration
}

// client is one wire-protocol connection.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &client{conn: conn, r: bufio.NewReaderSize(conn, 256<<10)}
	greeting, err := c.r.ReadString('\n')
	if err != nil || strings.TrimSpace(greeting) != "spatiald ready" {
		conn.Close()
		return nil, fmt.Errorf("dial %s: bad greeting %q: %v", addr, greeting, err)
	}
	return c, nil
}

func (c *client) close() { c.conn.Close() }

func (c *client) send(line string) error {
	_, err := c.conn.Write([]byte(line + "\n"))
	return err
}

// do sends one command and reads its framed response.
func (c *client) do(line string) (reply, error) {
	start := time.Now()
	if err := c.send(line); err != nil {
		return reply{}, err
	}
	return c.read(start)
}

var (
	pairPrefix     = []byte("pair ")
	idPrefix       = []byte("id ")
	insertedPrefix = []byte("inserted id ")
	resultsSuffix  = []byte(" results")
)

// read consumes data lines up to the status line, timing from start.
func (c *client) read(start time.Time) (reply, error) {
	rep := reply{count: -1}
	for n := 0; ; n++ {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return rep, err
		}
		if n == 0 {
			rep.first = time.Since(start)
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case bytes.HasPrefix(line, pairPrefix), bytes.HasPrefix(line, idPrefix):
			rep.rows++
		case bytes.Equal(line, []byte("ok")), bytes.HasPrefix(line, []byte("partial:")), bytes.HasPrefix(line, []byte("error:")):
			rep.status = string(line)
			rep.total = time.Since(start)
			return rep, nil
		case bytes.HasPrefix(line, insertedPrefix):
			rest := line[len(insertedPrefix):]
			if i := bytes.IndexByte(rest, ' '); i > 0 {
				rep.id, _ = strconv.ParseUint(string(rest[:i]), 10, 64)
			}
		default:
			// "<verb>: <n> results ..." is the query verbs' summary line.
			if i := bytes.Index(line, []byte(": ")); i > 0 && i < 16 {
				rest := line[i+2:]
				if j := bytes.Index(rest, resultsSuffix); j > 0 {
					if v, err := strconv.Atoi(string(rest[:j])); err == nil {
						rep.count = v
					}
				}
			}
		}
	}
}

// verdict reports why rep does not answer req, or "" when it does.
func (req request) verdict(rep reply, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%s: %v", kindNames[req.kind], err)
	case rep.status != "ok":
		return fmt.Sprintf("%s: status %q", kindNames[req.kind], rep.status)
	case req.rows >= 0 && rep.rows != req.rows:
		return fmt.Sprintf("%s: %d rows, oracle %d", kindNames[req.kind], rep.rows, req.rows)
	case req.count >= 0 && req.atLeast && rep.count < req.count:
		return fmt.Sprintf("%s: %d results, oracle at least %d", kindNames[req.kind], rep.count, req.count)
	case req.count >= 0 && !req.atLeast && rep.count != req.count:
		return fmt.Sprintf("%s: %d results, oracle %d", kindNames[req.kind], rep.count, req.count)
	case req.kind == kInsert && rep.id == 0:
		return "insert: no id acknowledged"
	}
	return ""
}

// recorder accumulates one invocation's operations. Clients record into
// private recorders that are merged when the phase ends, so the hot path
// takes no lock.
type recorder struct {
	attempted, ok, failed int
	failures              []string // first few, for the report
	lat                   [numKinds][]float64
	ttfr                  [numKinds][]float64
	rows                  int
	rowTime               time.Duration // time spent in requests that streamed rows
	// laps is a client's own throughput, lap by lap (ok requests per second
	// of each lap); timedPhase pools them per client position into rates.
	laps      []float64
	rates     [][]float64
	listeners []string // every address a deployment listened on
}

func newRecorder() *recorder { return &recorder{} }

func (r *recorder) fail(msg string) {
	r.attempted++
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, msg)
	}
}

// observe records one completed request.
func (r *recorder) observe(req request, rep reply, err error) {
	if why := req.verdict(rep, err); why != "" {
		r.fail(why)
		return
	}
	r.attempted++
	r.ok++
	r.lat[req.kind] = append(r.lat[req.kind], ms(rep.total))
	r.ttfr[req.kind] = append(r.ttfr[req.kind], ms(rep.first))
	if rep.rows > 0 {
		r.rows += rep.rows
		r.rowTime += rep.total
	}
}

func (r *recorder) merge(o *recorder) {
	r.attempted += o.attempted
	r.ok += o.ok
	r.failed += o.failed
	for _, f := range o.failures {
		if len(r.failures) < 8 {
			r.failures = append(r.failures, f)
		}
	}
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
		r.ttfr[k] = append(r.ttfr[k], o.ttfr[k]...)
	}
	r.rows += o.rows
	r.rowTime += o.rowTime
}

// lap closes a lap that began at start with okBefore requests done.
func (r *recorder) lap(start time.Time, okBefore int) {
	r.laps = append(r.laps, float64(r.ok-okBefore)/time.Since(start).Seconds())
}

// throughput is the clients' sustained rate: each client's median lap
// rate, summed. A lap is the same work every time round, so the median
// lap is the rate the system holds when nothing else disturbs the box; a
// stall shows in the tail latency instead.
func (r *recorder) throughput() float64 {
	var sum float64
	for _, rates := range r.rates {
		sum += median(rates)
	}
	return sum
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation (0 for an
// empty sample). It sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// clientPlan is one closed-loop client: it cycles its requests, sending
// the next only after the previous answered. A writer plan instead runs
// the ingest writer (see writerLoop).
type clientPlan struct {
	reqs   []request
	lap    int // requests per throughput lap; 0 means the whole list
	writer bool
}

// timedPhase runs the workload's closed-loop clients for the given time
// and merges their records into rec.
func timedPhase(ctx context.Context, dep *deployment, wl *workload, in *inputs, seconds float64, rec *recorder) error {
	plans := wl.clients(in)
	clients := make([]*client, len(plans))
	for i := range plans {
		c, err := dial(dep.addr)
		if err != nil {
			return err
		}
		defer c.close()
		clients[i] = c
	}
	recs := make([]*recorder, len(plans))
	for len(rec.rates) < len(plans) {
		rec.rates = append(rec.rates, nil)
	}
	var wg sync.WaitGroup
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i, plan := range plans {
		recs[i] = newRecorder()
		wg.Add(1)
		go func(c *client, plan clientPlan, r *recorder) {
			defer wg.Done()
			if plan.writer {
				writerLoop(ctx, c, in, deadline, r)
			} else {
				closedLoop(ctx, c, plan, deadline, r)
			}
		}(clients[i], plan, recs[i])
	}
	wg.Wait()
	for i, r := range recs {
		rec.rates[i] = append(rec.rates[i], r.laps...)
		rec.merge(r)
	}
	return nil
}

// closedLoop cycles the plan's requests on one connection until the
// deadline. A failed exchange leaves the connection in an unknown state,
// so it ends the loop.
func closedLoop(ctx context.Context, c *client, plan clientPlan, deadline time.Time, rec *recorder) {
	lap := plan.lap
	if lap == 0 {
		lap = len(plan.reqs)
	}
	lapStart, okBefore := time.Now(), 0
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		req := plan.reqs[i%len(plan.reqs)]
		rep, err := c.do(req.line)
		rec.observe(req, rep, err)
		if err != nil {
			return
		}
		if (i+1)%lap == 0 {
			rec.lap(lapStart, okBefore)
			lapStart, okBefore = time.Now(), rec.ok
		}
	}
}

// openLoop sends reqs on one connection at a fixed rate regardless of
// replies (requests pipeline on the session), timing each from the
// instant it was due. It returns the latencies from due time and how late
// the generator actually sent, both in milliseconds.
func openLoop(c *client, reqs []request, perSecond float64, seconds float64, rec *recorder) (latency, late []float64) {
	n := int(perSecond * seconds)
	gap := time.Duration(float64(time.Second) / perSecond)
	start := time.Now().Add(10 * time.Millisecond)
	sent := make(chan int, n) // sized to the number of sends: the sender never blocks on the reader
	go func() {
		defer close(sent)
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * gap)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			late = append(late, ms(time.Since(due)))
			if c.send(reqs[i%len(reqs)].line) != nil {
				return
			}
			sent <- i
		}
	}()
	for i := range sent {
		due := start.Add(time.Duration(i) * gap)
		req := reqs[i%len(reqs)]
		rep, err := c.read(due)
		if why := req.verdict(rep, err); why != "" {
			rec.fail("open loop " + why)
			if err != nil {
				c.close() // unblocks the sender
				for range sent {
				}
				return latency, late
			}
			continue
		}
		rec.attempted++
		rec.ok++
		latency = append(latency, ms(rep.total))
	}
	return latency, late
}

// leftovers reports what survived teardown: goroutines still inside this
// repository's packages, and listeners that still accept. Goroutines get a
// moment to unwind — Shutdown and Close return when their owners have
// been told to stop, and the last frames run just after.
func leftovers(listeners []string) []string {
	var out []string
	var stacks string
	for wait := time.Millisecond; ; wait *= 2 {
		buf := make([]byte, 1<<20)
		stacks = string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "repro/internal/") || wait > time.Second {
			break
		}
		time.Sleep(wait)
	}
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "repro/internal/") {
			out = append(out, "goroutine still running: "+strings.ReplaceAll(g, "\n", " | "))
		}
	}
	for _, addr := range listeners {
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			out = append(out, "listener still accepting: "+addr)
		}
	}
	return out
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
