package coord

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRowCodecRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 42, math.MaxUint64 - 1, math.MaxUint64}
	for _, a := range vals {
		line := AppendIDRow(nil, a)
		if want := fmt.Sprintf("id %d\n", a); string(line) != want {
			t.Fatalf("AppendIDRow(%d) = %q, want %q", a, line, want)
		}
		for _, end := range []string{"", "\r", " ", " \t \r"} {
			kind, got, _, err := parseRow([]byte(strings.TrimSuffix(string(line), "\n") + end))
			if err != nil || kind != rowID || got != a {
				t.Fatalf("id %d with ending %q parsed as kind %d value %d, %v", a, end, kind, got, err)
			}
		}
		for _, b := range vals {
			line := AppendPairRow(nil, a, b)
			if want := fmt.Sprintf("pair %d %d\n", a, b); string(line) != want {
				t.Fatalf("AppendPairRow(%d, %d) = %q, want %q", a, b, line, want)
			}
			for _, end := range []string{"", "\r", "  ", "\t\r"} {
				kind, ga, gb, err := parseRow([]byte(strings.TrimSuffix(string(line), "\n") + end))
				if err != nil || kind != rowPair || ga != a || gb != b {
					t.Fatalf("pair %d %d with ending %q parsed as kind %d (%d, %d), %v", a, b, end, kind, ga, gb, err)
				}
			}
		}
	}
	for _, line := range []string{"", "stats {\"op\":\"shardjoin\"}", "stats", "note: context deadline exceeded (results above are partial)",
		"sub 1 ok: join", "ids 4", "pairs 1 2", "idle", "ID 4", " id 4"} {
		if kind, _, _, err := parseRow([]byte(line)); err != nil || kind != rowOther {
			t.Errorf("%q parsed as kind %d, %v; want it ignored", line, kind, err)
		}
	}
	for _, line := range []string{"id", "id ", "id x", "id -1", "id +1", "id 1 2", "id 18446744073709551616", "id 1_0",
		"pair", "pair 1", "pair 1 ", "pair 1 2 3", "pair 1 x", "pair x 1", "pair 18446744073709551616 1", "pair 1 99999999999999999999"} {
		if kind, _, _, err := parseRow([]byte(line)); err == nil {
			t.Errorf("%q parsed as kind %d, want an error", line, kind)
		}
	}
}

// parseLineOracle is the string-splitting row parser this package used
// before parseRow, kept as the fuzz target's reference.
func parseLineOracle(line string) (kind rowKind, a, b uint64, err error) {
	word, rest, _ := strings.Cut(line, " ")
	switch word {
	case "id":
		id, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			return rowOther, 0, 0, err
		}
		return rowID, id, 0, nil
	case "pair":
		af, bf, ok := strings.Cut(strings.TrimSpace(rest), " ")
		if !ok {
			return rowOther, 0, 0, fmt.Errorf("bad pair line %q", line)
		}
		a, err := strconv.ParseUint(af, 10, 64)
		if err != nil {
			return rowOther, 0, 0, err
		}
		b, err := strconv.ParseUint(strings.TrimSpace(bf), 10, 64)
		if err != nil {
			return rowOther, 0, 0, err
		}
		return rowPair, a, b, nil
	}
	return rowOther, 0, 0, nil
}

func FuzzParseRow(f *testing.F) {
	for _, s := range []string{"id 7", "pair 1 2", "pair 18446744073709551615 0", "id 18446744073709551616", "pair  3   4 \r",
		"id\t5", "pair 1 2", "id  5", "stats {}", "note: x", "ok", "pair 1", "id", "", "pair 1 2 3", "id 0x10", "pair +1 2"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		kind, a, b, err := parseRow(line)
		wkind, wa, wb, werr := parseLineOracle(string(line))
		if (err != nil) != (werr != nil) || kind != wkind || a != wa || b != wb {
			t.Fatalf("parseRow(%q) = kind %d (%d, %d) err %v; the string parser says kind %d (%d, %d) err %v",
				line, kind, a, b, err, wkind, wa, wb, werr)
		}
	})
}

// TestParseMergeSteadyStateAllocFree pins the per-row cost of the
// coordinator's read side: once the staging slices and the dedup sets
// have their size, decoding a chunk of rows and committing it through a
// sink allocates nothing.
func TestParseMergeSteadyStateAllocFree(t *testing.T) {
	var chunk [][]byte
	for i := uint64(0); i < 256; i++ {
		chunk = append(chunk, bytes.TrimSuffix(AppendPairRow(nil, i, i*7), []byte("\n")))
		chunk = append(chunk, bytes.TrimSuffix(AppendIDRow(nil, i), []byte("\n")))
	}
	rows := 0
	m := &merger{idSet: map[uint64]bool{}, pairSet: map[[2]uint64]bool{}, res: &Result{}, sink: RowSink{
		ID:    func(uint64) error { rows++; return nil },
		Pair:  func([2]uint64) error { rows++; return nil },
		Flush: func() error { return nil },
	}}
	var ans shardAnswer
	pass := func() {
		for _, line := range chunk {
			if err := ans.stage(line); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.commit(ans.ids, ans.pairs); err != nil {
			t.Fatal(err)
		}
		ans.ids, ans.pairs = ans.ids[:0], ans.pairs[:0]
	}
	pass()
	if rows != len(chunk) {
		t.Fatalf("sink saw %d rows of %d", rows, len(chunk))
	}
	if n := testing.AllocsPerRun(20, pass); n != 0 {
		t.Fatalf("%v allocations per chunk of %d rows, want 0", n, len(chunk))
	}
	if rows != len(chunk) {
		t.Fatalf("replayed rows got past the dedup: %d", rows)
	}
}

// TestSessionTimeoutArmedOncePerConnection: under one session timeout
// every query's budget is the time left to a fresh deadline — the same
// to the millisecond, never to the nanosecond. The shard must be sent
// "timeout" when a pooled connection first carries that budget and not
// again.
func TestSessionTimeoutArmedOncePerConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var conns, timeouts, queries atomic.Int64
	go func() { // the scripted shard
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conn.Close()
				fmt.Fprintln(conn, "spatiald ready")
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					if strings.HasPrefix(sc.Text(), "timeout ") {
						timeouts.Add(1)
						fmt.Fprintln(conn, "ok")
						continue
					}
					queries.Add(1)
					fmt.Fprint(conn, "pair 1 2\nstats {}\nok\n")
				}
			}()
		}
	}()

	r := &replica{addr: ln.Addr().String(), cfg: &Config{}}
	defer r.closeIdle()
	const session = 4500 * time.Millisecond
	for i := 0; i < 10; i++ {
		m := &merger{idSet: map[uint64]bool{}, pairSet: map[[2]uint64]bool{}, res: &Result{}}
		budget := session - time.Duration(17+31*i)*time.Microsecond
		if ans := r.query(context.Background(), "shardjoin a b", budget, m); ans.err != nil || len(ans.pairs) != 1 {
			t.Fatalf("query %d: %v, %d pairs", i, ans.err, len(ans.pairs))
		}
	}
	if c, q, n := conns.Load(), queries.Load(), timeouts.Load(); c != 1 || q != 10 || n != 1 {
		t.Fatalf("%d connection(s), %d queries, %d timeout exchanges; want 1, 10 and 1", c, q, n)
	}

	// A different session timeout is a different value on the wire.
	m := &merger{idSet: map[uint64]bool{}, pairSet: map[[2]uint64]bool{}, res: &Result{}}
	if ans := r.query(context.Background(), "shardjoin a b", 2*time.Second, m); ans.err != nil {
		t.Fatal(ans.err)
	}
	if n := timeouts.Load(); n != 2 {
		t.Fatalf("%d timeout exchanges after the session timeout changed, want 2", n)
	}
}
