package shellcmd

import (
	"context"
	"io"
	"math/rand"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/ingest"
	"repro/internal/query"
)

// selectWindows is the load benchmark's select window mix for a seed as
// WKT: one window per cell of a 32×32 grid over the data domain, jittered
// inside its cell, 5×5 km and every fifth 20×20 km, then shuffled.
func selectWindows(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	const side = 32
	dom := data.Domain
	cellW, cellH := dom.Width()/side, dom.Height()/side
	var out []string
	for i := range side * side {
		size := 5.0
		if i%5 == 0 {
			size = 20
		}
		x := min(dom.MinX+(float64(i%side)+rng.Float64())*cellW, dom.MaxX-size)
		y := min(dom.MinY+(float64(i/side)+rng.Float64())*cellH, dom.MaxY-size)
		out = append(out, geom.MustPolygon(geom.Pt(x, y), geom.Pt(x+size, y), geom.Pt(x+size, y+size), geom.Pt(x, y+size)).WKT())
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// durations matches the wall-clock figures of a summary line.
var durations = regexp.MustCompile(`[0-9.]+(ns|µs|ms|s)\b`)

// timingFree is a command's output and record with every wall-clock
// figure taken out: the rows, the summary lines with their durations
// masked, and the record's counters.
type timingFree struct {
	rows  string
	stats query.Stats
}

func runTimingFree(t *testing.T, e *Engine, line string) timingFree {
	t.Helper()
	out, res := exec(t, e, line)
	var rows []string
	for _, l := range strings.Split(out, "\n") {
		if !strings.HasPrefix(l, "stats ") {
			rows = append(rows, durations.ReplaceAllString(l, "T"))
		}
	}
	st := res.Stats
	st.MBRFilterMS, st.IntermediateMS, st.GeometryMS = 0, 0, 0
	st.PipelineFilterNS, st.PipelineRefineNS, st.SnapshotLoadMS = 0, 0, 0
	st.HWTime, st.SWTime, st.CollectTime = 0, 0, 0
	return timingFree{strings.Join(rows, "\n"), st}
}

// TestSessionTesterMatchesFreshEngine: one engine serving the benchmark's
// 1 024 seed-1 windows twice over a LANDC 0.2 layer in memory, from a
// snapshot and as a live view with an insert and a delete, with an
// overlay between the passes, answers every command with the rows and
// the counters of a fresh engine built for that command alone — the
// session tester carries nothing from one command into the next.
func TestSessionTesterMatchesFreshEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("LANDC 0.2 over 6 144 selects a side")
	}
	dir := t.TempDir()
	m := ingest.NewManager(ingest.Options{Dir: dir, DisableCompactor: true})
	t.Cleanup(func() { _ = m.Close() })
	e := &Engine{Store: MapStore{}, DataDir: dir, Live: m}
	exec(t, e, "gen mem LANDC 0.2")
	exec(t, e, "save mem snap")
	exec(t, e, "load snap snap")
	exec(t, e, "save mem fleet")
	exec(t, e, "live fleet")
	c := data.Domain.Center()
	exec(t, e, "insert fleet "+geom.MustPolygon(geom.Pt(c.X, c.Y), geom.Pt(c.X+30, c.Y), geom.Pt(c.X+30, c.Y+30), geom.Pt(c.X, c.Y+30)).WKT())
	exec(t, e, "delete fleet 0")
	// Small: overlay's area step costs seconds at scale 0.01.
	exec(t, e, "gen w LANDC 0.002")
	exec(t, e, "gen p LANDO 0.002")

	same := func(line string) {
		t.Helper()
		got := runTimingFree(t, e, line)
		want := runTimingFree(t, &Engine{Store: e.Store, DataDir: dir, Live: m}, line)
		if got != want {
			t.Fatalf("%s:\nsession  %q %+v\nfresh    %q %+v", line, got.rows, got.stats, want.rows, want.stats)
		}
	}
	windows := selectWindows(1)
	for range 2 {
		for i, w := range windows {
			verb := "select "
			if i%2 == 1 {
				verb = "shardselect "
			}
			for _, layer := range []string{"mem", "snap", "fleet"} {
				same(verb + layer + " " + w)
			}
		}
		same("overlay w p")
	}
}

// TestSessionTesterAfterRecoveredPanic: a select whose pair test panics
// is answered by the executor's software retry, and the session's next
// selects on the tester that panicked answer as a fresh engine's. Under
// a fault on every test each select is all retries and still answers
// the fault-free rows.
func TestSessionTesterAfterRecoveredPanic(t *testing.T) {
	store := MapStore{}
	clean := &Engine{Store: store}
	exec(t, clean, "gen a LANDC 0.05")
	windows := selectWindows(2)[:64]
	// From the first window wide enough to run the sixth test.
	for i, w := range windows {
		if _, res := exec(t, clean, "select a "+w); res.Stats.Tests > 5 {
			windows = windows[i:]
			break
		}
	}
	if _, res := exec(t, clean, "select a "+windows[0]); res.Stats.Tests <= 5 {
		t.Fatal("no window runs six pair tests")
	}
	for _, c := range []struct {
		spec   string
		always bool // every test panics, so only the rows can match
	}{
		{"tester.intersects=panic:1@5", false},
		{"tester.intersects=panic:1", true},
	} {
		inj, err := faultinject.ParseSpec(1, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		e := &Engine{Store: store, Faults: inj}
		for i, w := range windows {
			line := "shardselect a " + w
			got, want := runTimingFree(t, e, line), runTimingFree(t, clean, line)
			if got.rows != want.rows {
				t.Fatalf("%s, %s: rows differ from a fault-free engine's:\n%s\nwant\n%s", c.spec, line, got.rows, want.rows)
			}
			switch {
			case i == 0 || c.always:
				if got.stats.Panics == 0 && want.stats.Tests > 0 {
					t.Fatalf("%s, %s: no panic recovered", c.spec, line)
				}
			case got.stats != want.stats:
				t.Fatalf("%s, %s after the recovered panic: record %+v, a fresh engine's %+v", c.spec, line, got.stats, want.stats)
			}
		}
	}
}

// snapshotEngine is an engine serving LANDC 0.2 from a snapshot as
// "snap", with the select lines of the benchmark's seed-1 windows over it
// run once: the edge indexes are hydrated and the session's scratch grown.
func snapshotEngine(tb testing.TB) (*Engine, []string) {
	e := &Engine{Store: MapStore{}, DataDir: tb.TempDir()}
	exec(tb, e, "gen mem LANDC 0.2")
	exec(tb, e, "save mem snap")
	exec(tb, e, "load snap snap")
	windows := selectWindows(1)
	lines := make([]string, len(windows))
	for i, w := range windows {
		lines[i] = "select snap " + w
		exec(tb, e, lines[i])
	}
	return e, lines
}

// TestServedSelectAllocs pins what a served select allocates once the
// session is warm: the session tester and its grown scratch buffers are
// reused, so a select pays for its parse, candidates, batches and record
// only. A tester built per request adds itself and the regrowth of its
// scratch, nine more allocations a select.
func TestServedSelectAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("LANDC 0.2")
	}
	e, lines := snapshotEngine(t)
	var i int
	allocs := testing.AllocsPerRun(len(lines), func() {
		if _, err := e.Exec(context.Background(), lines[i%len(lines)], io.Discard); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// Measured: 33 a select; a tester per request adds nine.
	const bound = 38
	if allocs > bound {
		t.Errorf("a served select allocates %.1f times, want at most %d", allocs, bound)
	}
}

// TestSessionTesterHoldsNoLayer: the session tester keeps its scratch
// between commands, but only copied segments (values) and its own
// sweep storage: after selects and an overlay over a layer, dropping
// the layer from the store lets every one of its polygons be collected
// while the engine lives on.
func TestSessionTesterHoldsNoLayer(t *testing.T) {
	store := MapStore{}
	e := &Engine{Store: store}
	exec(t, e, "gen a LANDC 0.002")
	exec(t, e, "gen b LANDO 0.002")
	for _, w := range selectWindows(3)[:64] {
		exec(t, e, "select a "+w)
	}
	exec(t, e, "overlay a b")
	var alive atomic.Int64
	for _, name := range []string{"a", "b"} {
		l, ok := store[name].(*query.Layer)
		if !ok {
			t.Fatalf("layer %q is a %T", name, store[name])
		}
		for _, p := range l.Data.Objects {
			alive.Add(1)
			runtime.SetFinalizer(p, func(*geom.Polygon) { alive.Add(-1) })
		}
	}
	delete(store, "a")
	delete(store, "b")
	for deadline := time.Now().Add(5 * time.Second); alive.Load() > 0 && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := alive.Load(); n > 0 {
		t.Errorf("%d polygons of the dropped layers are still reachable", n)
	}
	if e.tester == nil {
		t.Fatal("the engine built no session tester")
	}
	runtime.KeepAlive(e)
}
