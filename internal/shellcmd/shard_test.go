package shellcmd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/partition"
	"repro/internal/query"
)

func mustExec(t *testing.T, e *Engine, line string) string {
	t.Helper()
	var out bytes.Buffer
	if _, err := e.Exec(context.Background(), line, &out); err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	return out.String()
}

// dataLines filters a shard response to lines with the given prefix word.
func dataLines(out, word string) []string {
	var got []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, word+" ") {
			got = append(got, l)
		}
	}
	sort.Strings(got)
	return got
}

// TestShardJoinWholePlaneMatchesJoin pins the reference-point rule's base
// case: one shard owning the whole plane emits exactly the single-node
// join's pair set.
func TestShardJoinWholePlaneMatchesJoin(t *testing.T) {
	e := &Engine{Store: MapStore{}}
	mustExec(t, e, "gen a LANDC 0.01")
	mustExec(t, e, "gen b LANDO 0.01")
	whole := FormatRect(geom.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)})
	out := mustExec(t, e, "shardjoin a b "+whole)
	pairs := dataLines(out, "pair")

	var joinOut bytes.Buffer
	res, err := e.Exec(context.Background(), "join a b", &joinOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != res.Stats.Results {
		t.Fatalf("whole-plane shardjoin emitted %d pairs, single-node join found %d", len(pairs), res.Stats.Results)
	}
	stats := dataLines(out, "stats")
	if len(stats) != 1 {
		t.Fatalf("shardjoin must emit exactly one stats line:\n%s", out)
	}
	// The stats line is what the coordinator, /metrics and the access log
	// read: it must carry the executor's cost record, not a blank one.
	var st query.Stats
	if err := json.Unmarshal([]byte(strings.TrimPrefix(stats[0], "stats ")), &st); err != nil {
		t.Fatalf("stats line %q: %v", stats[0], err)
	}
	if st.Results != len(pairs) || st.Results == 0 || st.Candidates < st.Results || st.Compared == 0 {
		t.Errorf("stats line: %d results, %d candidates, %d compared for %d pairs",
			st.Results, st.Candidates, st.Compared, len(pairs))
	}
	if st.Candidates != res.Stats.Candidates {
		t.Errorf("shardjoin saw %d candidates, join %d on the same layers", st.Candidates, res.Stats.Candidates)
	}
}

// TestShardJoinRegionsPartitionPairs pins the dedup invariant the
// coordinator relies on: over any tiling of the plane, every pair is
// emitted by exactly one region.
func TestShardJoinRegionsPartitionPairs(t *testing.T) {
	e := &Engine{Store: MapStore{}}
	mustExec(t, e, "gen a LANDC 0.01")
	mustExec(t, e, "gen b LANDO 0.01")
	m := &partition.Manifest{Bounds: geom.R(0, 0, 60, 60), GX: 2, GY: 2}
	counts := map[string]int{}
	for id := 0; id < m.NumTiles(); id++ {
		out := mustExec(t, e, fmt.Sprintf("shardjoin a b %s", FormatRect(m.Region(id))))
		for _, p := range dataLines(out, "pair") {
			counts[p]++
		}
	}
	var joinOut bytes.Buffer
	res, err := e.Exec(context.Background(), "join a b", &joinOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != res.Stats.Results {
		t.Fatalf("union over regions has %d distinct pairs, join found %d", len(counts), res.Stats.Results)
	}
	for p, n := range counts {
		if n != 1 {
			t.Fatalf("pair %q emitted by %d regions, want exactly 1", p, n)
		}
	}
}

// TestShardSelectStableIDs verifies shardselect reports the global ids
// persisted in a tile snapshot, not tile-local indexes.
func TestShardSelectStableIDs(t *testing.T) {
	e := &Engine{Store: MapStore{}}
	mustExec(t, e, "gen base LANDC 0.01")
	dir := t.TempDir()
	mustExec(t, e, fmt.Sprintf("partition base 4 %s", dir))
	m, err := partition.Load(dir)
	if err != nil {
		t.Fatal(err)
	}

	wkt := "POLYGON((10 10, 40 10, 40 40, 10 40, 10 10))"
	want := dataLines(mustExec(t, e, "shardselect base "+wkt), "id")

	// Union of per-tile selects, deduplicated, must equal the single-node
	// ids (selects need no reference point — the coordinator dedups).
	got := map[string]bool{}
	for _, tile := range m.Tiles {
		name := fmt.Sprintf("t%d", tile.ID)
		mustExec(t, e, fmt.Sprintf("load %s %s", name,
			filepath.Join(dir, tile.Dir, partition.SnapshotName("base"))))
		for _, l := range dataLines(mustExec(t, e, fmt.Sprintf("shardselect %s %s", name, wkt)), "id") {
			got[l] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("tile union has %d ids, single-node select has %d", len(got), len(want))
	}
	for _, l := range want {
		if !got[l] {
			t.Fatalf("single-node id %q missing from tile union", l)
		}
	}
}

// TestIntervalsOffReachesJoinsOnly: the session's interval ablation
// reaches the joins — intervals off removes the interval filter from
// shardjoin — while a selection has no interval or signature stage, so
// shardselect returns the same ids under both settings and reports
// neither counter, on snapshot layers that carry both approximations.
func TestIntervalsOffReachesJoinsOnly(t *testing.T) {
	e := &Engine{Store: MapStore{}, DataDir: t.TempDir()}
	for _, line := range []string{"gen a LANDC 0.01", "gen b LANDO 0.01", "save a a", "save b b", "load sa a", "load sb b"} {
		mustExec(t, e, line)
	}
	join := "shardjoin sa sb " + FormatRect(geom.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)})
	sel := "shardselect sa POLYGON((100 100, 300 100, 300 300, 100 300, 100 100))"
	var ids [2][]string
	for i, setting := range []string{"on", "off"} {
		mustExec(t, e, "intervals "+setting)
		joined := strings.Contains(mustExec(t, e, join), `"interval_checks"`)
		if joined != (setting == "on") {
			t.Errorf("intervals %s: shardjoin ran the interval filter = %v", setting, joined)
		}
		out := mustExec(t, e, sel)
		for _, counter := range []string{`"interval_checks"`, `"sig_checks"`} {
			if strings.Contains(out, counter) {
				t.Errorf("intervals %s: shardselect reports %s:\n%s", setting, counter, dataLines(out, "stats"))
			}
		}
		ids[i] = dataLines(out, "id")
	}
	if len(ids[0]) == 0 || strings.Join(ids[1], "\n") != strings.Join(ids[0], "\n") {
		t.Errorf("intervals off changed shardselect's answer: %d ids, want %d", len(ids[1]), len(ids[0]))
	}
}

func TestShardVerbsAreQueries(t *testing.T) {
	for _, v := range []string{"shardjoin", "shardwithin", "shardselect"} {
		if !IsQuery(v) {
			t.Errorf("IsQuery(%q) = false; shard verbs must pass admission control", v)
		}
	}
	if IsQuery("partition") {
		t.Error("partition is administrative, not a query")
	}
}
