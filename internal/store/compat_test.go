package store_test

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/interval"
	"repro/internal/shellcmd"
	"repro/internal/store"
)

// TestSnapshotWithoutCertainAnswersAlike opens snapshots whose interval
// sections are written as before the certain flag (store.WithoutCertain)
// beside the snapshots they were rewritten from, and runs every join and
// selection verb on both pairs of layers: the rows must be identical, in
// order, and so must the result and candidate counts. Only how the pairs
// were decided may move, and the certain flag must decide some pairs the
// older lists leave to refinement. The layers are join_single's, which
// persist one grid, so a join compares the persisted lists of both sides
// and rebuilds neither.
func TestSnapshotWithoutCertainAnswersAlike(t *testing.T) {
	dir := t.TempDir()
	e := &shellcmd.Engine{Store: shellcmd.MapStore{}, DataDir: dir}
	run := func(line string) (string, shellcmd.Result) {
		t.Helper()
		var sb strings.Builder
		res, err := e.Exec(context.Background(), line, &sb)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		return sb.String(), res
	}
	var grid interval.Grid
	for _, name := range []string{"a", "b"} {
		ds := map[string]string{"a": "LANDC", "b": "LANDO"}[name]
		run("gen " + name + " " + ds + " 0.2")
		run("save " + name + " " + name)
		raw, err := os.ReadFile(filepath.Join(dir, name+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		old, err := store.WithoutCertain(raw)
		if err != nil {
			t.Fatal(err)
		}
		s, err := store.OpenBytes(old)
		if err != nil {
			t.Fatalf("%s without certain flags: %v", name, err)
		}
		col := s.Intervals()
		if grid == (interval.Grid{}) {
			grid = col.Grid
		} else if col.Grid != grid {
			t.Fatalf("the layers persist grids %+v and %+v; a join would rebuild their lists", grid, col.Grid)
		}
		for _, w := range col.Data() {
			if w&(1<<31) != 0 {
				t.Fatalf("%s: a certain flag survived the rewrite", name)
			}
		}
		s.Close()
		if err := os.WriteFile(filepath.Join(dir, name+"_old.snap"), old, 0o644); err != nil {
			t.Fatal(err)
		}
		run("load new" + name + " " + name)
		run("load old" + name + " " + name + "_old")
	}
	rows := func(out string) []string {
		var r []string
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "pair ") || strings.HasPrefix(l, "id ") {
				r = append(r, l)
			}
		}
		return r
	}
	window := "POLYGON((10 10, 40 10, 40 40, 10 40, 10 10))"
	moved := false
	for _, verb := range []string{
		"join %a %b sw", "join %a %b hw", "pjoin %a %b 2", "shardjoin %a %b -Inf -Inf +Inf +Inf",
		"select %a " + window, "shardselect %a " + window, "select %b " + window,
	} {
		line := func(side string) string {
			return strings.NewReplacer("%a", side+"a", "%b", side+"b").Replace(verb)
		}
		newOut, newRes := run(line("new"))
		oldOut, oldRes := run(line("old"))
		nr, or := rows(newOut), rows(oldOut)
		if !slices.Equal(nr, or) {
			t.Fatalf("%s: %d rows over the new snapshots, %d over the old, first difference at %d", verb, len(nr), len(or), firstDiffStrings(nr, or))
		}
		if n, o := newRes.Stats, oldRes.Stats; n.Results != o.Results || n.Candidates != o.Candidates {
			t.Fatalf("%s: %d results of %d candidates over the new snapshots, %d of %d over the old", verb, n.Results, n.Candidates, o.Results, o.Candidates)
		}
		if newRes.Stats.IntervalTrueHits > oldRes.Stats.IntervalTrueHits {
			moved = true
		}
		t.Logf("%s: %d rows, interval true hits %d new, %d old", verb, len(nr), newRes.Stats.IntervalTrueHits, oldRes.Stats.IntervalTrueHits)
	}
	if !moved {
		t.Fatal("the certain flag decided no pair the older lists did not; the test is vacuous")
	}
}

func firstDiffStrings(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
