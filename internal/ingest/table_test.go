package ingest

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/wal"
)

var bg = context.Background()

func tester() *core.Tester {
	return core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold})
}

// script is a deterministic mutation sequence over a fresh table: a mix
// of inserts (objects drawn from a fixture dataset in order) and deletes
// of previously assigned ids. The same script drives the real table and
// the in-memory oracle.
type scriptOp struct {
	insert *geom.Polygon
	delete uint64
}

func fixtureScript(n int) []scriptOp {
	d := data.MustLoad("LANDC", 0.01)
	if len(d.Objects) < n {
		n = len(d.Objects)
	}
	var ops []scriptOp
	for i := 0; i < n; i++ {
		ops = append(ops, scriptOp{insert: d.Objects[i]})
		if i%5 == 4 {
			ops = append(ops, scriptOp{delete: uint64(i - 2)})
		}
	}
	return ops
}

// oracle replays the first k ops of a script in memory, mirroring the
// table's id assignment (fresh table: ids 0,1,2,... in insert order).
func oracle(ops []scriptOp, k int) *data.Dataset {
	type obj struct {
		id uint64
		p  *geom.Polygon
	}
	var objs []obj
	next := uint64(0)
	for _, op := range ops[:k] {
		if op.insert != nil {
			objs = append(objs, obj{next, op.insert})
			next++
			continue
		}
		for i := range objs {
			if objs[i].id == op.delete {
				objs = append(objs[:i], objs[i+1:]...)
				break
			}
		}
	}
	ds := &data.Dataset{Name: "oracle"}
	for _, o := range objs {
		ds.Objects = append(ds.Objects, o.p)
	}
	return ds
}

func runScript(t *testing.T, tab *Table, ops []scriptOp) {
	t.Helper()
	for i, op := range ops {
		if op.insert != nil {
			if _, err := tab.Insert(bg, op.insert); err != nil {
				t.Fatalf("op %d insert: %v", i, err)
			}
		} else if err := tab.Delete(bg, op.delete); err != nil {
			t.Fatalf("op %d delete %d: %v", i, op.delete, err)
		}
	}
}

// expectParity asserts the table's view is bit-identical (canonical
// positions, self-join pairs) to a from-scratch build of the oracle
// state.
func expectParity(t *testing.T, tab *Table, want *data.Dataset) {
	t.Helper()
	v := tab.View()
	if v.NumObjects() != len(want.Objects) {
		t.Fatalf("view has %d objects, oracle %d", v.NumObjects(), len(want.Objects))
	}
	got := v.Dataset()
	for i := range want.Objects {
		g, w := got.Objects[i], want.Objects[i]
		if g.Bounds() != w.Bounds() || len(g.Verts) != len(w.Verts) {
			t.Fatalf("object %d differs from oracle", i)
		}
		for j := range w.Verts {
			if g.Verts[j] != w.Verts[j] {
				t.Fatalf("object %d vertex %d differs", i, j)
			}
		}
	}
	scratch := query.NewLayer(want)
	wantPairs, _, err := query.IntersectionJoinView(bg, scratch.View(), scratch.View(), tester(), query.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotPairs, _, err := query.IntersectionJoinView(bg, v, v, tester(), query.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantSet := map[query.Pair]bool{}
	for _, p := range wantPairs {
		wantSet[p] = true
	}
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("self-join %d pairs, oracle %d", len(gotPairs), len(wantPairs))
	}
	for _, p := range gotPairs {
		if !wantSet[p] {
			t.Fatalf("self-join pair %v not in oracle", p)
		}
	}
}

func TestTableIngestRecoveryParity(t *testing.T) {
	dir := t.TempDir()
	ops := fixtureScript(40)

	tab, err := OpenTable(dir, "t1", TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, tab, ops)
	expectParity(t, tab, oracle(ops, len(ops)))
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery replays the whole WAL (no snapshot yet) to the same state.
	tab2, err := OpenTable(dir, "t1", TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tab2.Close()
	st := tab2.Stats()
	if st.WAL.Recovered == 0 {
		t.Fatal("recovery replayed nothing")
	}
	if st.AppliedLSN != uint64(len(ops)) {
		t.Fatalf("applied LSN %d, want %d", st.AppliedLSN, len(ops))
	}
	expectParity(t, tab2, oracle(ops, len(ops)))
}

func TestTableCompactionFoldsAndTruncates(t *testing.T) {
	dir := t.TempDir()
	ops := fixtureScript(30)
	half := len(ops) / 2

	tab, err := OpenTable(dir, "t1", TableOptions{WAL: wal.Options{SegmentBytes: 4 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, tab, ops[:half])
	if err := tab.Compact(bg); err != nil {
		t.Fatal(err)
	}
	st := tab.Stats()
	if st.Compactions != 1 || st.Pending != 0 {
		t.Fatalf("after compact: %d compactions, %d pending", st.Compactions, st.Pending)
	}
	if st.WAL.Truncated == 0 {
		t.Fatal("compaction truncated no WAL segments")
	}
	expectParity(t, tab, oracle(ops, half))

	// Post-compaction writes land in a fresh delta over the new base.
	runScript(t, tab, ops[half:])
	expectParity(t, tab, oracle(ops, len(ops)))
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery = snapshot generation + WAL tail above the watermark.
	tab2, err := OpenTable(dir, "t1", TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tab2.Close()
	if got := tab2.Stats().AppliedLSN; got != uint64(len(ops)) {
		t.Fatalf("recovered applied LSN %d, want %d", got, len(ops))
	}
	expectParity(t, tab2, oracle(ops, len(ops)))

	// The recovered tail is pending; the first Compact folds it, and a
	// second Compact of the now-clean table is a no-op.
	if err := tab2.Compact(bg); err != nil {
		t.Fatal(err)
	}
	if err := tab2.Compact(bg); err != nil {
		t.Fatal(err)
	}
	if got := tab2.Stats().Compactions; got != 1 {
		t.Fatalf("compactions %d, want 1", got)
	}
	expectParity(t, tab2, oracle(ops, len(ops)))
}

func TestTableWritesDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	tab, err := OpenTable(dir, "t1", TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	d := data.MustLoad("LANDC", 0.02)
	half := len(d.Objects) / 2
	for _, p := range d.Objects[:half] {
		if _, err := tab.Insert(bg, p); err != nil {
			t.Fatal(err)
		}
	}
	// Writers race the compactor; every op still acks durably and the
	// final state matches the oracle.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range d.Objects[half:] {
			if _, err := tab.Insert(bg, p); err != nil {
				t.Errorf("insert during compaction: %v", err)
				return
			}
		}
	}()
	if err := tab.Compact(bg); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	expectParity(t, tab, d)
	// A second compaction folds whatever arrived after the freeze.
	if err := tab.Compact(bg); err != nil {
		t.Fatal(err)
	}
	if got := tab.Stats().Pending; got != 0 {
		t.Fatalf("pending %d after final compaction", got)
	}
	expectParity(t, tab, d)
}

func TestTableDeleteSemantics(t *testing.T) {
	dir := t.TempDir()
	tab, err := OpenTable(dir, "t1", TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	id, err := tab.Insert(bg, data.MustLoad("LANDC", 0.004).Objects[0])
	if err != nil {
		t.Fatal(err)
	}
	var nf *NotFoundError
	if err := tab.Delete(bg, id+100); !errors.As(err, &nf) {
		t.Fatalf("delete of missing id: %v", err)
	}
	appends := tab.Stats().WAL.Appends
	if err := tab.Delete(bg, id); err != nil {
		t.Fatal(err)
	}
	if err := tab.Delete(bg, id); !errors.As(err, &nf) {
		t.Fatalf("double delete: %v", err)
	}
	st := tab.Stats()
	if st.WAL.Appends != appends+1 {
		t.Fatalf("misses must not hit the WAL: %d appends, want %d", st.WAL.Appends, appends+1)
	}
	if st.Objects != 0 || st.NotFound != 2 {
		t.Fatalf("objects=%d notfound=%d", st.Objects, st.NotFound)
	}
}

func TestManagerBackgroundCompaction(t *testing.T) {
	m := NewManager(Options{
		Dir:            t.TempDir(),
		CompactPending: 8,
		Interval:       10 * time.Millisecond,
	})
	defer m.Close()
	tab, err := m.Open("hot")
	if err != nil {
		t.Fatal(err)
	}
	if again, err := m.Open("hot"); err != nil || again != tab {
		t.Fatalf("Open not idempotent: %v", err)
	}
	if err := validName("../evil"); err == nil {
		t.Fatal("path-escaping name accepted")
	}
	d := data.MustLoad("LANDC", 0.01)
	for _, p := range d.Objects[:20] {
		if _, err := tab.Insert(bg, p); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for tab.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background compactor never fired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	tot := m.Totals()
	if tot.Tables != 1 || tot.Inserts != 20 || tot.Compactions == 0 {
		t.Fatalf("totals: %+v", tot)
	}
	expectParity(t, tab, &data.Dataset{Name: "hot", Objects: d.Objects[:20]})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("hot"); err == nil {
		t.Fatal("Open after Close succeeded")
	}
}
