package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/geom"
)

func tri(off float64) []geom.Point {
	return []geom.Point{geom.Pt(off, off), geom.Pt(off+1, off), geom.Pt(off, off+1)}
}

func mustAppend(t *testing.T, l *Log, op Op, id uint64, verts []geom.Point) *Ack {
	t.Helper()
	ack, err := l.Append(op, id, verts)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return ack
}

func TestRoundTripRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "t.wal")
	l, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log recovered %d records", len(recs))
	}
	acks := []*Ack{
		mustAppend(t, l, OpInsert, 0, tri(0)),
		mustAppend(t, l, OpInsert, 1, tri(10)),
		mustAppend(t, l, OpDelete, 0, nil),
	}
	ctx := context.Background()
	for i, a := range acks {
		if err := a.Wait(ctx); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		if a.LSN != uint64(i+1) {
			t.Fatalf("ack %d: LSN %d, want %d", i, a.LSN, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	want := []struct {
		op Op
		id uint64
		nv int
	}{{OpInsert, 0, 3}, {OpInsert, 1, 3}, {OpDelete, 0, 0}}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Op != want[i].op || r.ID != want[i].id || len(r.Verts) != want[i].nv {
			t.Fatalf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
	if recs[0].Verts[2] != geom.Pt(0, 1) {
		t.Fatalf("vertex mismatch: %v", recs[0].Verts)
	}
	// Appends continue from the recovered LSN.
	a := mustAppend(t, l2, OpInsert, 2, tri(20))
	if a.LSN != 4 {
		t.Fatalf("post-recovery LSN %d, want 4", a.LSN)
	}
	if err := a.Wait(ctx); err != nil {
		t.Fatalf("post-recovery ack: %v", err)
	}
}

// TestGroupCommit drives many concurrent appenders and asserts the
// committer amortized fsyncs: appends queued behind an in-flight fsync
// share the next one, so there are fewer batches than records.
func TestGroupCommit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "t.wal")
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()

	const writers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ack, err := l.Append(OpInsert, uint64(w*each+i), tri(float64(i)))
				if err == nil {
					err = ack.Wait(context.Background())
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("writer: %v", err)
	}
	st := l.Stats()
	if st.Records != writers*each {
		t.Fatalf("committed %d records, want %d", st.Records, writers*each)
	}
	if st.Batches >= st.Records {
		t.Fatalf("no group commit: %d batches for %d records", st.Batches, st.Records)
	}
	if mean := st.MeanBatch(); mean < 1 {
		t.Fatalf("mean batch %v", mean)
	}
	if st.DurableLSN != uint64(writers*each) {
		t.Fatalf("durable LSN %d, want %d", st.DurableLSN, writers*each)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "t.wal")
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := mustAppend(t, l, OpInsert, uint64(i), tri(float64(i))).Wait(context.Background()); err != nil {
			t.Fatalf("ack: %v", err)
		}
	}
	l.Close()

	// Simulate a crash mid-append: valid records, then a partial record.
	seg := filepath.Join(dir, "seg-00000001.wal")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad})
	f.Close()

	l2, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer l2.Close()
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	st := l2.Stats()
	if st.TornBytes != 6 {
		t.Fatalf("TornBytes %d, want 6", st.TornBytes)
	}
	// The log is usable after repair and recovers cleanly again.
	if err := mustAppend(t, l2, OpDelete, 1, nil).Wait(context.Background()); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	l2.Close()
	l3, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer l3.Close()
	if len(recs) != 4 || recs[3].Op != OpDelete {
		t.Fatalf("recovered %d records after repair+append", len(recs))
	}
}

func TestMidLogCorruptionFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "t.wal")
	// Tiny segments force rotation so damage lands in a non-last segment.
	l, _, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := mustAppend(t, l, OpInsert, uint64(i), tri(float64(i))).Wait(context.Background()); err != nil {
			t.Fatalf("ack: %v", err)
		}
	}
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("expected rotation, have %d segments", st.Segments)
	}
	l.Close()

	seg := filepath.Join(dir, "seg-00000001.wal")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // flip a payload byte in an earlier segment
	os.WriteFile(seg, b, 0o644)

	_, _, err = Open(dir, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %v", err)
	}
}

func TestRotationAndTruncateThrough(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "t.wal")
	l, _, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	const n = 20
	var lastLSN uint64
	for i := 0; i < n; i++ {
		a := mustAppend(t, l, OpInsert, uint64(i), tri(float64(i)))
		if err := a.Wait(context.Background()); err != nil {
			t.Fatalf("ack: %v", err)
		}
		lastLSN = a.LSN
	}
	st := l.Stats()
	if st.Rotations == 0 || st.Segments < 3 {
		t.Fatalf("expected several segments, stats %+v", st)
	}
	removed, err := l.TruncateThrough(lastLSN)
	if err != nil {
		t.Fatalf("TruncateThrough: %v", err)
	}
	if removed != st.Segments-1 {
		t.Fatalf("removed %d segments, want %d", removed, st.Segments-1)
	}
	// Everything before the active segment is gone; appends still work
	// and recovery sees only the tail.
	if err := mustAppend(t, l, OpDelete, 0, nil).Wait(context.Background()); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	l.Close()
	l2, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	for _, r := range recs {
		if r.LSN <= lastLSN && r.Op == OpDelete {
			t.Fatalf("truncated record recovered: %+v", r)
		}
	}
	if recs[len(recs)-1].Op != OpDelete {
		t.Fatalf("tail record missing, recovered %d records", len(recs))
	}
}

// TestFsyncErrorPoisons asserts the ack contract's failure half: when
// fsync reports an error, the waiter gets the error (no ack from page
// cache) and the log refuses further appends.
func TestFsyncErrorPoisons(t *testing.T) {
	inj := faultinject.New(1)
	inj.Inject(faultinject.SiteWALFsync, faultinject.KindIOError, 1)
	dir := filepath.Join(t.TempDir(), "t.wal")
	l, _, err := Open(dir, Options{Faults: inj})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	ack := mustAppend(t, l, OpInsert, 0, tri(0))
	if err := ack.Wait(context.Background()); err == nil {
		t.Fatal("acked a write whose fsync failed")
	}
	if _, err := l.Append(OpInsert, 1, tri(1)); err == nil {
		t.Fatal("poisoned log accepted an append")
	}
}

// TestShortWriteNeverAcked: a torn write (prefix persisted) must fail the
// waiter, and recovery must discard the torn bytes.
func TestShortWriteNeverAcked(t *testing.T) {
	inj := faultinject.New(1)
	inj.InjectAt(faultinject.SiteWALWrite, faultinject.KindShortWrite, 0)
	dir := filepath.Join(t.TempDir(), "t.wal")
	l, _, err := Open(dir, Options{Faults: inj})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ack := mustAppend(t, l, OpInsert, 0, tri(0))
	if err := ack.Wait(context.Background()); err == nil {
		t.Fatal("acked a torn write")
	}
	l.Close()

	l2, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery after torn write: %v", err)
	}
	defer l2.Close()
	if len(recs) != 0 {
		t.Fatalf("torn write surfaced %d records", len(recs))
	}
	if l2.Stats().TornBytes == 0 {
		t.Fatal("no torn bytes recorded")
	}
}

func TestSpecDrivenCrashSequencing(t *testing.T) {
	inj, err := faultinject.ParseSpec(7, "wal.fsync=io-error:1@2")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	dir := filepath.Join(t.TempDir(), "t.wal")
	l, _, err := Open(dir, Options{Faults: inj})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	// Calls 0 and 1 at the site succeed; call 2 fires.
	for i := 0; i < 2; i++ {
		if err := mustAppend(t, l, OpInsert, uint64(i), tri(float64(i))).Wait(context.Background()); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := mustAppend(t, l, OpInsert, 2, tri(2)).Wait(context.Background()); err == nil {
		t.Fatal("@seq-pinned fault did not fire on its call")
	}
}

func TestSyncAndClosedSemantics(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "t.wal")
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ack := mustAppend(t, l, OpInsert, 0, tri(0))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.Sync(ctx); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := ack.Wait(ctx); err != nil {
		t.Fatalf("ack after Sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := l.Append(OpInsert, 1, tri(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestBadHeaderLastSegmentDeleted(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "t.wal")
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := mustAppend(t, l, OpInsert, 0, tri(0)).Wait(context.Background()); err != nil {
		t.Fatalf("ack: %v", err)
	}
	l.Close()
	// A crash mid-rotation leaves a header-less file; rotation makes the
	// header durable before any record, so nothing acked lives in it.
	bad := filepath.Join(dir, "seg-00000002.wal")
	os.WriteFile(bad, []byte("partial"), 0o644)

	l2, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if len(recs) != 1 {
		t.Fatalf("recovered %d records, want 1", len(recs))
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatal("header-less last segment not deleted")
	}
	// The log reuses the freed index without colliding.
	if err := mustAppend(t, l2, OpInsert, 1, tri(1)).Wait(context.Background()); err != nil {
		t.Fatalf("append after delete: %v", err)
	}
}

func TestSegmentChainBreakFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "t.wal")
	l, _, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := mustAppend(t, l, OpInsert, uint64(i), tri(float64(i))).Wait(context.Background()); err != nil {
			t.Fatalf("ack: %v", err)
		}
	}
	if l.Stats().Segments < 3 {
		t.Fatalf("want 3 segments, have %d", l.Stats().Segments)
	}
	l.Close()
	// Deleting a middle segment breaks the LSN chain.
	if err := os.Remove(filepath.Join(dir, "seg-00000002.wal")); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError for broken chain, got %v", err)
	}
}

func TestEncodeDecodeHostileLengths(t *testing.T) {
	// decodePayload must reject mismatched vertex counts without panicking
	// or allocating past the input.
	r := Record{LSN: 1, Op: OpInsert, ID: 9, Verts: tri(0)}
	b := appendRecord(nil, r)
	payload := b[recHeaderSize:]
	for cut := 0; cut < len(payload); cut++ {
		decodePayload(payload[:cut]) // must not panic
	}
	if _, ok := decodePayload(payload); !ok {
		t.Fatal("valid payload rejected")
	}
	if _, ok := decodePayload(append([]byte(nil), payload[:insertPayload]...)); ok {
		t.Fatal("payload with missing vertices accepted")
	}
	for i := 0; i < 100; i++ {
		if _, ok := decodePayload([]byte(fmt.Sprintf("%017d", i))); ok {
			t.Fatal("garbage payload accepted")
		}
	}
}
