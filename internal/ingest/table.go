// Package ingest couples the live query overlay (query.Live) with its
// durability artifacts: a group-committed write-ahead log and a background
// compactor that folds the accumulated delta into a fresh SPSNAP01
// snapshot generation.
//
// Durability contract: a mutation is applied to the in-memory table the
// moment it is sequenced (so queries on this node see it immediately and
// replay order equals apply order), but the call does not return success
// until the WAL record is fsynced. After a crash, recovery replays every
// WAL record with LSN above the snapshot's AppliedLSN watermark — acked
// writes are always recovered, unacked writes are either fully present or
// fully absent (record CRCs and torn-tail truncation rule out partial
// application), and replay is bit-identical to a from-scratch build of the
// same state because stable ids keep canonical order.
//
// Compaction lifecycle: freeze the canonical state, write the new
// snapshot generation (atomic temp + fsync + rename + dir fsync), reopen
// it, swap the serving table while replaying the operations that arrived
// during the write, and only then truncate WAL segments at or below the
// frozen watermark. A crash at any point leaves either the old
// generation + full WAL or the new generation + a WAL whose stale prefix
// the AppliedLSN watermark filters out on replay.
package ingest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/wal"
)

// NotFoundError reports a delete aimed at a stable id with no alive
// object. The miss is decided before anything is logged, so a NotFound
// delete leaves no WAL record.
type NotFoundError struct {
	Table string
	ID    uint64
}

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("ingest: table %s has no object with id %d", e.Table, e.ID)
}

// Table is one durably-ingesting spatial table: an immutable base
// snapshot (possibly empty for a freshly created table), a live in-memory
// overlay, and the WAL that makes the overlay crash-safe. Table
// implements query.Source; serving layers query it like any layer.
type Table struct {
	name     string
	snapPath string

	log    *wal.Log
	faults *faultinject.Injector

	// mu serializes mutations and the compaction swap. Mutations hold it
	// across sequence-and-apply so in-memory apply order equals LSN
	// order; the durability wait happens after release.
	mu         sync.Mutex
	live       *query.Live
	snap       *store.Snapshot // nil for a memory-seeded generation
	ops        []wal.Record    // applied but not yet folded into a snapshot
	compacting bool

	inserts      atomic.Int64
	deletes      atomic.Int64
	notFound     atomic.Int64
	compactions  atomic.Int64
	compactNanos atomic.Int64
	lastFolded   atomic.Int64 // delta+tombstones folded by the last compaction
}

// TableOptions configures a table's durability machinery.
type TableOptions struct {
	// WAL tunes group commit; WAL.Faults also arms the wal.* crash sites.
	WAL wal.Options
	// Faults arms the compact.* sites (usually the same injector as
	// WAL.Faults).
	Faults *faultinject.Injector
}

// OpenTable opens (or creates) the table rooted at dir/name: snapshot at
// dir/name.snap, WAL segments under dir/name.wal/. Recovery replays the
// WAL tail above the snapshot's watermark before the table serves.
func OpenTable(dir, name string, opt TableOptions) (*Table, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	t := &Table{
		name:     name,
		snapPath: filepath.Join(dir, name+".snap"),
		faults:   opt.Faults,
	}
	var (
		base       *query.Layer
		ids        []uint64
		nextID     uint64
		appliedLSN uint64
	)
	if _, err := os.Stat(t.snapPath); err == nil {
		s, err := store.Open(t.snapPath, store.OpenOptions{})
		if err != nil {
			return nil, fmt.Errorf("ingest: open snapshot: %w", err)
		}
		base, err = query.NewLayerFromSnapshot(s)
		if err != nil {
			s.Close()
			return nil, err
		}
		t.snap = s
		ids, nextID, appliedLSN = s.IDs(), s.NextID(), s.AppliedLSN()
	} else {
		base = query.NewLayer(&data.Dataset{Name: name})
	}
	t.live = query.NewLive(base, ids, nextID, appliedLSN)

	walDir := filepath.Join(dir, name+".wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	log, recovered, err := wal.Open(walDir, opt.WAL)
	if err != nil {
		return nil, err
	}
	t.log = log
	for _, rec := range recovered {
		if rec.LSN <= appliedLSN {
			continue // already folded into the snapshot generation
		}
		if err := apply(t.live, rec); err != nil {
			log.Close()
			return nil, err
		}
		t.ops = append(t.ops, rec)
	}
	return t, nil
}

// apply replays one logged operation onto lv: a recovered WAL record onto
// the recovering table, or an operation sequenced after a compaction's
// freeze onto the next generation at swap time.
func apply(lv *query.Live, rec wal.Record) error {
	switch rec.Op {
	case wal.OpInsert:
		p, err := geom.NewPolygon(rec.Verts)
		if err != nil {
			return fmt.Errorf("ingest: replay lsn %d: %w", rec.LSN, err)
		}
		lv.ApplyInsert(rec.ID, p, rec.LSN)
	case wal.OpDelete:
		// The miss check ran before the record was logged, so replay in
		// LSN order always finds the object; a miss here would mean the
		// log and the generation under it disagree, which surfaces loudly.
		if !lv.ApplyDelete(rec.ID, rec.LSN) {
			return fmt.Errorf("ingest: replay lsn %d: delete of missing id %d", rec.LSN, rec.ID)
		}
	default:
		return fmt.Errorf("ingest: replay lsn %d: unknown op %d", rec.LSN, rec.Op)
	}
	return nil
}

// Name returns the table's catalog name.
func (t *Table) Name() string { return t.name }

// View implements query.Source: a consistent point-in-time read view.
func (t *Table) View() *query.View {
	t.mu.Lock()
	lv := t.live
	t.mu.Unlock()
	return lv.View()
}

// Insert durably adds a polygon and returns its stable id. The object is
// queryable on this node as soon as it is sequenced; Insert returns only
// after the WAL record is fsynced (group commit), or with the fsync error
// that permanently poisons the log.
func (t *Table) Insert(ctx context.Context, p *geom.Polygon) (uint64, error) {
	t.mu.Lock()
	id := t.live.ReserveID()
	ack, err := t.log.Append(wal.OpInsert, id, p.Verts)
	if err != nil {
		t.mu.Unlock()
		return 0, err
	}
	t.live.ApplyInsert(id, p, ack.LSN)
	t.ops = append(t.ops, wal.Record{LSN: ack.LSN, Op: wal.OpInsert, ID: id, Verts: p.Verts})
	t.mu.Unlock()
	if err := ack.Wait(ctx); err != nil {
		return 0, err
	}
	t.inserts.Add(1)
	return id, nil
}

// Delete durably tombstones the object with the stable id. A miss is
// decided before logging and returns *NotFoundError with no WAL traffic.
func (t *Table) Delete(ctx context.Context, id uint64) error {
	t.mu.Lock()
	if !t.live.Has(id) {
		t.mu.Unlock()
		t.notFound.Add(1)
		return &NotFoundError{Table: t.name, ID: id}
	}
	ack, err := t.log.Append(wal.OpDelete, id, nil)
	if err != nil {
		t.mu.Unlock()
		return err
	}
	t.live.ApplyDelete(id, ack.LSN)
	t.ops = append(t.ops, wal.Record{LSN: ack.LSN, Op: wal.OpDelete, ID: id})
	t.mu.Unlock()
	if err := ack.Wait(ctx); err != nil {
		return err
	}
	t.deletes.Add(1)
	return nil
}

// Pending reports uncompacted state (alive delta objects + tombstones).
func (t *Table) Pending() int {
	t.mu.Lock()
	lv := t.live
	t.mu.Unlock()
	return lv.Pending()
}

// Compact folds the live overlay and WAL into a fresh snapshot
// generation. It is a no-op when nothing is pending or another compaction
// is running. Writes keep flowing during the fold: operations sequenced
// after the freeze are replayed onto the new generation at swap time, and
// WAL segments are truncated only after the new snapshot is durable —
// the compact.save / compact.publish / compact.truncate fault sites sit
// exactly at the three crash-interesting boundaries.
func (t *Table) Compact(ctx context.Context) error {
	t.mu.Lock()
	if t.compacting {
		t.mu.Unlock()
		return nil
	}
	if t.live.Pending() == 0 {
		t.mu.Unlock()
		return nil
	}
	t.compacting = true
	fr := t.live.Freeze()
	frozenOps := len(t.ops)
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		t.compacting = false
		t.mu.Unlock()
	}()
	start := time.Now()

	// Everything sequenced so far must be durable before the snapshot
	// claims its watermark: a snapshot advertising AppliedLSN=n tells
	// recovery to skip LSNs ≤ n, which is only safe once they are synced.
	if err := t.log.Sync(ctx); err != nil {
		return err
	}

	if f := t.fault(faultinject.SiteCompactSave); f.Crash {
		faultinject.Crash()
	} else if f.Err {
		return fmt.Errorf("ingest: injected fault at %s", faultinject.SiteCompactSave)
	}
	if _, err := store.Save(t.snapPath, fr.Dataset, store.SaveOptions{
		IDs:        fr.IDs,
		NextID:     fr.NextID,
		AppliedLSN: fr.AppliedLSN,
	}); err != nil {
		return fmt.Errorf("ingest: compact save: %w", err)
	}

	if f := t.fault(faultinject.SiteCompactPublish); f.Crash {
		faultinject.Crash()
	} else if f.Err {
		return fmt.Errorf("ingest: injected fault at %s", faultinject.SiteCompactPublish)
	}
	s, err := store.Open(t.snapPath, store.OpenOptions{})
	if err != nil {
		return fmt.Errorf("ingest: reopen compacted snapshot: %w", err)
	}
	layer, err := query.NewLayerFromSnapshot(s)
	if err != nil {
		s.Close()
		return err
	}

	t.mu.Lock()
	next := query.NewLive(layer, s.IDs(), s.NextID(), s.AppliedLSN())
	for _, rec := range t.ops[frozenOps:] {
		if err := apply(next, rec); err != nil {
			t.mu.Unlock()
			s.Close()
			return err
		}
	}
	t.ops = append([]wal.Record(nil), t.ops[frozenOps:]...)
	// The previous generation's snapshot stays open: in-flight queries may
	// still hold views over it (same leak-by-design as the server's COW
	// catalog swap).
	t.live = next
	t.snap = s
	t.mu.Unlock()

	if f := t.fault(faultinject.SiteCompactTruncate); f.Crash {
		faultinject.Crash()
	} else if f.Err {
		return fmt.Errorf("ingest: injected fault at %s", faultinject.SiteCompactTruncate)
	}
	if _, err := t.log.TruncateThrough(fr.AppliedLSN); err != nil {
		return fmt.Errorf("ingest: truncate wal: %w", err)
	}
	t.compactions.Add(1)
	t.compactNanos.Add(int64(time.Since(start)))
	t.lastFolded.Store(int64(fr.Delta + fr.Tombs))
	return nil
}

func (t *Table) fault(site string) faultinject.IOFault {
	if t.faults == nil {
		return faultinject.IOFault{}
	}
	return t.faults.WriteFault(site)
}

// Close flushes and closes the WAL. The table must not be used after.
func (t *Table) Close() error {
	return t.log.Close()
}

// TableStats is a point-in-time observability snapshot of one table.
type TableStats struct {
	Name        string    `json:"name"`
	Objects     int       `json:"objects"`
	Delta       int       `json:"delta"`
	Tombstones  int       `json:"tombstones"`
	Pending     int       `json:"pending"`
	AppliedLSN  uint64    `json:"applied_lsn"`
	WAL         wal.Stats `json:"wal"`
	Inserts     int64     `json:"inserts"`
	Deletes     int64     `json:"deletes"`
	NotFound    int64     `json:"not_found"`
	Compactions int64     `json:"compactions"`
	CompactMS   float64   `json:"compact_ms"`
	LastFolded  int64     `json:"last_folded"`
}

// Stats reports the table's live composition and durability counters.
func (t *Table) Stats() TableStats {
	t.mu.Lock()
	lv := t.live
	t.mu.Unlock()
	v := lv.View()
	_, delta, tombs := v.Counts()
	return TableStats{
		Name:        t.name,
		Objects:     v.NumObjects(),
		Delta:       delta,
		Tombstones:  tombs,
		Pending:     lv.Pending(),
		AppliedLSN:  lv.AppliedLSN(),
		WAL:         t.log.Stats(),
		Inserts:     t.inserts.Load(),
		Deletes:     t.deletes.Load(),
		NotFound:    t.notFound.Load(),
		Compactions: t.compactions.Load(),
		CompactMS:   float64(t.compactNanos.Load()) / 1e6,
		LastFolded:  t.lastFolded.Load(),
	}
}

func validName(name string) error {
	if name == "" {
		return fmt.Errorf("ingest: empty table name")
	}
	for _, r := range name {
		ok := r == '-' || r == '_' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !ok {
			return fmt.Errorf("ingest: table name %q: only [A-Za-z0-9_-] allowed", name)
		}
	}
	return nil
}
