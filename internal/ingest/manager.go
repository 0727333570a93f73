package ingest

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/wal"
)

// Options configures a Manager and the tables it opens.
type Options struct {
	// Dir is the data directory; table NAME lives at Dir/NAME.snap with
	// WAL segments under Dir/NAME.wal/.
	Dir string
	// WAL tunes group commit for every table (zero values = wal defaults).
	//
	//reach:keep TestIngestOverWireAndMetrics needs tiny segments so its inserts rotate and truncate WAL segments
	WAL wal.Options
	// Faults arms the wal.* and compact.* durability fault sites.
	Faults *faultinject.Injector
	// CompactPending triggers background compaction once a table carries
	// at least this many uncompacted operations. Default 4096.
	CompactPending int
	// CompactSegments triggers background compaction once the WAL holds
	// at least this many sealed segments plus the active one. Default 2.
	CompactSegments int
	// Interval is the compactor's poll cadence. Default 2s.
	Interval time.Duration
	// DisableCompactor turns the background compactor off; compaction
	// then only happens through explicit Table.Compact calls.
	DisableCompactor bool
}

func (o Options) withDefaults() Options {
	if o.CompactPending <= 0 {
		o.CompactPending = 4096
	}
	if o.CompactSegments <= 0 {
		o.CompactSegments = 2
	}
	if o.Interval <= 0 {
		o.Interval = 2 * time.Second
	}
	return o
}

// Manager owns the set of live tables and runs the background compactor
// that keeps their deltas folded and WALs truncated.
type Manager struct {
	opt Options

	mu     sync.Mutex
	tables map[string]*Table
	closed bool

	quit chan struct{}
	done chan struct{}
}

// NewManager builds a manager rooted at opt.Dir and starts the background
// compactor (unless disabled). Close stops it.
func NewManager(opt Options) *Manager {
	m := &Manager{
		opt:    opt.withDefaults(),
		tables: map[string]*Table{},
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if m.opt.DisableCompactor {
		close(m.done)
	} else {
		go m.run()
	}
	return m
}

// Open returns the named table, opening (and recovering) it on first use.
// Concurrent Opens of the same name share one table.
func (m *Manager) Open(name string) (*Table, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, wal.ErrClosed
	}
	if t, ok := m.tables[name]; ok {
		return t, nil
	}
	wo := m.opt.WAL
	if wo.Faults == nil {
		wo.Faults = m.opt.Faults
	}
	t, err := OpenTable(m.opt.Dir, name, TableOptions{WAL: wo, Faults: m.opt.Faults})
	if err != nil {
		return nil, err
	}
	m.tables[name] = t
	return t, nil
}

// Get returns an already-open table without opening anything.
func (m *Manager) Get(name string) (*Table, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tables[name]
	return t, ok
}

// Tables lists the open tables sorted by name.
func (m *Manager) Tables() []*Table {
	m.mu.Lock()
	out := make([]*Table, 0, len(m.tables))
	for _, t := range m.tables {
		out = append(out, t)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// run is the background compactor: poll every table, fold any that
// crossed the pending-ops or WAL-segment trigger.
func (m *Manager) run() {
	defer close(m.done)
	tick := time.NewTicker(m.opt.Interval)
	defer tick.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-tick.C:
			for _, t := range m.Tables() {
				ws := t.log.Stats()
				if t.Pending() >= m.opt.CompactPending || (ws.Segments > m.opt.CompactSegments && t.Pending() > 0) {
					// Errors are carried in table counters/WAL poison
					// state; the compactor retries on the next tick.
					_ = t.Compact(context.Background())
				}
			}
		}
	}
}

// Totals aggregates durability counters across all tables, the feed for
// the server's wal_* / compaction_* Prometheus surface.
type Totals struct {
	Tables          int     `json:"tables"`
	Objects         int     `json:"objects"`
	Pending         int     `json:"pending"`
	Inserts         int64   `json:"inserts"`
	Deletes         int64   `json:"deletes"`
	NotFound        int64   `json:"not_found"`
	WALAppends      int64   `json:"wal_appends"`
	WALBatches      int64   `json:"wal_batches"`
	WALBytes        int64   `json:"wal_bytes"`
	WALRotations    int64   `json:"wal_rotations"`
	WALSegments     int64   `json:"wal_segments"`
	WALTruncated    int64   `json:"wal_truncated"`
	WALRecovered    int64   `json:"wal_recovered"`
	WALTornBytes    int64   `json:"wal_torn_bytes"`
	Compactions     int64   `json:"compactions"`
	CompactMS       float64 `json:"compact_ms"`
	CompactedFolded int64   `json:"compacted_folded"`
}

// Totals sums per-table stats into the fleet-wide durability record.
func (m *Manager) Totals() Totals {
	var tot Totals
	for _, t := range m.Tables() {
		st := t.Stats()
		tot.Tables++
		tot.Objects += st.Objects
		tot.Pending += st.Pending
		tot.Inserts += st.Inserts
		tot.Deletes += st.Deletes
		tot.NotFound += st.NotFound
		tot.WALAppends += st.WAL.Appends
		tot.WALBatches += st.WAL.Batches
		tot.WALBytes += st.WAL.Bytes
		tot.WALRotations += st.WAL.Rotations
		tot.WALSegments += int64(st.WAL.Segments)
		tot.WALTruncated += st.WAL.Truncated
		tot.WALRecovered += st.WAL.Recovered
		tot.WALTornBytes += st.WAL.TornBytes
		tot.Compactions += st.Compactions
		tot.CompactMS += st.CompactMS
		tot.CompactedFolded += st.LastFolded
	}
	return tot
}

// Close stops the compactor and closes every table's WAL.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	close(m.quit)
	<-m.done
	var first error
	for _, t := range m.Tables() {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
