// Package server implements spatiald's concurrent network layer over the
// spatial query engine: a line-oriented TCP wire protocol speaking the
// shared shellcmd grammar, an HTTP/JSON endpoint, /metrics and /healthz
// surfaces, a copy-on-write layer catalog shared by all sessions, an
// admission-control semaphore bounding concurrent refinements, structured
// per-query access logging, and graceful shutdown that drains in-flight
// queries into partial results. See DESIGN.md §7.
package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/query"
	"repro/internal/shellcmd"
)

// CatalogFullError is the typed refusal returned when a Set would grow
// the catalog past its configured layer limit.
type CatalogFullError struct {
	Limit int
}

func (e *CatalogFullError) Error() string {
	return fmt.Sprintf("catalog full: limit of %d layers reached (reuse an existing name)", e.Limit)
}

// Catalog is the server's shared layer namespace. Reads are lock-free
// loads of an immutable snapshot map; writes copy the current snapshot,
// apply the change, and publish the copy — so a gen or load never blocks
// an in-flight query, and a query's view of the catalog is torn at
// command granularity only (Engine.Exec takes one View per command).
// Layers themselves are immutable once published (lazy hull construction
// is internally synchronized), which is what makes snapshot sharing
// sound.
type Catalog struct {
	maxLayers int

	mu   sync.Mutex // serializes writers only
	snap atomic.Pointer[map[string]query.Source]
}

// NewCatalog builds an empty catalog holding at most maxLayers layers
// (0 means unlimited).
func NewCatalog(maxLayers int) *Catalog {
	c := &Catalog{maxLayers: maxLayers}
	empty := map[string]query.Source{}
	c.snap.Store(&empty)
	return c
}

// Get returns the source (layer or live table) currently bound to name.
func (c *Catalog) Get(name string) (query.Source, bool) {
	l, ok := (*c.snap.Load())[name]
	return l, ok
}

// Set publishes a new snapshot with name bound to l. Binding a new name
// beyond the layer limit returns a *CatalogFullError; rebinding an
// existing name always succeeds (in-flight queries keep the layer they
// already resolved).
func (c *Catalog) Set(name string, l query.Source) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := *c.snap.Load()
	if _, exists := old[name]; !exists && c.maxLayers > 0 && len(old) >= c.maxLayers {
		return &CatalogFullError{Limit: c.maxLayers}
	}
	next := make(map[string]query.Source, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = l
	c.snap.Store(&next)
	return nil
}

// Names lists the bound names, sorted.
func (c *Catalog) Names() []string {
	m := *c.snap.Load()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the current layer count.
func (c *Catalog) Len() int { return len(*c.snap.Load()) }

// View returns a read-consistent view pinned to the current snapshot;
// writes through the view still publish to the live catalog. Engine.Exec
// calls this once per command, so a join resolves both layers from one
// catalog generation.
func (c *Catalog) View() shellcmd.Store {
	return &catalogView{snap: *c.snap.Load(), live: c}
}

type catalogView struct {
	snap map[string]query.Source
	live *Catalog
}

func (v *catalogView) Get(name string) (query.Source, bool) {
	l, ok := v.snap[name]
	return l, ok
}

func (v *catalogView) Set(name string, l query.Source) error {
	return v.live.Set(name, l)
}

func (v *catalogView) Names() []string {
	names := make([]string, 0, len(v.snap))
	for n := range v.snap {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
