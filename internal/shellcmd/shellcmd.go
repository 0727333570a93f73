// Package shellcmd is the one command grammar shared by the interactive
// spatialdb shell and spatiald's network wire protocol: a line-oriented
// language over the query engine (gen, load, layers, stats, join, pjoin,
// overlay, within, select, knn, timeout, budget, help). Extracting it
// keeps the two front ends from drifting — a command behaves identically
// typed at the shell prompt, piped over TCP, or posted to the HTTP
// endpoint, and every query reports through the uniform query.Stats
// record that the serving layer logs and aggregates.
//
// An Engine executes one command at a time against a Store (the layer
// namespace). Single-user callers use a MapStore; concurrent callers
// provide a Store whose View method returns a read-consistent snapshot so
// that a join reads both its layers from the same catalog generation.
package shellcmd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/ingest"
	"repro/internal/partition"
	"repro/internal/query"
	snap "repro/internal/store"
)

// Store is the layer namespace a command executes against. Values are
// query.Source: plain immutable layers and live ingesting tables bind
// under the same names and every query verb works on both.
type Store interface {
	Get(name string) (query.Source, bool)
	// Set binds a name to a source; implementations may refuse (e.g. a
	// bounded server catalog).
	Set(name string, s query.Source) error
	Names() []string
}

// Viewer is optionally implemented by stores that can produce a
// read-consistent view for the duration of one command. The Engine takes
// one view per Exec, so a two-layer query never mixes catalog
// generations.
type Viewer interface {
	View() Store
}

// MapStore is the plain single-session Store used by the interactive
// shell and by stateless one-shot callers.
type MapStore map[string]query.Source

// Get looks the name up.
func (m MapStore) Get(name string) (query.Source, bool) { s, ok := m[name]; return s, ok }

// Set binds the name; a MapStore never refuses.
func (m MapStore) Set(name string, s query.Source) error { m[name] = s; return nil }

// Names lists the bound names, sorted.
func (m MapStore) Names() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Settings are the per-session query guards, mutated by the timeout and
// budget commands.
type Settings struct {
	// Timeout bounds each query; zero means none.
	Timeout time.Duration
	// MaxTimeout is a server-imposed ceiling on the effective per-query
	// wall-clock budget: sessions may lower their timeout below it but
	// not escape it (zero means no ceiling). The effective budget is
	// min(Timeout, MaxTimeout), with zero Timeout meaning "just the
	// ceiling".
	MaxTimeout time.Duration
	// Budget caps MBR-filter candidates per query; zero means unlimited.
	Budget int
	// BatchSize overrides the join executor's candidate batch size and the
	// selection sink's flush granularity; zero means
	// core.DefaultBatchSize.
	BatchSize int
	// NoIntervals ablates the intersection joins' v2
	// interval-approximation filter back to the v1 raster-signature path.
	// Within-distance joins and selections run no interval stage.
	// Differential knob for the intervals verb.
	NoIntervals bool
}

// EffectiveTimeout resolves the session timeout against the server
// ceiling; zero means unbounded.
func (s Settings) EffectiveTimeout() time.Duration {
	d := s.Timeout
	if s.MaxTimeout > 0 && (d == 0 || d > s.MaxTimeout) {
		d = s.MaxTimeout
	}
	return d
}

// Result reports what one executed command did, in the uniform serving
// shape.
type Result struct {
	// Stats is the query's uniform statistics record; for non-query
	// commands only Op is set.
	Stats query.Stats
	// Partial is non-nil when the query was interrupted (timeout or
	// cancellation): the output above it is valid but incomplete.
	Partial *query.PartialError
	// Mutation reports that the command changed the store or settings.
	Mutation bool
}

// Engine executes commands against a store with per-session settings.
// An Engine is not safe for concurrent use; give each session its own.
type Engine struct {
	Store    Store
	Settings Settings
	// Tester is the base configuration of every refinement tester the
	// engine builds; every command adds DisableHardware (see testerConfig).
	Tester core.Config
	// DataDir, when set, is where save and load resolve bare snapshot
	// names: a path without a directory separator lands under DataDir,
	// and a missing extension gets ".snap".
	DataDir string
	// Live, when set, enables the durable ingestion verbs (live, insert,
	// delete, compact); tables open rooted at the manager's data
	// directory. Nil disables ingestion with a clear error.
	Live *ingest.Manager
	// Coord, when set, switches the engine into coordinator mode: the
	// query verbs fan out over the shard fleet instead of running the
	// local refinement pipeline, and local data verbs are refused with a
	// typed *CoordUnsupportedError (see coordmode.go).
	Coord *coord.Coordinator
}

// snapPath resolves a snapshot argument against the engine's DataDir.
func (e *Engine) snapPath(p string) string {
	if filepath.Ext(p) == "" {
		p += ".snap"
	}
	if e.DataDir != "" && !strings.ContainsAny(p, `/\`) {
		p = filepath.Join(e.DataDir, p)
	}
	return p
}

// IsQuery reports whether the verb runs the refinement pipeline (and so
// should pass a server's admission control), as opposed to an
// administrative command.
func IsQuery(verb string) bool {
	switch verb {
	case "join", "pjoin", "overlay", "within", "select", "knn",
		"shardjoin", "shardwithin", "shardselect", "batch":
		return true
	}
	return false
}

// Verb returns the command word of a line ("" for blank lines).
func Verb(line string) string {
	f := strings.Fields(line)
	if len(f) == 0 {
		return ""
	}
	return f[0]
}

// Exec runs one command line, writing its human-readable output to out.
// Hard failures (bad syntax, unknown layers, budget overflows) are
// returned as errors with nothing of substance written; interruptions
// are soft — partial output is written, a note line records the
// interruption, and Result.Partial carries the typed error.
func (e *Engine) Exec(ctx context.Context, line string, out io.Writer) (Result, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return Result{}, nil
	}
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "batch":
		// One round trip, one admission slot, N sub-commands; works in
		// both local and coordinator mode, so it dispatches before the
		// coordinator switch.
		return e.batchCmd(ctx, line, out)
	case "pipeline":
		return e.setPipeline(args, out)
	case "intervals":
		return e.setIntervals(args, out)
	}
	if e.Coord != nil {
		return e.coordExec(ctx, cmd, args, line, out)
	}
	store := e.Store
	if v, ok := store.(Viewer); ok {
		store = v.View()
	}
	switch cmd {
	case "help":
		fmt.Fprint(out, Help)
		return Result{Stats: query.Stats{Op: "help"}}, nil
	case "gen":
		return e.gen(store, args, out)
	case "load":
		return e.load(store, args, out)
	case "save":
		return e.save(store, args, out)
	case "layers":
		e.listLayers(store, out)
		return Result{Stats: query.Stats{Op: "layers"}}, nil
	case "stats":
		return e.layerStats(store, args, out)
	case "timeout":
		return e.setTimeout(args, out)
	case "budget":
		return e.setBudget(args, out)
	case "live":
		return e.live(store, args, out)
	case "insert":
		return e.insert(ctx, store, line, out)
	case "delete":
		return e.deleteCmd(ctx, store, args, out)
	case "compact":
		return e.compact(ctx, store, args, out)
	case "join", "pjoin", "shardjoin":
		return e.joinCmd(ctx, store, cmd, args, out)
	case "within", "shardwithin":
		return e.withinCmd(ctx, store, cmd, args, out)
	case "overlay":
		return e.overlay(ctx, store, args, out)
	case "select", "shardselect":
		return e.selectCmd(ctx, store, cmd, line, out)
	case "knn":
		return e.knn(ctx, store, line, out)
	case "partition":
		return e.partitionCmd(store, args, out)
	default:
		return Result{}, fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

// Help is the grammar reference printed by the help command.
const Help = `commands:
  gen <name> <DATASET> <scale>      generate a synthetic layer (LANDC, LANDO, STATES50, PRISM, WATER)
  load <name> <path>                load a layer from .json, .wkt, or a .snap snapshot
  save <name> <path> [nointervals]  save a layer as a binary snapshot (indexes + signatures + intervals)
  layers                            list loaded layers
  stats <name>                      Table 2 statistics of a layer
  join <a> <b> [sw|hw]              intersection join, refined in software (both words)
  pjoin <a> <b> [workers]           intersection join with a worker count (0 = one per CPU)
  overlay <a> <b>                   map overlay: per-pair intersection areas
  within <a> <b> <D> [sw|hw]        within-distance join
  select <layer> <WKT POLYGON>      intersection selection with a query polygon
  knn <layer> <WKT POLYGON> <k>     k nearest objects to a query polygon
  timeout <duration|off>            bound each query (e.g. timeout 2s)
  budget <n|off>                    cap MBR candidates per query
  pipeline on [batch]               candidate batch size of the join executor and the select row stream
  intervals <on|off>                joins' v2 interval-approximation filter (off = v1 signature path)
  batch <cmd>; <cmd>; ...           run N commands in one round trip under one admission slot
  partition <layer> <n> <dir> [m [r]]  split a layer into n spatial tiles under dir (replication margin m, r replicas per tile)
  shardselect <layer> <WKT>         shard-side select: emits "id <N>" lines with stable ids
  shardjoin <a> <b> <region> [mode] shard-side join over an ownership region (4 floats): emits "pair <A> <B>"
  shardwithin <a> <b> <D> <region>  shard-side within-distance join with reference-point dedup
  live <name>                       open (or create) a durable live table
  insert <table> <WKT POLYGON>      durably insert; acks after the WAL group commit
  delete <table> <id>               durably tombstone the object with the stable id
  compact <table>                   fold the live delta into a fresh snapshot generation
  quit                              leave

Interrupted queries (timeout or budget) report their partial results and
the typed error instead of failing silently. Queries over a live table
read snapshot ∪ delta − tombstones; knn and overlay need a compacted
table.
`

// viewOf resolves a name to a point-in-time read view; live tables
// compose snapshot ∪ delta − tombstones, plain layers are themselves.
func viewOf(store Store, name string) (*query.View, error) {
	s, ok := store.Get(name)
	if !ok {
		return nil, fmt.Errorf("no layer %q (see layers)", name)
	}
	return s.View(), nil
}

// singleOf resolves a name for verbs that require an undecorated layer
// (kNN's ordered index walk, the overlay join): live views with pending
// mutations are refused with the typed compact-first error.
func singleOf(store Store, name, op string) (*query.Layer, error) {
	v, err := viewOf(store, name)
	if err != nil {
		return nil, err
	}
	if l, ok := v.Single(); ok {
		return l, nil
	}
	return nil, &query.LiveUnsupportedError{Op: op}
}

// tableOf resolves a name to a live ingesting table.
func tableOf(store Store, name string) (*ingest.Table, error) {
	s, ok := store.Get(name)
	if !ok {
		return nil, fmt.Errorf("no layer %q (see layers)", name)
	}
	t, ok := s.(*ingest.Table)
	if !ok {
		return nil, fmt.Errorf("layer %q is not a live table (bind one with live)", name)
	}
	return t, nil
}

// liveStats folds the views' live composition into the stats record so
// access logs show when a query paid the uncompacted-delta price.
func liveStats(st *query.Stats, views ...*query.View) {
	for _, v := range views {
		if _, ok := v.Single(); ok {
			continue
		}
		_, delta, tombs := v.Counts()
		st.LiveDelta += delta
		st.LiveTombstones += tombs
	}
}

func (e *Engine) gen(store Store, args []string, out io.Writer) (Result, error) {
	if len(args) != 3 {
		return Result{}, fmt.Errorf("usage: gen <name> <DATASET> <scale>")
	}
	scale, err := strconv.ParseFloat(args[2], 64)
	if err != nil {
		return Result{}, fmt.Errorf("bad scale: %w", err)
	}
	d, err := data.Load(strings.ToUpper(args[1]), scale)
	if err != nil {
		return Result{}, err
	}
	if err := store.Set(args[0], query.NewLayer(d)); err != nil {
		return Result{}, err
	}
	fmt.Fprintf(out, "layer %q: %d objects\n", args[0], len(d.Objects))
	return Result{Stats: query.Stats{Op: "gen", Results: len(d.Objects)}, Mutation: true}, nil
}

func (e *Engine) load(store Store, args []string, out io.Writer) (Result, error) {
	if len(args) != 2 {
		return Result{}, fmt.Errorf("usage: load <name> <path>")
	}
	if strings.HasSuffix(args[1], ".snap") || filepath.Ext(args[1]) == "" {
		return e.loadSnap(store, args[0], e.snapPath(args[1]), out)
	}
	var (
		d   *data.Dataset
		err error
	)
	if strings.HasSuffix(args[1], ".wkt") {
		d, err = data.LoadWKTFile(args[1])
	} else {
		d, err = data.LoadFile(args[1])
	}
	if err != nil {
		return Result{}, err
	}
	if err := store.Set(args[0], query.NewLayer(d)); err != nil {
		return Result{}, err
	}
	fmt.Fprintf(out, "layer %q: %d objects\n", args[0], len(d.Objects))
	return Result{Stats: query.Stats{Op: "load", Results: len(d.Objects)}, Mutation: true}, nil
}

// loadSnap binds a layer loaded from a binary snapshot: the R-tree, edge
// boxes and raster signatures come from the file instead of being
// rebuilt, and the load provenance flows into the stats record.
func (e *Engine) loadSnap(store Store, name, path string, out io.Writer) (Result, error) {
	s, err := snap.Open(path, snap.OpenOptions{})
	if err != nil {
		return Result{}, err
	}
	l, err := query.NewLayerFromSnapshot(s)
	if err != nil {
		s.Close()
		return Result{}, err
	}
	if err := store.Set(name, l); err != nil {
		s.Close()
		return Result{}, err
	}
	st := s.Stats()
	fmt.Fprintf(out, "layer %q: %d objects from snapshot (%d bytes, %d sections, mmap=%v, %.1fms)\n",
		name, s.NumObjects(), st.Bytes, st.Sections, st.MMap, st.LoadMS)
	return Result{
		Stats: query.Stats{
			Op: "load", Results: s.NumObjects(),
			SnapshotBytes: st.Bytes, SnapshotSections: st.Sections,
			SnapshotMMap: st.MMap, SnapshotLoadMS: st.LoadMS,
		},
		Mutation: true,
	}, nil
}

func (e *Engine) save(store Store, args []string, out io.Writer) (Result, error) {
	if len(args) < 2 || len(args) > 3 {
		return Result{}, fmt.Errorf("usage: save <name> <path> [nointervals]")
	}
	opts := snap.SaveOptions{Tool: "spatialdb"}
	if len(args) == 3 {
		if args[2] != "nointervals" {
			return Result{}, fmt.Errorf("bad save option %q (only nointervals)", args[2])
		}
		opts.IntervalOrder = -1
	}
	v, err := viewOf(store, args[0])
	if err != nil {
		return Result{}, err
	}
	path := e.snapPath(args[1])
	bs, err := snap.Save(path, v.Dataset(), opts)
	if err != nil {
		return Result{}, err
	}
	fmt.Fprintf(out, "saved %q to %s: %d objects, %d sections, %d bytes in %.1fms\n",
		args[0], path, bs.Objects, bs.Sections, bs.Bytes, bs.BuildMS)
	return Result{Stats: query.Stats{Op: "save", Results: bs.Objects}, Mutation: true}, nil
}

func (e *Engine) listLayers(store Store, out io.Writer) {
	names := store.Names()
	if len(names) == 0 {
		fmt.Fprintln(out, "(no layers; use gen or load)")
		return
	}
	for _, n := range names {
		if s, ok := store.Get(n); ok {
			v := s.View()
			origin := v.Origin()
			if _, single := v.Single(); !single {
				_, delta, tombs := v.Counts()
				origin = fmt.Sprintf("%s; +%d/-%d uncompacted", origin, delta, tombs)
			}
			fmt.Fprintf(out, "%-12s %6d objects  bounds %v  [%s]\n", n, v.NumObjects(), v.Dataset().Bounds(), origin)
		}
	}
}

func (e *Engine) layerStats(store Store, args []string, out io.Writer) (Result, error) {
	if len(args) != 1 {
		return Result{}, fmt.Errorf("usage: stats <name>")
	}
	v, err := viewOf(store, args[0])
	if err != nil {
		return Result{}, err
	}
	s := v.Dataset().Stats()
	fmt.Fprintf(out, "N=%d vertices min/avg/max = %d/%.0f/%d total=%d avgMBR=%.2fx%.2f\n",
		s.N, s.MinVerts, s.AvgVerts, s.MaxVerts, s.TotalVerts, s.AvgMBRWidth, s.AvgMBRHeight)
	return Result{Stats: query.Stats{Op: "stats"}}, nil
}

func (e *Engine) setTimeout(args []string, out io.Writer) (Result, error) {
	if len(args) != 1 {
		return Result{}, fmt.Errorf("usage: timeout <duration|off>")
	}
	if args[0] == "off" {
		e.Settings.Timeout = 0
		fmt.Fprintln(out, "timeout off")
		return Result{Stats: query.Stats{Op: "timeout"}, Mutation: true}, nil
	}
	d, err := time.ParseDuration(args[0])
	if err != nil || d < 0 {
		return Result{}, fmt.Errorf("bad duration %q", args[0])
	}
	e.Settings.Timeout = d
	if m := e.Settings.MaxTimeout; m > 0 && (d == 0 || d > m) {
		fmt.Fprintf(out, "timeout %v (capped at server limit %v)\n", d, m)
	} else {
		fmt.Fprintf(out, "timeout %v\n", d)
	}
	return Result{Stats: query.Stats{Op: "timeout"}, Mutation: true}, nil
}

func (e *Engine) setBudget(args []string, out io.Writer) (Result, error) {
	if len(args) != 1 {
		return Result{}, fmt.Errorf("usage: budget <n|off>")
	}
	if args[0] == "off" {
		e.Settings.Budget = 0
		fmt.Fprintln(out, "budget off")
		return Result{Stats: query.Stats{Op: "budget"}, Mutation: true}, nil
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 0 {
		return Result{}, fmt.Errorf("bad budget %q", args[0])
	}
	e.Settings.Budget = n
	fmt.Fprintf(out, "budget %d candidates\n", n)
	return Result{Stats: query.Stats{Op: "budget"}, Mutation: true}, nil
}

// setPipeline sets the join executor's batch size: pipeline on [batch].
// The batch size also governs the selection sink's streaming flush
// granularity. The executor is the only join driver, so there is no
// "off".
func (e *Engine) setPipeline(args []string, out io.Writer) (Result, error) {
	if len(args) < 1 || len(args) > 2 {
		return Result{}, fmt.Errorf("usage: pipeline on [batch]")
	}
	if args[0] != "on" {
		return Result{}, fmt.Errorf("pipeline is always on (usage: pipeline on [batch]), got %q", args[0])
	}
	if len(args) == 2 {
		n, err := strconv.Atoi(args[1])
		if err != nil || n < 1 {
			return Result{}, fmt.Errorf("bad batch size %q", args[1])
		}
		e.Settings.BatchSize = n
	}
	batch := e.Settings.BatchSize
	if batch == 0 {
		batch = core.DefaultBatchSize
	}
	fmt.Fprintf(out, "pipeline on (batch %d)\n", batch)
	return Result{Stats: query.Stats{Op: "pipeline"}, Mutation: true}, nil
}

// setIntervals toggles the intersection joins' v2 interval-approximation
// filter: intervals <on|off>. "off" falls back to the v1 raster-signature
// path in join, pjoin and shardjoin (the ablation baseline); within,
// shardwithin, select and shardselect run no interval stage at all.
// Result sets are identical under both settings; only which filter
// resolves each pair changes.
func (e *Engine) setIntervals(args []string, out io.Writer) (Result, error) {
	if len(args) != 1 {
		return Result{}, fmt.Errorf("usage: intervals <on|off>")
	}
	switch args[0] {
	case "on":
		e.Settings.NoIntervals = false
	case "off":
		e.Settings.NoIntervals = true
	default:
		return Result{}, fmt.Errorf("intervals must be on or off, got %q", args[0])
	}
	state := "on"
	if e.Settings.NoIntervals {
		state = "off"
	}
	fmt.Fprintf(out, "intervals %s\n", state)
	return Result{Stats: query.Stats{Op: "intervals"}, Mutation: true}, nil
}

// batchCmd executes N ";"-separated sub-commands in one round trip under
// the single admission slot the batch verb itself was admitted on. Each
// sub-command's output streams in order, delimited by a "sub <n> ok:
// <op>" / "sub <n> partial: <reason>" / "sub <n> error: <reason>"
// trailer line, and the merged stats record reports the whole batch. A
// failing sub-command does not abort the rest; a partial sub-result
// marks the batch partial (the first partial's reason wins — the
// per-sub trailers name every incomplete sub-command).
func (e *Engine) batchCmd(ctx context.Context, line string, out io.Writer) (Result, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "batch"))
	if rest == "" {
		return Result{}, fmt.Errorf("usage: batch <cmd>; <cmd>; ...")
	}
	agg := Result{Stats: query.Stats{Op: "batch"}}
	n := 0
	for _, sub := range strings.Split(rest, ";") {
		sub = strings.TrimSpace(sub)
		if sub == "" {
			continue
		}
		if Verb(sub) == "batch" {
			return Result{}, fmt.Errorf("batch cannot nest batch")
		}
		n++
		res, err := e.Exec(ctx, sub, out)
		if err != nil {
			fmt.Fprintf(out, "sub %d error: %v\n", n, err)
			continue
		}
		if res.Partial != nil && agg.Partial == nil {
			agg.Partial = res.Partial
		}
		agg.Mutation = agg.Mutation || res.Mutation
		op := res.Stats.Op
		res.Stats.Op = ""
		agg.Stats.Merge(res.Stats)
		agg.Stats.Op = "batch"
		if res.Partial != nil {
			fmt.Fprintf(out, "sub %d partial: %v\n", n, res.Partial)
		} else {
			fmt.Fprintf(out, "sub %d ok: %s\n", n, op)
		}
	}
	if n == 0 {
		return Result{}, fmt.Errorf("usage: batch <cmd>; <cmd>; ...")
	}
	return agg, nil
}

// testerFactory validates the tester mode once and returns the
// per-worker constructor the join executor needs (core.Tester is not
// safe for concurrent use, so each stage worker builds its own).
func (e *Engine) testerFactory(mode string) (func() *core.Tester, error) {
	if mode != "" && mode != "hw" && mode != "sw" {
		return nil, fmt.Errorf("mode must be sw or hw, got %q", mode)
	}
	cfg := e.testerConfig()
	return func() *core.Tester { return core.NewTester(cfg) }, nil
}

// pipelineOpts assembles the join options from the session settings for
// the given tester mode and worker count.
func (e *Engine) pipelineOpts(mode string, workers int) (query.JoinOptions, error) {
	tf, err := e.testerFactory(mode)
	if err != nil {
		return query.JoinOptions{}, err
	}
	return query.JoinOptions{Workers: workers, Tester: tf, MaxCandidates: e.Settings.Budget,
		BatchSize: e.Settings.BatchSize, NoIntervals: e.Settings.NoIntervals}, nil
}

// qctx derives the per-query context from the session's timeout setting
// capped by the server ceiling. Deadline expiry is attributed to a typed
// *query.DeadlineError cause, so partial results distinguish "ran out of
// budget" from an operator cancellation.
func (e *Engine) qctx(ctx context.Context) (context.Context, context.CancelFunc) {
	if d := e.Settings.EffectiveTimeout(); d > 0 {
		return context.WithTimeoutCause(ctx, d, &query.DeadlineError{Budget: d})
	}
	return context.WithCancel(ctx)
}

// note writes the interruption note (partial results were already
// reported) and extracts the typed partial error for the Result.
func note(out io.Writer, err error) *query.PartialError {
	if err == nil {
		return nil
	}
	var pe *query.PartialError
	if errors.As(err, &pe) {
		fmt.Fprintf(out, "note: %v (results above are partial)\n", err)
		return pe
	}
	fmt.Fprintln(out, "note:", err)
	return nil
}

// testerConfig is the engine's base config refining in software, the
// tester of every verb whatever its mode word: warmed, the card's rejects
// repay its render on none of the benchmark's layer pairs
// (EXPERIMENTS.md), and "hw" stays accepted for the clients that send it.
func (e *Engine) testerConfig() core.Config {
	cfg := e.Tester
	cfg.DisableHardware = true
	return cfg
}

// joinUsage is the argument grammar of the join verbs.
var joinUsage = map[string]string{
	"join":        "usage: join <a> <b> [sw|hw]",
	"pjoin":       "usage: pjoin <a> <b> [workers]",
	"shardjoin":   "usage: shardjoin <a> <b> <minx> <miny> <maxx> <maxy> [sw|hw]",
	"within":      "usage: within <a> <b> <D> [sw|hw]",
	"shardwithin": "usage: shardwithin <a> <b> <D> <minx> <miny> <maxx> <maxy> [sw|hw]",
}

// joinCmd is join, pjoin and shardjoin: one intersection join on the
// worker pool. The verbs differ in what follows the layer names (see
// joinTail) and in how the result leaves (see runJoin).
func (e *Engine) joinCmd(ctx context.Context, store Store, verb string, args []string, out io.Writer) (Result, error) {
	if len(args) < 2 {
		return Result{}, errors.New(joinUsage[verb])
	}
	j, err := e.joinTail(store, verb, args[:2], args[2:])
	if err != nil {
		return Result{}, err
	}
	return e.runJoin(ctx, verb, j, out, partition.RefPoint,
		func(ctx context.Context, opt query.JoinOptions) ([]query.Pair, query.Stats, error) {
			return query.PipelineIntersectionJoinView(ctx, j.a, j.b, opt)
		})
}

// withinCmd is within and shardwithin: one within-distance join on the
// worker pool, without the 0-/1-Object upper-bound filters — since the
// distance kernel of PR 14 they cost more than the tests they save
// (within_single p50_ms 29 ms without, 39 ms with; EXPERIMENTS.md
// "PR 17"). A shard's reference point is taken over the d-expanded
// MBR intersection, which is only guaranteed to fall in the owning tile's
// replicas when the partitioning margin is ≥ d (the coordinator enforces
// that).
func (e *Engine) withinCmd(ctx context.Context, store Store, verb string, args []string, out io.Writer) (Result, error) {
	if len(args) < 3 {
		return Result{}, errors.New(joinUsage[verb])
	}
	d, err := parseDistance(verb, args[2])
	if err != nil {
		return Result{}, err
	}
	j, err := e.joinTail(store, verb, args[:2], args[3:])
	if err != nil {
		return Result{}, err
	}
	return e.runJoin(ctx, verb, j, out,
		func(ra, rb geom.Rect) geom.Point { return partition.RefPointWithin(ra, rb, d) },
		func(ctx context.Context, opt query.JoinOptions) ([]query.Pair, query.Stats, error) {
			return query.PipelineWithinDistanceJoinView(ctx, j.a, j.b, d, opt)
		})
}

// parseDistance parses the D of a within verb. A D that is not a finite
// number ≥ 0 — NaN, a negative, ±Inf spelled out or overflowing — gets
// the verb's usage line: NaN would answer no rows and pass every margin
// check, and Inf would hand the card a NaN line width.
func parseDistance(verb, arg string) (float64, error) {
	d, err := strconv.ParseFloat(arg, 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		return 0, fmt.Errorf("bad distance: %w", err)
	}
	if err != nil || !(d >= 0 && d <= math.MaxFloat64) {
		return 0, errors.New(joinUsage[verb])
	}
	return d, nil
}

// joinCall is a join verb's parsed argument list.
type joinCall struct {
	a, b *query.View
	opt  query.JoinOptions
	// region is a shard verb's ownership region; nil for the others.
	region *geom.Rect
}

// joinTail resolves the two layer names and parses what follows them
// (and the distance): the shard verbs carry their ownership region as
// four floats, then every verb takes one optional argument — pjoin a
// worker count, the others the tester mode.
func (e *Engine) joinTail(store Store, verb string, names, rest []string) (j joinCall, err error) {
	if j.a, err = viewOf(store, names[0]); err != nil {
		return j, err
	}
	if j.b, err = viewOf(store, names[1]); err != nil {
		return j, err
	}
	if strings.HasPrefix(verb, "shard") {
		if len(rest) < 4 {
			return j, errors.New(joinUsage[verb])
		}
		region, err := parseRect(rest[:4])
		if err != nil {
			return j, err
		}
		j.region, rest = &region, rest[4:]
	}
	if len(rest) > 1 {
		return j, errors.New(joinUsage[verb])
	}
	mode, workers := "", 0
	if len(rest) == 1 {
		if verb != "pjoin" {
			mode = rest[0]
		} else if workers, err = strconv.Atoi(rest[0]); err != nil || workers < 0 {
			return j, fmt.Errorf("bad worker count %q", rest[0])
		}
	}
	j.opt, err = e.pipelineOpts(mode, workers)
	return j, err
}

// runJoin executes a join verb and writes its result. join, pjoin and
// within print the human summary. The shard verbs stream machine-readable
// rows instead: each refined batch's pairs go to the client as the emit
// stage completes it, so the coordinator and wire clients see first rows
// while refinement is still running — but only the pairs whose reference
// point (refPoint of the two MBRs) this shard's region owns, and under
// the stable global ids; one stats line closes the stream.
func (e *Engine) runJoin(ctx context.Context, verb string, j joinCall, out io.Writer,
	refPoint func(ra, rb geom.Rect) geom.Point,
	run func(context.Context, query.JoinOptions) ([]query.Pair, query.Stats, error)) (Result, error) {
	owned := 0
	if j.region != nil {
		da, db := j.a.Dataset(), j.b.Dataset()
		idsA, idsB := globalIDs(j.a), globalIDs(j.b)
		rows := rowBatch{out: out}
		j.opt.Sink = func(pairs []query.Pair) error {
			for _, p := range pairs {
				ref := refPoint(da.Objects[p.A].Bounds(), db.Objects[p.B].Bounds())
				if !partition.OwnsRect(*j.region, ref) {
					continue
				}
				owned++
				rows.buf = coord.AppendPairRow(rows.buf, gid(idsA, p.A), gid(idsB, p.B))
			}
			return rows.send()
		}
	}
	qctx, cancel := e.qctx(ctx)
	defer cancel()
	_, st, qerr := run(qctx, j.opt)
	var be *query.BudgetError
	if errors.As(qerr, &be) {
		return Result{}, qerr
	}
	st.Op = verb
	liveStats(&st, j.a, j.b)
	if j.region != nil {
		st.Results = owned
		writeStats(out, st)
	} else {
		report(out, st)
	}
	return Result{Stats: st, Partial: note(out, qerr)}, nil
}

func (e *Engine) overlay(ctx context.Context, store Store, args []string, out io.Writer) (Result, error) {
	if len(args) != 2 {
		return Result{}, fmt.Errorf("usage: overlay <a> <b>")
	}
	a, err := singleOf(store, args[0], "overlay")
	if err != nil {
		return Result{}, err
	}
	b, err := singleOf(store, args[1], "overlay")
	if err != nil {
		return Result{}, err
	}
	tester := core.NewTester(e.testerConfig())
	qctx, cancel := e.qctx(ctx)
	defer cancel()
	pairs, st, qerr := query.OverlayAreaJoin(qctx, a, b, tester)
	var be *query.BudgetError
	if errors.As(qerr, &be) {
		return Result{}, qerr
	}
	var total float64
	for _, op := range pairs {
		total += op.Area
	}
	fmt.Fprintf(out, "overlay: %d overlapping pairs, %.4f units² shared area (total %v)\n",
		len(pairs), total, st.Total().Round(time.Millisecond))
	st.Op = "overlay"
	return Result{Stats: st, Partial: note(out, qerr)}, nil
}

// selectCmd is select and shardselect: one selection with one set of
// options, differing only in how the result leaves. select prints the
// summary; shardselect streams the stable ids as "id <N>" rows, batch by
// batch as refinement proceeds, and ends with the stats record — rows the
// view returns were already streamed, so on a partial the rows out are
// exactly the rows found. Like knn it takes the raw line because WKT
// contains spaces.
func (e *Engine) selectCmd(ctx context.Context, store Store, verb, line string, out io.Writer) (Result, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), verb))
	name, wkt, ok := strings.Cut(rest, " ")
	if !ok {
		return Result{}, fmt.Errorf("usage: %s <layer> <WKT POLYGON>", verb)
	}
	v, err := viewOf(store, name)
	if err != nil {
		return Result{}, err
	}
	q, err := geom.ParsePolygonWKT(wkt)
	if err != nil {
		return Result{}, err
	}
	tester := core.NewTester(e.testerConfig())
	opt := query.JoinOptions{InteriorLevel: 4, MaxCandidates: e.Settings.Budget}
	shard := verb == "shardselect"
	if shard {
		stable := globalIDs(v)
		rows := rowBatch{out: out}
		opt.BatchSize = e.Settings.BatchSize
		opt.Sink = func(batch []query.Pair) error {
			for _, p := range batch {
				rows.buf = coord.AppendIDRow(rows.buf, gid(stable, p.B))
			}
			return rows.send()
		}
	}
	qctx, cancel := e.qctx(ctx)
	defer cancel()
	_, st, qerr := query.IntersectionSelectView(qctx, v, q, tester, opt)
	var be *query.BudgetError
	if errors.As(qerr, &be) {
		return Result{}, qerr
	}
	st.Op = verb
	liveStats(&st, v)
	if shard {
		writeStats(out, st)
	} else {
		report(out, st)
	}
	return Result{Stats: st, Partial: note(out, qerr)}, nil
}

func (e *Engine) knn(ctx context.Context, store Store, line string, out io.Writer) (Result, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "knn"))
	name, rest, ok := strings.Cut(rest, " ")
	if !ok {
		return Result{}, fmt.Errorf("usage: knn <layer> <WKT POLYGON> <k>")
	}
	l, err := singleOf(store, name, "knn")
	if err != nil {
		return Result{}, err
	}
	i := strings.LastIndexByte(rest, ' ')
	if i < 0 {
		return Result{}, fmt.Errorf("usage: knn <layer> <WKT POLYGON> <k>")
	}
	k, err := strconv.Atoi(strings.TrimSpace(rest[i+1:]))
	if err != nil {
		return Result{}, fmt.Errorf("bad k: %w", err)
	}
	q, err := geom.ParsePolygonWKT(rest[:i])
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	qctx, cancel := e.qctx(ctx)
	defer cancel()
	neighbors, qerr := query.KNearest(qctx, l, q, k)
	fmt.Fprintf(out, "%d neighbors in %v:\n", len(neighbors), time.Since(start).Round(time.Microsecond))
	for _, nb := range neighbors {
		fmt.Fprintf(out, "  object %-6d distance %.4f\n", nb.ID, nb.Distance)
	}
	return Result{
		Stats:   query.Stats{Op: "knn", Results: len(neighbors)},
		Partial: note(out, qerr),
	}, nil
}

func (e *Engine) live(store Store, args []string, out io.Writer) (Result, error) {
	if len(args) != 1 {
		return Result{}, fmt.Errorf("usage: live <name>")
	}
	if e.Live == nil {
		return Result{}, fmt.Errorf("live ingestion is not enabled on this engine")
	}
	t, err := e.Live.Open(args[0])
	if err != nil {
		return Result{}, err
	}
	if err := store.Set(args[0], t); err != nil {
		return Result{}, err
	}
	st := t.Stats()
	fmt.Fprintf(out, "live table %q: %d objects (%d wal records recovered, applied lsn %d)\n",
		args[0], st.Objects, st.WAL.Recovered, st.AppliedLSN)
	return Result{Stats: query.Stats{Op: "live", Results: st.Objects}, Mutation: true}, nil
}

// insert takes the raw line because WKT contains spaces.
func (e *Engine) insert(ctx context.Context, store Store, line string, out io.Writer) (Result, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "insert"))
	name, wkt, ok := strings.Cut(rest, " ")
	if !ok {
		return Result{}, fmt.Errorf("usage: insert <table> <WKT POLYGON>")
	}
	t, err := tableOf(store, name)
	if err != nil {
		return Result{}, err
	}
	p, err := geom.ParsePolygonWKT(wkt)
	if err != nil {
		return Result{}, err
	}
	qctx, cancel := e.qctx(ctx)
	defer cancel()
	start := time.Now()
	id, err := t.Insert(qctx, p)
	if err != nil {
		return Result{}, err
	}
	fmt.Fprintf(out, "inserted id %d into %q in %v (%d uncompacted)\n",
		id, name, time.Since(start).Round(time.Microsecond), t.Pending())
	return Result{Stats: query.Stats{Op: "insert", Results: 1}, Mutation: true}, nil
}

func (e *Engine) deleteCmd(ctx context.Context, store Store, args []string, out io.Writer) (Result, error) {
	if len(args) != 2 {
		return Result{}, fmt.Errorf("usage: delete <table> <id>")
	}
	t, err := tableOf(store, args[0])
	if err != nil {
		return Result{}, err
	}
	id, err := strconv.ParseUint(args[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("bad id %q", args[1])
	}
	qctx, cancel := e.qctx(ctx)
	defer cancel()
	start := time.Now()
	if err := t.Delete(qctx, id); err != nil {
		return Result{}, err
	}
	fmt.Fprintf(out, "deleted id %d from %q in %v (%d uncompacted)\n",
		id, args[0], time.Since(start).Round(time.Microsecond), t.Pending())
	return Result{Stats: query.Stats{Op: "delete", Results: 1}, Mutation: true}, nil
}

func (e *Engine) compact(ctx context.Context, store Store, args []string, out io.Writer) (Result, error) {
	if len(args) != 1 {
		return Result{}, fmt.Errorf("usage: compact <table>")
	}
	t, err := tableOf(store, args[0])
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	if err := t.Compact(ctx); err != nil {
		return Result{}, err
	}
	st := t.Stats()
	fmt.Fprintf(out, "compacted %q in %v: %d objects, %d folded, wal truncated %d segments\n",
		args[0], time.Since(start).Round(time.Microsecond), st.Objects, st.LastFolded, st.WAL.Truncated)
	return Result{Stats: query.Stats{Op: "compact", Results: st.Objects}, Mutation: true}, nil
}

// report writes a query's summary line and, when the v2 interval filter
// participated, its resolution line; scripted smoke checks grep the
// latter's key=value fields.
func report(out io.Writer, st query.Stats) {
	ms := func(v float64) time.Duration {
		return time.Duration(v * float64(time.Millisecond)).Round(time.Microsecond)
	}
	fmt.Fprintf(out, "%s: %d results (mbr %v, filter %v, geometry %v; %d candidates, %d compared)\n",
		st.Op, st.Results, ms(st.MBRFilterMS), ms(st.IntermediateMS), ms(st.GeometryMS),
		st.Candidates, st.Compared)
	if st.IntervalChecks > 0 {
		fmt.Fprintf(out, "intervals: interval_checks=%d interval_true_hits=%d interval_rejects=%d interval_inconclusive=%d\n",
			st.IntervalChecks, st.IntervalTrueHits, st.IntervalRejects, st.IntervalInconclusive)
	}
}
