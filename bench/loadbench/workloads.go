package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/ingest"
	"repro/internal/partition"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/shellcmd"
	"repro/internal/store"
)

const (
	// withinD is the within-distance join's D; the fleet's replication
	// margin equals it, the smallest margin that admits the query.
	withinD = 1.0
	// numWindows is the size of the seeded select list; the list is cycled,
	// so the warm pass builds every lazy edge index the timed phase touches.
	numWindows = 1024
	// liveCap is how many of its own inserts the ingest writer keeps
	// alive: preloaded in the warm pass, then one delete per insert.
	liveCap = 2048
	// numInserts is the size of the seeded insert-geometry list the writer
	// cycles through.
	numInserts = 4096
	// writerLap is the writer's throughput lap, in insert+delete rounds.
	writerLap = 64
	// writerRate paces the writer, in insert+delete rounds per second: 500
	// mutations a second, about a fifth of what it reaches flat out. Flat
	// out its rate follows the sandbox's fsync latency, which moves 10 %
	// between identical runs and drags the reader's work per select (how
	// often it meets a fresh mutation and rebuilds the live view) with it.
	writerRate = 250
	// compactPending lowers the compactor's pending-operations trigger from
	// its default 4096. At writerRate about 1000 operations are pending by
	// each 2 s compactor tick, so every tick folds: a 20 s run sees nine
	// cycles instead of one, and no tick sits on the threshold to fire or
	// not with the jitter. Without compaction the delta only grows, and a
	// select that meets a fresh mutation rebuilds the delta layer and its
	// interval column from scratch: 36 ms at 2048 delta objects.
	compactPending = 512
	liveTable      = "live"
	// fleetCycle is the length of one fleet_mix cycle: a join, 8 selects,
	// a within, 8 selects.
	fleetCycle = 18
)

// refScale is each dataset's reference scale (-scale multiplies it):
// LANDC 2946 and LANDO 6772 objects, WATER 2186 and PRISM 624.
var refScale = map[string]float64{"landc": 0.2, "lando": 0.2, "water": 0.1, "prism": 0.1}

// workload is one named traffic shape: a deployment, the closed-loop
// clients that load it, and the verb whose latency the end-to-end
// percentiles report.
type workload struct {
	name     string
	layers   []string // datasets the deployment serves
	headline kind
	// requests fills in the request lists with their oracle answers.
	requests func(in *inputs, rng *rand.Rand) error
	up       func(dir string, in *inputs) (*deployment, error)
	clients  func(in *inputs) []clientPlan
	// check runs after the timed phase on the still-running deployment.
	check func(dep *deployment, in *inputs, rec *recorder) error
	// slice is the fixed slice of requests the traced run replays, and
	// layered its in-process replay (trace.go); openLoop adds the
	// fixed-rate phase to the traced run.
	slice    func(in *inputs, reps int) []request
	layered  func(ctx context.Context, tr *tracer, dep *deployment, in *inputs, reps int) error
	openLoop bool
}

var workloads = map[string]*workload{
	"select_wire": {
		name: "select_wire", layers: []string{"landc"}, headline: kSelect,
		requests: func(in *inputs, _ *rand.Rand) error {
			in.selects = in.selectRequests("landc", in.windows, false, false)
			return nil
		},
		up: upSingle,
		clients: func(in *inputs) []clientPlan {
			// Two clients on two cores: the server is saturated, so CPU
			// freed in server/shellcmd/rtree shows as throughput.
			half := len(in.selects) / 2
			return []clientPlan{{reqs: in.selects[:half]}, {reqs: in.selects[half:]}}
		},
		slice:    func(in *inputs, _ int) []request { return in.selects[:min(512, len(in.selects))] },
		layered:  layeredSelect,
		openLoop: true,
	},
	"join_single": {
		name: "join_single", layers: []string{"landc", "lando"}, headline: kJoin,
		requests: joinRequests,
		up:       upSingle,
		clients:  func(in *inputs) []clientPlan { return []clientPlan{{reqs: in.cycle}} },
		slice:    cycleSlice,
		layered:  layeredJoin,
	},
	"within_single": {
		name: "within_single", layers: []string{"water", "prism"}, headline: kWithin,
		requests: withinRequests,
		up:       upSingle,
		clients:  func(in *inputs) []clientPlan { return []clientPlan{{reqs: in.cycle}} },
		slice:    cycleSlice,
		layered:  layeredWithin,
	},
	"fleet_mix": {
		name: "fleet_mix", layers: []string{"landc", "lando", "water", "prism"}, headline: kJoin,
		requests: fleetRequests,
		up:       upFleet,
		clients:  func(in *inputs) []clientPlan { return []clientPlan{{reqs: in.cycle, lap: fleetCycle}} },
		slice:    cycleSlice,
		layered:  layeredFleet,
	},
	"ingest_read": {
		name: "ingest_read", layers: []string{"lando"}, headline: kSelect,
		requests: ingestRequests,
		up:       upIngest,
		clients: func(in *inputs) []clientPlan {
			return []clientPlan{{writer: true}, {reqs: in.selects}}
		},
		check: checkIngest,
		// Inserts, then the selects that pay for the fresh delta.
		slice: func(in *inputs, _ int) []request {
			var out []request
			for _, line := range in.insertLines[:256] {
				out = append(out, request{line: line, kind: kInsert, count: -1, rows: -1})
			}
			return append(out, in.selects[:min(256, len(in.selects))]...)
		},
		layered: layeredIngest,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// inputs is everything generated from the seed before the program sees
// anything: the datasets, the request lists with their oracle answers,
// and the writer's insert geometry.
type inputs struct {
	data map[string]*data.Dataset
	mem  map[string]*query.Layer // in-memory layers, the oracle's side

	windows []*geom.Polygon // the seeded select windows
	selects []request       // selects on the workload's select layer
	cycle   []request       // the single client's cycle on join_single, within_single and fleet_mix

	insertLines []string // "insert live POLYGON ..." lines
	insertPolys []*geom.Polygon

	// own is the writer's own inserts alive in the current deployment's
	// table, oldest first: its acknowledged inserts minus its acknowledged
	// deletes. The warm pass preloads it to liveCap, the writer client then
	// keeps it there, and the check reads it after the phase has joined.
	own []ownInsert
}

// ownInsert is one alive insert of the writer: its stable id and which
// seeded polygon it is.
type ownInsert struct {
	id   uint64
	poly int
}

// makeInputs generates the workload's inputs. The datasets are the
// calibrated stand-ins for the paper's five fixed GIS layers and are
// generated from their own fixed specs, not from the run's seed: one
// reseeded WATER⋈PRISM swings 3× with its heaviest object and even a
// rigid shift of the layers moves the join 20 % by realigning the interval
// grid, so no regression bound would hold across seeds. The seed drives
// every request parameter: window positions and order, insert geometry.
func makeInputs(cfg config, wl *workload) (*inputs, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	in := &inputs{data: map[string]*data.Dataset{}, mem: map[string]*query.Layer{}}
	for _, name := range wl.layers {
		d, err := data.Load(strings.ToUpper(name), refScale[name]*cfg.scale)
		if err != nil {
			return nil, err
		}
		in.data[name] = d
		in.mem[name] = query.NewLayer(d)
	}
	domain := data.Domain

	// Select windows: 80 % 5×5 km (≈4 results on LANDC, ≈40 µs of query
	// work), 20 % 20×20 km (≈15 results, ≈200 µs). Larger windows cost
	// milliseconds of refinement each and would bury the wire's share.
	// One window per cell of a 32×32 grid, jittered inside its cell and
	// then shuffled: every seed covers the whole domain evenly, so a seed
	// that lands more windows on heavy objects does not read as a
	// different system.
	const side = 32 // side*side == numWindows
	cellW, cellH := domain.Width()/side, domain.Height()/side
	for i := 0; i < numWindows; i++ {
		size := 5.0
		if i%5 == 0 {
			size = 20
		}
		x := min(domain.MinX+(float64(i%side)+rng.Float64())*cellW, domain.MaxX-size)
		y := min(domain.MinY+(float64(i/side)+rng.Float64())*cellH, domain.MaxY-size)
		in.windows = append(in.windows, geom.MustPolygon(geom.Pt(x, y), geom.Pt(x+size, y), geom.Pt(x+size, y+size), geom.Pt(x, y+size)))
	}
	rng.Shuffle(len(in.windows), func(i, j int) { in.windows[i], in.windows[j] = in.windows[j], in.windows[i] })

	if err := wl.requests(in, rng); err != nil {
		return nil, err
	}
	return in, nil
}

func joinRequests(in *inputs, _ *rand.Rand) error {
	n, err := oracleJoin(in.mem["landc"], in.mem["lando"])
	in.cycle = []request{
		{line: "join landc lando hw", kind: kJoin, count: n, rows: -1},
		{line: "pjoin landc lando", kind: kPjoin, count: n, rows: -1},
		{line: "shardjoin landc lando " + plane, kind: kShardjoin, count: -1, rows: n},
	}
	return err
}

func withinRequests(in *inputs, _ *rand.Rand) error {
	n, err := oracleWithin(in.mem["water"], in.mem["prism"])
	in.cycle = []request{
		{line: fmt.Sprintf("within water prism %g hw", withinD), kind: kWithin, count: n, rows: -1},
		{line: fmt.Sprintf("shardwithin water prism %g %s hw", withinD, plane), kind: kShardwithin, count: -1, rows: n},
	}
	return err
}

// fleetRequests builds fleet_mix's list: one join, one within and 16
// selects per cycle, the select slice advancing each cycle so 256 windows
// are visited. Through the coordinator every verb streams its rows.
func fleetRequests(in *inputs, _ *rand.Rand) error {
	nj, err := oracleJoin(in.mem["landc"], in.mem["lando"])
	if err != nil {
		return err
	}
	nw, err := oracleWithin(in.mem["water"], in.mem["prism"])
	sel := in.selectRequests("landc", in.windows[:256], true, false)
	for c := 0; c < len(sel)/16; c++ {
		in.cycle = append(in.cycle, request{line: "join landc lando hw", kind: kJoin, count: nj, rows: nj})
		in.cycle = append(in.cycle, sel[c*16:c*16+8]...)
		in.cycle = append(in.cycle, request{line: fmt.Sprintf("within water prism %g hw", withinD), kind: kWithin, count: nw, rows: nw})
		in.cycle = append(in.cycle, sel[c*16+8:c*16+16]...)
	}
	return err
}

// ingestRequests keeps the 20×20 km windows for the reader — the base
// (LANDO) count is a lower bound, because the writer only ever deletes
// its own inserts — and generates the writer's insert geometry.
func ingestRequests(in *inputs, rng *rand.Rand) error {
	var wide []*geom.Polygon
	for _, w := range in.windows {
		if w.Bounds().Width() > 10 {
			wide = append(wide, w)
		}
	}
	in.windows = wide
	in.mem[liveTable] = in.mem["lando"]
	in.selects = in.selectRequests(liveTable, wide, false, true)
	for i := 0; i < numInserts; i++ {
		c := geom.Pt(data.Domain.MinX+rng.Float64()*data.Domain.Width(), data.Domain.MinY+rng.Float64()*data.Domain.Height())
		p, err := data.ShapedBlob(rng, c, 1+2*rng.Float64(), 8+rng.Intn(25), 1+2*rng.Float64())
		if err != nil {
			return err
		}
		in.insertPolys = append(in.insertPolys, p)
		in.insertLines = append(in.insertLines, "insert "+liveTable+" "+p.WKT())
	}
	return nil
}

// cycleSlice is one cycle of the long verbs, reps times (fleet_mix's list
// is 16 cycles long).
func cycleSlice(in *inputs, reps int) []request {
	var out []request
	for r := 0; r < reps; r++ {
		out = append(out, in.cycle[:min(fleetCycle, len(in.cycle))]...)
	}
	return out
}

// plane is the whole-plane ownership region: the single-node form of the
// shard verbs, the only single-node verbs that stream "pair" rows.
var plane = shellcmd.FormatRect(geom.R(math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1)))

// selectRequests renders windows as select commands on layer with their
// oracle counts. rows says the server streams one "id" row per result
// (coordinator mode).
func (in *inputs) selectRequests(layer string, windows []*geom.Polygon, rows, atLeast bool) []request {
	t := swTester()
	reqs := make([]request, len(windows))
	for i, w := range windows {
		n := oracleSelect(in.mem[layer], w, t)
		reqs[i] = request{line: "select " + layer + " " + w.WKT(), kind: kSelect, count: n, rows: -1, atLeast: atLeast}
		if rows {
			reqs[i].rows = n
		}
	}
	return reqs
}

// The oracle answers through a different path than the program under
// load: in-memory layers (no snapshot, no persisted signatures or
// intervals), the software-only tester, every intermediate filter off.

func swTester() *core.Tester { return core.NewTester(core.Config{DisableHardware: true}) }

func oracleSelect(l *query.Layer, w *geom.Polygon, t *core.Tester) int {
	ids, _, err := query.IntersectionSelectView(context.Background(), l.View(), w, t,
		query.SelectionOptions{InteriorLevel: -1, NoSignatures: true, NoIntervals: true})
	if err != nil {
		panic(err) // no deadline, no budget: cannot fail
	}
	return len(ids)
}

func oracleJoin(a, b *query.Layer) (int, error) {
	pairs, _, err := query.IntersectionJoinView(context.Background(), a.View(), b.View(), swTester(),
		query.JoinOptions{NoSignatures: true, NoIntervals: true})
	return len(pairs), err
}

func oracleWithin(a, b *query.Layer) (int, error) {
	pairs, _, err := query.WithinDistanceJoinView(context.Background(), a.View(), b.View(), withinD, swTester(),
		query.DistanceFilterOptions{NoSignatures: true})
	return len(pairs), err
}

// deployment is one booted system under test: everything in-process,
// listening on ephemeral loopback ports.
type deployment struct {
	dir   string
	addr  string // where clients connect
	front *server.Server
	// shards and coord are set on the fleet; mgr on the ingest server;
	// layers (snapshot-backed, as served) on single-node ones.
	shards []*server.Server
	coord  *coord.Coordinator
	mgr    *ingest.Manager
	snaps  []*store.Snapshot
	layers map[string]*query.Layer

	// Set-up side per-layer numbers, recorded while booting.
	saveMS, openMS, partitionMS float64
	snapBytes                   int64
	verts, objects, replicas    int
}

func (d *deployment) addrs() []string {
	out := []string{d.addr}
	for _, s := range d.shards {
		out = append(out, s.Addr().String())
	}
	return out
}

// down tears the deployment down in dependency order and removes its
// directory. It is idempotent, and runs on every exit path.
func (d *deployment) down() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if d.front != nil && d.front.Addr() != nil { // a failed boot may never have started it
		keep(d.front.Shutdown(ctx))
	}
	for _, s := range d.shards {
		keep(s.Shutdown(ctx))
	}
	if d.coord != nil {
		d.coord.Close()
	}
	if d.mgr != nil {
		keep(d.mgr.Close())
	}
	for _, s := range d.snaps {
		keep(s.Close())
	}
	d.snaps = nil
	keep(os.RemoveAll(d.dir))
	return first
}

// serveSnapshot opens path and binds it in srv's catalog under name: the
// production load path, with persisted signatures and interval columns.
func (d *deployment) serveSnapshot(srv *server.Server, name, path string) (*query.Layer, error) {
	start := time.Now()
	s, err := store.Open(path, store.OpenOptions{})
	if err != nil {
		return nil, err
	}
	d.snaps = append(d.snaps, s)
	l, err := query.NewLayerFromSnapshot(s)
	if err != nil {
		return nil, err
	}
	d.openMS += ms(time.Since(start))
	return l, srv.Catalog().Set(name, l)
}

func newServer(cfg server.Config) *server.Server {
	cfg.Addr = "127.0.0.1:0"
	cfg.DrainGrace = 50 * time.Millisecond
	return server.New(cfg)
}

// upSingle boots one server over the workload's layers, each saved with
// store.Save and served from the snapshot.
func upSingle(dir string, in *inputs) (dep *deployment, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dep = &deployment{dir: dir, front: newServer(server.Config{}), layers: map[string]*query.Layer{}}
	defer func() {
		if err != nil {
			dep.down()
		}
	}()
	for name, ds := range in.data {
		path := filepath.Join(dir, name+".snap")
		bs, err := store.Save(path, ds, store.SaveOptions{Tool: "loadbench"})
		if err != nil {
			return nil, err
		}
		dep.saveMS += bs.BuildMS
		dep.snapBytes += bs.Bytes
		dep.verts += bs.TotalVerts
		l, err := dep.serveSnapshot(dep.front, name, path)
		if err != nil {
			return nil, err
		}
		dep.layers[name] = l
	}
	if err := dep.front.Start(); err != nil {
		return nil, err
	}
	dep.addr = dep.front.Addr().String()
	return dep, nil
}

// upFleet partitions every layer onto a 2×2 grid, boots one shard server
// per tile and a coordinator-mode front server over them.
func upFleet(dir string, in *inputs) (dep *deployment, err error) {
	const tiles = 4
	dep = &deployment{dir: dir}
	defer func() {
		if err != nil {
			dep.down()
		}
	}()
	for name, ds := range in.data {
		res, err := partition.Write(dir, name, ds, partition.Options{Tiles: tiles, Margin: withinD, Tool: "loadbench"})
		if err != nil {
			return nil, err
		}
		dep.partitionMS += res.WallMS
		dep.snapBytes += res.Bytes
		dep.objects += res.Objects
		dep.replicas += res.Replicas
	}
	manifest, err := partition.Load(dir)
	if err != nil {
		return nil, err
	}
	var addrs []string
	for _, tile := range manifest.Tiles {
		srv := newServer(server.Config{})
		for name := range in.data {
			if _, err := dep.serveSnapshot(srv, name, filepath.Join(dir, tile.Dir, partition.SnapshotName(name))); err != nil {
				return nil, err
			}
		}
		if err := srv.Start(); err != nil {
			return nil, err
		}
		dep.shards = append(dep.shards, srv)
		addrs = append(addrs, srv.Addr().String())
	}
	dep.coord, err = coord.New(coord.Config{Manifest: manifest, Addrs: addrs})
	if err != nil {
		return nil, err
	}
	dep.front = newServer(server.Config{Coordinator: dep.coord})
	if err := dep.front.Start(); err != nil {
		return nil, err
	}
	dep.addr = dep.front.Addr().String()
	return dep, nil
}

// upIngest boots one server with durable ingestion on: the live table
// starts as a LANDO snapshot generation, the WAL at its defaults (fsync
// per group commit), background compaction on.
func upIngest(dir string, in *inputs) (dep *deployment, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	bs, err := store.Save(filepath.Join(dir, liveTable+".snap"), in.data["lando"], store.SaveOptions{Tool: "loadbench"})
	if err != nil {
		return nil, err
	}
	mgr := ingest.NewManager(ingest.Options{Dir: dir, CompactPending: compactPending})
	dep = &deployment{dir: dir, mgr: mgr, front: newServer(server.Config{Ingest: mgr}),
		saveMS: bs.BuildMS, snapBytes: bs.Bytes, verts: bs.TotalVerts}
	defer func() {
		if err != nil {
			dep.down()
		}
	}()
	start := time.Now()
	t, err := mgr.Open(liveTable)
	if err != nil {
		return nil, err
	}
	dep.openMS = ms(time.Since(start))
	if err := dep.front.Catalog().Set(liveTable, t); err != nil {
		return nil, err
	}
	if err := dep.front.Start(); err != nil {
		return nil, err
	}
	dep.addr = dep.front.Addr().String()
	return dep, nil
}

// warm sends every distinct request of the workload once, untimed, so
// lazy edge indexes, interval columns and connection pools exist before
// the timed phase; a wrong answer here aborts the run.
func warm(dep *deployment, wl *workload, in *inputs) error {
	c, err := dial(dep.addr)
	if err != nil {
		return err
	}
	defer c.close()
	seen := map[string]bool{}
	for _, plan := range wl.clients(in) {
		for _, req := range plan.reqs {
			if seen[req.line] {
				continue
			}
			seen[req.line] = true
			rep, err := c.do(req.line)
			if why := req.verdict(rep, err); why != "" {
				return fmt.Errorf("warm-up: %s", why)
			}
		}
		if plan.writer {
			// The live set starts full and folded into the base, so the table
			// is stationary from the timed phase's first request (an unfolded
			// preload would cost every select 36 ms until the first tick).
			in.own = nil
			for len(in.own) < liveCap {
				if err := in.insertNext(c, nil); err != nil {
					return fmt.Errorf("warm-up: %w", err)
				}
			}
			if rep, err := c.do("compact " + liveTable); err != nil || rep.status != "ok" {
				return fmt.Errorf("warm-up: compact: %q %v", rep.status, err)
			}
		}
	}
	return nil
}

// insertNext sends the writer's next seeded insert and appends the
// acknowledged id to in.own. With a recorder the request is observed as
// part of the timed phase; without one a wrong answer is the error.
func (in *inputs) insertNext(c *client, rec *recorder) error {
	poly := 0
	if n := len(in.own); n > 0 {
		poly = (in.own[n-1].poly + 1) % len(in.insertLines)
	}
	req := request{line: in.insertLines[poly], kind: kInsert, count: -1, rows: -1}
	rep, err := c.do(req.line)
	why := req.verdict(rep, err)
	if rec != nil {
		rec.observe(req, rep, err)
	} else if why != "" {
		return fmt.Errorf("%s", why)
	}
	if why == "" {
		in.own = append(in.own, ownInsert{rep.id, poly})
	}
	return err
}

// writerLoop is the ingest writer: writerRate times a second it inserts
// the next seeded polygon and deletes its oldest alive insert, so the
// table stays at the preloaded size. A round that is due before the
// previous one finished goes out as soon as that one has: the writer
// never has two requests in flight.
func writerLoop(ctx context.Context, c *client, in *inputs, deadline time.Time, rec *recorder) {
	start := time.Now()
	lapStart, okBefore := start, 0
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		if i > 0 && i%writerLap == 0 {
			rec.lap(lapStart, okBefore)
			lapStart, okBefore = time.Now(), rec.ok
		}
		time.Sleep(time.Until(start.Add(time.Duration(i) * time.Second / writerRate)))
		if in.insertNext(c, rec) != nil || len(in.own) == 0 {
			return
		}
		del := request{line: fmt.Sprintf("delete %s %d", liveTable, in.own[0].id), kind: kDelete, count: -1, rows: -1}
		rep, err := c.do(del.line)
		rec.observe(del, rep, err)
		if err != nil {
			return
		}
		if rep.status == "ok" {
			in.own = in.own[1:]
		}
	}
}

// checkIngest verifies the live table after the writer has stopped: a
// sample of selects must now match an oracle over LANDO plus exactly the
// writer's surviving inserts, and after a shutdown a fresh manager
// reopening the directory must recover every acknowledged operation.
func checkIngest(dep *deployment, in *inputs, rec *recorder) error {
	objs := append([]*geom.Polygon(nil), in.data["lando"].Objects...)
	for _, o := range in.own {
		objs = append(objs, in.insertPolys[o.poly])
	}
	quiescent := query.NewLayer(&data.Dataset{Name: liveTable, Objects: objs})
	c, err := dial(dep.addr)
	if err != nil {
		return err
	}
	t := swTester()
	for _, w := range in.windows[:min(128, len(in.windows))] {
		req := request{line: "select " + liveTable + " " + w.WKT(), kind: kSelect, count: oracleSelect(quiescent, w, t), rows: -1}
		rep, err := c.do(req.line)
		if why := req.verdict(rep, err); why != "" {
			rec.fail("quiescent " + why)
		} else {
			rec.attempted++
		}
	}
	c.close()

	want := len(in.data["lando"].Objects) + len(in.own)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dep.front.Shutdown(ctx); err != nil {
		return err
	}
	if err := dep.mgr.Close(); err != nil {
		return err
	}
	fresh := ingest.NewManager(ingest.Options{Dir: dep.dir, DisableCompactor: true})
	defer fresh.Close()
	tab, err := fresh.Open(liveTable)
	if err != nil {
		return fmt.Errorf("restart check: %w", err)
	}
	if got := tab.Stats().Objects; got != want {
		rec.fail(fmt.Sprintf("restart: %d objects recovered, %d acknowledged", got, want))
	} else {
		rec.attempted++
	}
	return nil
}
