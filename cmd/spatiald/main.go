// Command spatiald serves the spatial query engine over the network: a
// line-oriented TCP wire protocol speaking the same command grammar as
// the spatialdb shell, plus an HTTP/JSON endpoint with /metrics and
// /healthz. It is the multi-user front door to the engine — concurrent
// sessions share one copy-on-write layer catalog, refinement work passes
// an admission-control semaphore, and shutdown drains in-flight queries
// into partial results.
//
// Serve:
//
//	spatiald -addr :7878 -http :7879 -preload water=WATER:0.02,prism=PRISM:0.02
//
// Talk to it (the same grammar as spatialdb — netcat works too):
//
//	spatiald -connect localhost:7878 -e "join water prism hw"
//	echo "knn water POLYGON ((200 150, 220 150, 220 170, 200 170)) 5" | spatiald -connect localhost:7878
//	curl -s 'http://localhost:7879/query?cmd=join+water+prism+hw'
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/data"
	"repro/internal/faultinject"
	"repro/internal/ingest"
	"repro/internal/partition"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":7878", "TCP wire-protocol listen address")
	httpAddr := flag.String("http", ":7879", `HTTP listen address for /query, /metrics, /healthz ("" disables)`)
	maxConcurrent := flag.Int("max-concurrent", 0, "max concurrent refinement-running queries (0 = GOMAXPROCS)")
	queueWait := flag.Duration("queue-wait", 0, "how long an over-limit query may wait before the typed overload rejection")
	maxQueue := flag.Int("max-queue", 0, "admission wait-queue bound; arrivals beyond it are shed with a retry-after hint (0 = 4x max-concurrent)")
	maxLayers := flag.Int("max-layers", 64, "catalog layer limit")
	timeout := flag.Duration("timeout", 0, "default per-query timeout seeded into each session (0 = none)")
	queryTimeout := flag.Duration("query-timeout", 0, "server-imposed ceiling on every query's wall-clock budget; sessions cannot escape it (0 = none)")
	watchdogTimeout := flag.Duration("watchdog", 0, "stuck-query threshold: queries running longer are cancelled and their admission slots reclaimed (0 = disabled)")
	sentinelEvery := flag.Int("sentinel-every", 0, "verify every Nth hardware-filter negative against the exact plane sweep (0 = default cadence, negative = disabled)")
	budget := flag.Int("budget", 0, "default per-query MBR candidate budget (0 = unlimited)")
	drain := flag.Duration("drain", 2*time.Second, "shutdown grace before in-flight queries are cancelled into partial results")
	preload := flag.String("preload", "", "layers to generate at startup: name=DATASET:scale[,name=DATASET:scale...]")
	dataDir := flag.String("data", "", "snapshot directory: every *.snap inside is loaded at startup (layer name = file basename), and sessions' save/load resolve bare names here")
	ingestDir := flag.String("ingest", "", "enable durable ingestion (live/insert/delete/compact verbs): per-table WAL segments and snapshot generations live here")
	coordDir := flag.String("coordinator", "", "coordinator mode: serve scatter-gather queries over the shard fleet described by this partition manifest directory (see spatialdb's partition command)")
	shardAddrs := flag.String("shards", "", "coordinator mode: comma-separated per-tile shard addresses in tile-ID order; separate a tile's replica addresses with \"/\" (default: the addresses recorded in the manifest)")
	shardTimeout := flag.Duration("shard-timeout", 0, "coordinator mode: per-shard response ceiling when a query carries no deadline (0 = 30s)")
	shardBreaker := flag.Duration("shard-breaker", 0, "coordinator mode: breaker cooldown after consecutive shard failures (0 = 5s)")
	shardHedge := flag.Duration("shard-hedge", 0, "coordinator mode: hedge a tile's sub-query on a second replica when the first has not answered within this delay (0 = disabled)")
	shardProbe := flag.Duration("shard-probe", 0, "coordinator mode: background health-probe interval; probe failures open a replica's breaker, probe successes half-open it for recovery (0 = disabled, passive cooldown)")
	compactPending := flag.Int("compact-pending", 0, "background compaction trigger: fold a live table once this many WAL records are pending (0 = default)")
	compactSegments := flag.Int("compact-segments", 0, "background compaction trigger: fold once a table's WAL spans more than this many segments (0 = default)")
	compactInterval := flag.Duration("compact-interval", 0, "background compactor poll cadence (0 = default)")
	faultSeed := flag.Int64("faultseed", 0, "fault-injection seed; 0 derives one from the clock (the chosen seed is logged for reproduction)")
	faultSpec := flag.String("faultspec", "", `arm fault injection: "site=kind:rate[,site=kind:rate...]" (e.g. "tester.hwfilter=wrong-answer:0.01")`)
	quiet := flag.Bool("quiet", false, "suppress the per-command access log on stdout")
	connect := flag.String("connect", "", "client mode: dial a running spatiald instead of serving")
	exec := flag.String("e", "", `client mode: run these ";"-separated commands and exit (default: read stdin)`)
	retries := flag.Int("retries", 3, "client mode: max retries per overloaded command (jittered exponential backoff honoring the server's retry-after hint)")
	flag.Parse()

	if *connect != "" {
		os.Exit(runClient(*connect, *exec, *retries))
	}

	cfg := server.Config{
		Addr:            *addr,
		HTTPAddr:        *httpAddr,
		MaxConcurrent:   *maxConcurrent,
		QueueWait:       *queueWait,
		MaxQueue:        *maxQueue,
		MaxLayers:       *maxLayers,
		DefaultTimeout:  *timeout,
		QueryTimeout:    *queryTimeout,
		WatchdogTimeout: *watchdogTimeout,
		SentinelEvery:   *sentinelEvery,
		DefaultBudget:   *budget,
		DataDir:         *dataDir,
		DrainGrace:      *drain,
	}
	if !*quiet {
		cfg.AccessLog = os.Stdout
	}
	if *faultSpec != "" {
		seed := *faultSeed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		inj, err := faultinject.ParseSpec(seed, *faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spatiald: faultspec:", err)
			os.Exit(1)
		}
		cfg.Faults = inj
		// The full reproduction line: rerunning with exactly these flags
		// replays the same fault schedule (injection is deterministic in
		// the seed and per-site sequence numbers).
		fmt.Fprintf(os.Stderr, "spatiald: fault injection armed: -faultseed=%d -faultspec=%q\n", seed, *faultSpec)
	}
	var mgr *ingest.Manager
	if *ingestDir != "" {
		mgr = ingest.NewManager(ingest.Options{
			Dir:             *ingestDir,
			Faults:          cfg.Faults,
			CompactPending:  *compactPending,
			CompactSegments: *compactSegments,
			Interval:        *compactInterval,
		})
		cfg.Ingest = mgr
		fmt.Fprintf(os.Stderr, "spatiald: durable ingestion enabled in %s\n", *ingestDir)
	}
	var co *coord.Coordinator
	if *coordDir != "" {
		m, err := partition.Load(*coordDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spatiald: coordinator:", err)
			os.Exit(1)
		}
		replicaAddrs, err := m.ReplicaAddrs()
		if *shardAddrs != "" {
			replicaAddrs, err = splitAddrs(*shardAddrs)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "spatiald: coordinator:", err)
			os.Exit(1)
		}
		co, err = coord.New(coord.Config{
			Manifest:        m,
			ReplicaAddrs:    replicaAddrs,
			ReadTimeout:     *shardTimeout,
			BreakerCooldown: *shardBreaker,
			HedgeDelay:      *shardHedge,
			ProbeInterval:   *shardProbe,
			Faults:          cfg.Faults,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "spatiald: coordinator:", err)
			os.Exit(1)
		}
		cfg.Coordinator = co
		fmt.Fprintf(os.Stderr, "spatiald: coordinating %d tiles x %d replicas (generation %d, %dx%d grid, margin %g)\n",
			m.NumTiles(), m.Replicas(), m.Generation, m.GX, m.GY, m.Margin)
	}
	srv := server.New(cfg)
	if co == nil {
		if err := loadSnapshots(srv.Catalog(), *dataDir); err != nil {
			fmt.Fprintln(os.Stderr, "spatiald: data:", err)
			os.Exit(1)
		}
		if err := preloadLayers(srv.Catalog(), *preload); err != nil {
			fmt.Fprintln(os.Stderr, "spatiald: preload:", err)
			os.Exit(1)
		}
	}
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "spatiald:", err)
		os.Exit(1)
	}
	// One write, so a reader that sees the wire address sees the HTTP one.
	ready := fmt.Sprintf("spatiald: serving wire protocol on %v", srv.Addr())
	if a := srv.HTTPAddr(); a != nil {
		ready += fmt.Sprintf(", http on %v", a)
	}
	fmt.Fprintln(os.Stderr, ready)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "spatiald: shutting down (draining in-flight queries)")
	ctx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "spatiald: shutdown:", err)
		os.Exit(1)
	}
	// WALs close after the listeners: no session can be appending, and the
	// final group commit is already durable (acks imply fsync).
	if mgr != nil {
		if err := mgr.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "spatiald: ingest close:", err)
			os.Exit(1)
		}
	}
	if co != nil {
		co.Close()
	}
}

// splitAddrs parses the -shards flag: comma-separated per-tile slots in
// tile-ID order, each slot either one address or a "/"-separated replica
// list (primary first) — e.g. "a:1/a:2,b:1/b:2". Blanks are
// refused (coord.New validates the count against the manifest).
func splitAddrs(spec string) ([][]string, error) {
	var table [][]string
	for _, slot := range strings.Split(spec, ",") {
		var reps []string
		for _, a := range strings.Split(slot, "/") {
			a = strings.TrimSpace(a)
			if a == "" {
				return nil, fmt.Errorf("empty address in -shards %q", spec)
			}
			reps = append(reps, a)
		}
		table = append(table, reps)
	}
	return table, nil
}

// loadSnapshots warm-starts the catalog from a -data directory: every
// *.snap file is opened (mmap-backed where the platform allows) and bound
// under its basename before the listeners open. A corrupt snapshot is a
// startup error — refusing to serve beats silently serving a partial
// catalog.
func loadSnapshots(cat *server.Catalog, dir string) error {
	if dir == "" {
		return nil
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for _, path := range paths {
		s, err := store.Open(path, store.OpenOptions{})
		if err != nil {
			return err
		}
		l, err := query.NewLayerFromSnapshot(s)
		if err != nil {
			s.Close()
			return err
		}
		name := strings.TrimSuffix(filepath.Base(path), ".snap")
		if err := cat.Set(name, l); err != nil {
			s.Close()
			return err
		}
		st := s.Stats()
		fmt.Fprintf(os.Stderr, "spatiald: loaded %q from %s: %d objects, %d bytes, mmap=%v, %.1fms\n",
			name, path, s.NumObjects(), st.Bytes, st.MMap, st.LoadMS)
	}
	return nil
}

// preloadLayers parses "name=DATASET:scale,..." and generates each layer
// into the catalog before the listeners open.
func preloadLayers(cat *server.Catalog, spec string) error {
	if spec == "" {
		return nil
	}
	for _, entry := range strings.Split(spec, ",") {
		name, gen, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok {
			return fmt.Errorf("bad preload entry %q (want name=DATASET:scale)", entry)
		}
		ds, scaleStr, ok := strings.Cut(gen, ":")
		if !ok {
			return fmt.Errorf("bad preload entry %q (want name=DATASET:scale)", entry)
		}
		scale, err := strconv.ParseFloat(scaleStr, 64)
		if err != nil {
			return fmt.Errorf("bad scale in %q: %w", entry, err)
		}
		d, err := data.Load(strings.ToUpper(ds), scale)
		if err != nil {
			return err
		}
		if err := cat.Set(name, query.NewLayer(d)); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spatiald: preloaded %q: %d objects\n", name, len(d.Objects))
	}
	return nil
}

// overloadRe matches a status line that refuses a command for overload:
// the server's own admission refusal ("error: overloaded: …") or a
// shard's that a coordinator passes on when every answering tile refused
// ("error: coord: shard N overloaded; retry after …").
var overloadRe = regexp.MustCompile(`^error: (coord: shard \d+ )?overloaded`)

// runClient dials a spatiald, sends commands (from -e or stdin), and
// prints each response through its status line. Overloaded commands are
// retried up to retries times with jittered exponential backoff, honoring
// the server's "retry after <dur>" hint when one is present. Exit code 1
// reports any command that ended in "error:".
func runClient(addr, script string, retries int) int {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spatiald:", err)
		return 1
	}
	defer conn.Close()
	rd := bufio.NewScanner(conn)
	rd.Buffer(make([]byte, 0, 64<<10), 1<<24)
	if !rd.Scan() { // greeting
		fmt.Fprintln(os.Stderr, "spatiald: no greeting from server")
		return 1
	}
	w := bufio.NewWriter(conn)
	// A response prints through a buffer flushed after its status line: a
	// streamed join is thousands of lines, not thousands of writes. Nothing
	// stays buffered between commands, so stderr notes keep their place.
	stdout := bufio.NewWriter(os.Stdout)
	failed := false
	// exec1 sends one command and collects its framed response; ok is
	// false when the connection died mid-exchange.
	exec1 := func(line string) (lines []string, status string, ok bool) {
		fmt.Fprintf(w, "%s\n", line)
		if err := w.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "spatiald:", err)
			return nil, "", false
		}
		for rd.Scan() {
			resp := rd.Text()
			if resp == "ok" || strings.HasPrefix(resp, "partial:") || strings.HasPrefix(resp, "error:") {
				return lines, resp, true
			}
			lines = append(lines, resp)
		}
		fmt.Fprintln(os.Stderr, "spatiald: connection closed mid-response")
		return lines, "", false
	}
	run := func(line string) bool {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			return true
		}
		backoff := 250 * time.Millisecond
		for attempt := 0; ; attempt++ {
			lines, status, ok := exec1(line)
			if !ok {
				failed = true
				return false
			}
			if overloadRe.MatchString(status) && attempt < retries {
				d := retryDelay(status, &backoff)
				fmt.Fprintf(os.Stderr, "spatiald: overloaded, retrying in %v (attempt %d/%d)\n",
					d.Round(time.Millisecond), attempt+1, retries)
				time.Sleep(d)
				continue
			}
			for _, l := range lines {
				fmt.Fprintln(stdout, l)
			}
			fmt.Fprintln(stdout, status)
			_ = stdout.Flush() // as with Println before: a closed stdout is not reported
			if strings.HasPrefix(status, "error:") {
				failed = true
			}
			return true
		}
	}
	if script != "" {
		for _, line := range strings.Split(script, ";") {
			if !run(line) {
				break
			}
		}
	} else {
		in := bufio.NewScanner(os.Stdin)
		in.Buffer(make([]byte, 0, 64<<10), 1<<24)
		for in.Scan() {
			if !run(in.Text()) {
				break
			}
		}
	}
	fmt.Fprintf(w, "quit\n")
	w.Flush()
	if failed {
		return 1
	}
	return 0
}

// retryDelay picks the next overload backoff: the exponential schedule
// (doubling, capped at 10s) raised to the server's parsed "retry after"
// hint when the hint is longer, then jittered by ±25% so a herd of
// rejected clients does not retry in lockstep.
func retryDelay(status string, backoff *time.Duration) time.Duration {
	d := *backoff
	*backoff *= 2
	if *backoff > 10*time.Second {
		*backoff = 10 * time.Second
	}
	if i := strings.LastIndex(status, "retry after "); i >= 0 {
		if hint, err := time.ParseDuration(strings.TrimSpace(status[i+len("retry after "):])); err == nil && hint > d {
			d = hint
		}
	}
	jitter := time.Duration(rand.Int63n(int64(d)/2 + 1))
	return d*3/4 + jitter
}
