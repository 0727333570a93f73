// Coordinator mode: an Engine whose Coord field is set routes the query
// verbs over a shard fleet (internal/coord) instead of the local
// refinement pipeline, while keeping the grammar, session settings,
// admission gating, and typed-partial semantics identical — a client
// cannot tell a coordinator from a fat single node except for the
// "shards" verb and the per-shard health in /metrics. Local data verbs
// (gen, load, save, live ingestion, partition, the shard-side verbs) are
// refused with a typed *CoordUnsupportedError: the coordinator owns no
// data, only the manifest.
package shellcmd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/coord"
	"repro/internal/geom"
	"repro/internal/query"
)

// CoordUnsupportedError is the typed refusal for verbs that need local
// data on a coordinator node.
type CoordUnsupportedError struct{ Verb string }

func (e *CoordUnsupportedError) Error() string {
	return fmt.Sprintf("%s is not available on a coordinator (run it on a shard; the coordinator serves join/pjoin/within/select/layers/shards)", e.Verb)
}

// coordHelp replaces the Help text in coordinator mode.
const coordHelp = `coordinator commands:
  join <a> <b> [sw|hw]              scatter-gather intersection join over all shards
  pjoin <a> <b> [workers]           alias of join (parallelism is cross-shard)
  within <a> <b> <D> [sw|hw]        scatter-gather within-distance join (D must be <= the replication margin)
  select <layer> <WKT POLYGON>      selection routed to the tiles overlapping the query MBR
  layers                            the partitioned layers from the deployment manifest
  shards                            per-replica role, address, breaker state (closed/open/half-open), failure counts, and failover totals
  timeout <duration|off>            bound each fanned-out query (shards get the budget minus a merge reserve)
  budget <n|off>                    accepted for session compatibility (enforced shard-side)
  quit                              leave

Responses stream "id <N>" / "pair <A> <B>" data lines with the stable
global ids, one merged "stats <json>" line, and a summary. In a
replicated deployment a failing replica is retried on the tile's next
live replica, one attempt at a time; the answer degrades to "partial:"
only when every replica of a tile is down or out of time — the lines
above are valid but miss that tile.
`

// coordExec dispatches one command in coordinator mode.
func (e *Engine) coordExec(ctx context.Context, cmd string, args []string, line string, out io.Writer) (Result, error) {
	switch cmd {
	case "help":
		fmt.Fprint(out, coordHelp)
		return Result{Stats: query.Stats{Op: "help"}}, nil
	case "timeout":
		return e.setTimeout(args, out)
	case "budget":
		return e.setBudget(args, out)
	case "layers":
		m := e.Coord.Manifest()
		names := make([]string, 0, len(m.Layers))
		for name := range m.Layers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			li := m.Layers[name]
			fmt.Fprintf(out, "%-12s %6d objects (%d replicas over %d tiles)  bounds %v\n",
				name, li.Objects, li.Replicas, m.NumTiles(), m.Bounds)
		}
		fmt.Fprintf(out, "generation %d, %dx%d grid, margin %s\n",
			m.Generation, m.GX, m.GY, strconv.FormatFloat(m.Margin, 'g', -1, 64))
		return Result{Stats: query.Stats{Op: "layers"}}, nil
	case "shards":
		for _, h := range e.Coord.Health() {
			fmt.Fprintf(out, "shard %d/%d %-8s %-22s %-10s queries=%d fails=%d consec=%d",
				h.Tile, h.Replica, h.Role, h.Addr, h.State, h.Queries, h.Fails, h.ConsecFails)
			if h.LastErr != "" {
				fmt.Fprintf(out, " last=%q", h.LastErr)
			}
			fmt.Fprintln(out)
		}
		t := e.Coord.Totals()
		fmt.Fprintf(out, "failover: retries=%d probes=%d probe_failures=%d\n",
			t.Retries, t.Probes, t.ProbeFails)
		return Result{Stats: query.Stats{Op: "shards"}}, nil
	case "select":
		return e.coordSelect(ctx, line, out)
	case "join", "pjoin":
		if len(args) < 2 || len(args) > 3 {
			return Result{}, fmt.Errorf("usage: %s <a> <b> [sw|hw]", cmd)
		}
		mode := ""
		if cmd == "join" && len(args) == 3 {
			mode = args[2]
		}
		return e.coordFan(ctx, "join", out, func(qctx context.Context, sink coord.RowSink) (coord.Result, error) {
			return e.Coord.JoinStream(qctx, args[0], args[1], mode, sink)
		})
	case "within":
		if len(args) < 3 || len(args) > 4 {
			return Result{}, errors.New(joinUsage["within"])
		}
		d, err := parseDistance("within", args[2])
		if err != nil {
			return Result{}, err
		}
		mode := ""
		if len(args) == 4 {
			mode = args[3]
		}
		return e.coordFan(ctx, "within", out, func(qctx context.Context, sink coord.RowSink) (coord.Result, error) {
			return e.Coord.WithinStream(qctx, args[0], args[1], d, mode, sink)
		})
	default:
		return Result{}, &CoordUnsupportedError{Verb: cmd}
	}
}

func (e *Engine) coordSelect(ctx context.Context, line string, out io.Writer) (Result, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "select"))
	name, wkt, ok := strings.Cut(rest, " ")
	if !ok {
		return Result{}, fmt.Errorf("usage: select <layer> <WKT POLYGON>")
	}
	q, err := geom.ParsePolygonWKT(wkt)
	if err != nil {
		return Result{}, err
	}
	return e.coordFan(ctx, "select", out, func(qctx context.Context, sink coord.RowSink) (coord.Result, error) {
		return e.Coord.SelectStream(qctx, name, wkt, q.Bounds(), sink)
	})
}

// coordFan runs one fanned-out query with the session's deadline,
// streaming the merged id/pair rows to the client a chunk at a time: the
// sink encodes each row the merger releases into one buffer and the
// chunk's end writes and flushes it (no coordinator-side buffering beyond
// the chunk), and folds a shard miss into the typed partial. Rows arrive
// in cross-shard merge order, not sorted — dedup and the reference-point
// rule still hold.
func (e *Engine) coordFan(ctx context.Context, op string, out io.Writer, run func(context.Context, coord.RowSink) (coord.Result, error)) (Result, error) {
	qctx, cancel := e.qctx(ctx)
	defer cancel()
	start := time.Now()
	rows := rowBatch{out: out}
	sink := coord.RowSink{
		ID: func(id uint64) error {
			rows.buf = coord.AppendIDRow(rows.buf, id)
			return nil
		},
		Pair: func(p [2]uint64) error {
			rows.buf = coord.AppendPairRow(rows.buf, p[0], p[1])
			return nil
		},
		Flush: rows.send,
	}
	res, cerr := run(qctx, sink)
	if cerr != nil {
		var pe *query.PartialError
		if !errors.As(cerr, &pe) {
			return Result{}, cerr
		}
	}
	writeStats(out, res.Stats)
	var slowest float64
	for _, ms := range res.ShardMS {
		if ms > slowest {
			slowest = ms
		}
	}
	total := time.Since(start)
	mergeMS := float64(total.Microseconds())/1000 - slowest
	if mergeMS < 0 {
		mergeMS = 0
	}
	fmt.Fprintf(out, "%s: %d results from %d/%d shards in %v (slowest shard %.1fms, scatter-gather overhead %.1fms)\n",
		op, res.Stats.Results, res.ShardsOK, res.ShardsAsked, total.Round(time.Microsecond), slowest, mergeMS)
	return Result{Stats: res.Stats, Partial: note(out, cerr)}, nil
}
