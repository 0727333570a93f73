package shellcmd

// Shard-side verbs for the multi-node deployment. A shard is a vanilla
// spatiald process serving the per-tile snapshots written by the
// partition verb; what makes it a shard is only which commands the
// coordinator sends it. The shard verbs (shardselect, shardjoin,
// shardwithin) are handled with their single-node counterparts — see
// selectCmd and runJoin — and differ from them in two ways:
//
//   - They emit machine-readable data lines — "id <N>" for selections,
//     "pair <A> <B>" for joins, and one trailing "stats <json>" record —
//     instead of a human summary, so the coordinator can merge streams
//     without scraping prose. None of these prefixes collides with the
//     wire status words (ok / partial: / error:).
//
//   - The join verbs (shardjoin, shardwithin) take the shard's ownership
//     region on the wire and apply the reference-point rule locally: a
//     pair is emitted only if this shard owns the reference point of its
//     MBR intersection, so the coordinator can concatenate shard outputs
//     without deduplication. Ids are the stable global ids persisted in
//     the tile snapshots (SaveOptions.IDs), so merged results are
//     directly comparable with a single-node run.

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/geom"
	"repro/internal/partition"
	"repro/internal/query"
)

// globalIDs returns the layer's stable-id column when it was loaded from
// a snapshot that persisted one; nil means identity (local index == id).
func globalIDs(v *query.View) []uint64 {
	if l, ok := v.Single(); ok {
		if s, ok := l.Snapshot(); ok {
			return s.IDs()
		}
	}
	return nil
}

func gid(ids []uint64, i int) uint64 {
	if ids == nil {
		return uint64(i)
	}
	return ids[i]
}

// parseRect reads an ownership region from four wire fields. Border
// tiles carry ±Inf edges; strconv round-trips them ("+Inf"/"-Inf").
func parseRect(args []string) (geom.Rect, error) {
	var v [4]float64
	for i, a := range args {
		f, err := strconv.ParseFloat(a, 64)
		if err != nil {
			return geom.Rect{}, fmt.Errorf("bad region coordinate %q: %w", a, err)
		}
		v[i] = f
	}
	return geom.Rect{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3]}, nil
}

// FormatRect renders a region for the wire in the form parseRect reads.
func FormatRect(r geom.Rect) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return f(r.MinX) + " " + f(r.MinY) + " " + f(r.MaxX) + " " + f(r.MaxY)
}

// rowBatch carries one emitted sink batch to the client: the rows are
// encoded into one reused buffer and leave in one Write followed by one
// flush, so a batch is one socket write on a spatiald session and the
// client sees it while the next batch is still refining.
type rowBatch struct {
	out io.Writer
	buf []byte
}

// send writes the encoded rows, if any, and flushes when the writer
// buffers: an optional Flush() error, in the manner of http.Flusher (a
// spatiald session, a bufio.Writer). Any other writer already has them.
func (b *rowBatch) send() error {
	if len(b.buf) == 0 {
		return nil
	}
	_, err := b.out.Write(b.buf)
	b.buf = b.buf[:0]
	if err != nil {
		return err
	}
	if f, ok := b.out.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// writeStats terminates a shard response's data section with the uniform
// stats record on one line.
func writeStats(out io.Writer, st query.Stats) {
	b, err := json.Marshal(st)
	if err != nil {
		return // stats are advisory; never poison the data stream
	}
	fmt.Fprintf(out, "stats %s\n", b)
}

// partitionCmd splits a layer into a tile grid on disk:
// partition <layer> <tiles> <dir> [margin [replicas]]
func (e *Engine) partitionCmd(store Store, args []string, out io.Writer) (Result, error) {
	if len(args) < 3 || len(args) > 5 {
		return Result{}, fmt.Errorf("usage: partition <layer> <tiles> <dir> [margin [replicas]]")
	}
	v, err := viewOf(store, args[0])
	if err != nil {
		return Result{}, err
	}
	n, err := strconv.Atoi(args[1])
	if err != nil || n < 1 {
		return Result{}, fmt.Errorf("bad tile count %q", args[1])
	}
	margin := 0.0
	if len(args) >= 4 {
		if margin, err = strconv.ParseFloat(args[3], 64); err != nil || margin < 0 {
			return Result{}, fmt.Errorf("bad margin %q", args[3])
		}
	}
	replicas := 0
	if len(args) == 5 {
		if replicas, err = strconv.Atoi(args[4]); err != nil || replicas < 1 {
			return Result{}, fmt.Errorf("bad replica count %q", args[4])
		}
	}
	res, err := partition.Write(args[2], args[0], v.Dataset(),
		partition.Options{Tiles: n, Replicas: replicas, Margin: margin, Tool: "spatialdb"})
	if err != nil {
		return Result{}, err
	}
	m := res.Manifest
	fmt.Fprintf(out, "partitioned %q into %d tiles x %d replicas (%dx%d grid, margin %g) under %s: %d objects, %d replicas (%.2fx), %d bytes in %.1fms (generation %d)\n",
		args[0], m.NumTiles(), m.Replicas(), m.GX, m.GY, m.Margin, args[2],
		res.Objects, res.Replicas, float64(res.Replicas)/float64(max(res.Objects, 1)),
		res.Bytes, res.WallMS, m.Generation)
	return Result{Stats: query.Stats{Op: "partition", Results: res.Objects}, Mutation: true}, nil
}
