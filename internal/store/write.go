package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/data"
	"repro/internal/edgeindex"
	"repro/internal/geom"
	"repro/internal/interval"
	"repro/internal/parallel"
	"repro/internal/raster"
	"repro/internal/rtree"
)

// SaveOptions configures the snapshot writer.
type SaveOptions struct {
	// SigRes is the raster-signature resolution: 0 uses
	// raster.DefaultSignatureRes, a negative value omits the signature
	// section entirely (signatures are an optional accelerator), and one
	// above raster.MaxSignatureRes is an error.
	//
	//reach:keep TestSnapshotOptionalSections writes a snapshot without signatures for the reader's fallback
	SigRes int
	// IntervalOrder is the Hilbert grid order for the v2 interval column:
	// 0 derives the order from the objects (interval.ChooseOrder over the
	// canonical square), a negative value omits the interval section.
	// Like signatures, intervals are an optional accelerator — v1 readers
	// skip the unknown section, and loaded layers without one fall back
	// to signatures.
	IntervalOrder int
	// NoEdgeBoxes omits the persisted edge-index hierarchies; loaded
	// layers then rebuild them lazily like in-memory layers do.
	//
	//reach:keep TestSnapshotOptionalSections writes a snapshot without edge boxes for the reader's fallback
	NoEdgeBoxes bool
	// Tool is recorded in the meta section as provenance.
	Tool string

	// IDs persists per-object stable ids (the ids section); must be nil
	// or exactly one strictly-increasing id per object. Load-only
	// snapshots omit it and readers assume identity ids.
	IDs []uint64
	// NextID and AppliedLSN record live-ingestion lineage in the meta
	// section; zero values are omitted (load-only snapshots).
	NextID     uint64
	AppliedLSN uint64
}

// BuildStats reports what Save produced.
type BuildStats struct {
	Objects       int
	TotalVerts    int
	Sections      int
	Bytes         int64
	SigRes        int // 0 when signatures were omitted
	IntervalOrder int // 0 when the interval column was omitted
	BuildMS       float64
}

type section struct {
	id      uint32
	payload []byte
}

// Save builds a snapshot of d and writes it to path atomically: the bytes
// are assembled in a temp file in path's directory, synced, and renamed
// over path, so a crash mid-write leaves either the old snapshot or none.
// The dataset must contain valid polygons (finite vertices, ≥ 3 each);
// Save validates and refuses rather than persisting geometry the loader
// would reject.
func Save(path string, d *data.Dataset, opts SaveOptions) (BuildStats, error) {
	start := time.Now()
	secs, stats, err := buildSections(d, opts)
	if err != nil {
		return BuildStats{}, err
	}
	var size int64
	if err := writeAtomic(path, func(w io.Writer) (err error) {
		size, err = writeSnapshot(w, secs)
		return err
	}); err != nil {
		return BuildStats{}, err
	}
	stats.Sections = len(secs)
	stats.Bytes = size
	stats.BuildMS = float64(time.Since(start).Microseconds()) / 1000
	return stats, nil
}

func buildSections(d *data.Dataset, opts SaveOptions) ([]section, BuildStats, error) {
	n := len(d.Objects)
	totalVerts := 0
	for i, p := range d.Objects {
		if p.NumVerts() < 3 {
			return nil, BuildStats{}, fmt.Errorf("store: object %d has %d vertices", i, p.NumVerts())
		}
		for _, v := range p.Verts {
			if !v.IsFinite() {
				return nil, BuildStats{}, fmt.Errorf("store: object %d has a non-finite vertex", i)
			}
		}
		totalVerts += p.NumVerts()
	}

	sigRes := 0
	if opts.SigRes >= 0 {
		sigRes = opts.SigRes
		if sigRes == 0 {
			sigRes = raster.DefaultSignatureRes
		}
		if sigRes > raster.MaxSignatureRes {
			return nil, BuildStats{}, fmt.Errorf("store: signature resolution %d above %d", sigRes, raster.MaxSignatureRes)
		}
	}
	tool := opts.Tool
	if tool == "" {
		tool = "repro/store"
	}
	if opts.IDs != nil {
		if len(opts.IDs) != n {
			return nil, BuildStats{}, fmt.Errorf("store: %d ids for %d objects", len(opts.IDs), n)
		}
		for i := 1; i < n; i++ {
			if opts.IDs[i] <= opts.IDs[i-1] {
				return nil, BuildStats{}, fmt.Errorf("store: ids not strictly increasing at %d", i)
			}
		}
		if n > 0 && opts.NextID > 0 && opts.IDs[n-1] >= opts.NextID {
			return nil, BuildStats{}, fmt.Errorf("store: id %d not below next id %d", opts.IDs[n-1], opts.NextID)
		}
	}
	var ivalGrid interval.Grid
	if opts.IntervalOrder >= 0 {
		if g, ok := interval.GridFor(d.Objects, opts.IntervalOrder); ok {
			ivalGrid = g
		}
	}
	meta, err := json.Marshal(Meta{
		Name:          d.Name,
		Objects:       n,
		TotalVerts:    totalVerts,
		SigRes:        sigRes,
		IntervalOrder: ivalGrid.Order,
		Tool:          tool,
		Created:       time.Now().UTC().Format(time.RFC3339),
		NextID:        opts.NextID,
		AppliedLSN:    opts.AppliedLSN,
	})
	if err != nil {
		return nil, BuildStats{}, fmt.Errorf("store: encode meta: %w", err)
	}

	counts := make([]byte, 0, n*4)
	coords := make([]byte, 0, totalVerts*16)
	mbrs := make([]byte, 0, n*32)
	for _, p := range d.Objects {
		counts = binary.LittleEndian.AppendUint32(counts, uint32(p.NumVerts()))
		for _, v := range p.Verts {
			coords = appendFloat64(coords, v.X)
			coords = appendFloat64(coords, v.Y)
		}
		b := p.Bounds()
		mbrs = appendFloat64(mbrs, b.MinX)
		mbrs = appendFloat64(mbrs, b.MinY)
		mbrs = appendFloat64(mbrs, b.MaxX)
		mbrs = appendFloat64(mbrs, b.MaxY)
	}

	entries := make([]rtree.Entry, n)
	for i, p := range d.Objects {
		entries[i] = rtree.Entry{Bounds: p.Bounds(), ID: i}
	}
	treeSec := encodeTree(rtree.NewBulk(entries).Export())

	secs := []section{
		{secMeta, meta},
		{secVertCounts, counts},
		{secCoords, coords},
		{secMBRs, mbrs},
		{secRTree, treeSec},
	}
	boxSec, sigSec, ivalSec := encodeObjects(d.Objects, !opts.NoEdgeBoxes, sigRes, ivalGrid)
	if boxSec != nil {
		secs = append(secs, section{secEdgeBoxes, boxSec})
	}
	if sigSec != nil {
		secs = append(secs, section{secSigs, sigSec})
	}
	if ivalSec != nil {
		secs = append(secs, section{secIntervals, ivalSec})
	}
	if opts.IDs != nil {
		ids := make([]byte, 0, n*8)
		for _, id := range opts.IDs {
			ids = binary.LittleEndian.AppendUint64(ids, id)
		}
		secs = append(secs, section{secIDs, ids})
	}
	return secs, BuildStats{Objects: n, TotalVerts: totalVerts, SigRes: sigRes, IntervalOrder: ivalGrid.Order}, nil
}

func appendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// encodeTree serializes a packed R-tree: a 5-word header (size,
// maxEntries, minEntries, nodeCount, entryCount), then per node the
// bounds (4 float64) plus leaf flag and count (2 uint32), then the leaf
// entry object ids (uint32 each). Entry bounds are not stored — the
// loader reconstructs them from the MBR section by id, exactly as the
// in-memory layer builds its entries from p.Bounds().
func encodeTree(p *rtree.Packed) []byte {
	b := make([]byte, 0, 40+len(p.Nodes)*40+len(p.Entries)*4)
	for _, v := range []int{p.Size, p.MaxEntries, p.MinEntries, len(p.Nodes), len(p.Entries)} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, n := range p.Nodes {
		b = appendFloat64(b, n.Bounds.MinX)
		b = appendFloat64(b, n.Bounds.MinY)
		b = appendFloat64(b, n.Bounds.MaxX)
		b = appendFloat64(b, n.Bounds.MaxY)
		leaf := uint32(0)
		if n.Leaf {
			leaf = 1
		}
		b = binary.LittleEndian.AppendUint32(b, leaf)
		b = binary.LittleEndian.AppendUint32(b, uint32(n.Count))
	}
	for _, e := range p.Entries {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.ID))
	}
	return b
}

// encodeObjects encodes the per-object sections: the edge boxes when
// boxes is set, the signatures when sigRes > 0 and the interval column
// when g is valid, nil for each one not asked for. One pass over objs
// builds all three, split into contiguous chunks on
// runtime.GOMAXPROCS(0) workers; each object's edge index is built once,
// into storage its worker reuses, for both its boxes and its interval
// list's gap labels. Boxes and signatures have sizes known up front, so
// every object writes them in place; the span words are joined in object
// order. The bytes do not depend on the worker count.
//
// Edge boxes: n box counts (uint32), then the concatenated flat boxes of
// every object's hierarchy (4 float64 each). Counts are redundant with the
// vertex counts (the hierarchy shape is a pure function of the edge
// count) and double as a cross-check at load.
//
// Signatures: resolution and words-per-object (uint32 each), then n
// fixed-size bitmaps. Bounds are not stored — a signature's grid tiles its
// object's MBR.
//
// Intervals, the v2 column: a 32-byte header (order uint32, reserved
// uint32, grid minX/minY/size float64), one span count per object
// (uint32), zero-padding to 8-byte alignment, then the concatenated packed
// span words (uint64 each). The grid travels with the column so a reader
// can tell whether a persisted column matches the grid a join wants
// without re-deriving anything.
func encodeObjects(objs []*geom.Polygon, boxes bool, sigRes int, g interval.Grid) (boxSec, sigSec, ivalSec []byte) {
	n := len(objs)
	var boxAt []int // byte offset of object i's first box in boxSec
	if boxes {
		boxAt = make([]int, n+1)
		boxAt[0] = 4 * n
		for i, p := range objs {
			boxAt[i+1] = boxAt[i] + 32*edgeindex.FlatBoxCount(p.NumEdges())
		}
		boxSec = make([]byte, boxAt[n])
	}
	words := 0
	if sigRes > 0 {
		words = raster.SignatureWords(sigRes)
		sigSec = make([]byte, 8+8*words*n)
		binary.LittleEndian.PutUint32(sigSec, uint32(sigRes))
		binary.LittleEndian.PutUint32(sigSec[4:], uint32(words))
	}
	if g.Valid() {
		ivalSec = make([]byte, 32+align8(uint64(4*n)))
		binary.LittleEndian.PutUint32(ivalSec, uint32(g.Order))
		binary.LittleEndian.PutUint64(ivalSec[8:], math.Float64bits(g.MinX))
		binary.LittleEndian.PutUint64(ivalSec[16:], math.Float64bits(g.MinY))
		binary.LittleEndian.PutUint64(ivalSec[24:], math.Float64bits(g.Size))
	}
	type worker struct {
		ix edgeindex.Index
		r  interval.Rasterizer
	}
	spans := parallel.Chunks(n, func() *worker { return new(worker) }, func(w *worker, lo, hi int) interval.Spans {
		var spans interval.Spans
		for i := lo; i < hi; i++ {
			p := objs[i]
			w.ix.Build(p)
			if boxSec != nil {
				flat := w.ix.FlatBoxes()
				binary.LittleEndian.PutUint32(boxSec[4*i:], uint32(len(flat)))
				for k, r := range flat {
					b := boxSec[boxAt[i]+32*k:]
					binary.LittleEndian.PutUint64(b, math.Float64bits(r.MinX))
					binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.MinY))
					binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r.MaxX))
					binary.LittleEndian.PutUint64(b[24:], math.Float64bits(r.MaxY))
				}
			}
			if sigSec != nil {
				b := sigSec[8+8*words*i:]
				for k, word := range raster.ComputeSignature(p, sigRes).Words {
					binary.LittleEndian.PutUint64(b[8*k:], word)
				}
			}
			if ivalSec != nil {
				before := len(spans)
				spans = w.r.Append(spans, &w.ix, g)
				binary.LittleEndian.PutUint32(ivalSec[32+4*i:], uint32(len(spans)-before))
			}
		}
		return spans
	})
	if ivalSec != nil {
		total := 0
		for _, c := range spans {
			total += len(c)
		}
		ivalSec = slices.Grow(ivalSec, 8*total)
		for _, c := range spans {
			for _, word := range c {
				ivalSec = binary.LittleEndian.AppendUint64(ivalSec, word)
			}
		}
	}
	return boxSec, sigSec, ivalSec
}

// writeSnapshot writes secs to w as one snapshot and returns its size:
// the header and section table, then the sections at 8-byte aligned
// offsets, each zero-padded to the next, with per-section CRC32s and the
// table CRC stamped into the header. The sections go to w as they are, so
// a save holds no second, assembled copy of them.
func writeSnapshot(w io.Writer, secs []section) (int64, error) {
	tableOff := uint64(headerSize)
	dataOff := align8(tableOff + uint64(len(secs))*tableEntrySize)
	head := make([]byte, dataOff)
	copy(head, Magic)
	binary.LittleEndian.PutUint32(head[8:], Version)
	binary.LittleEndian.PutUint32(head[12:], uint32(len(secs)))
	off := dataOff
	for i, s := range secs {
		ent := head[tableOff+uint64(i)*tableEntrySize:]
		binary.LittleEndian.PutUint32(ent[0:], s.id)
		binary.LittleEndian.PutUint64(ent[8:], off)
		binary.LittleEndian.PutUint64(ent[16:], uint64(len(s.payload)))
		binary.LittleEndian.PutUint32(ent[24:], crc32.ChecksumIEEE(s.payload))
		off = align8(off + uint64(len(s.payload)))
	}
	table := head[tableOff : tableOff+uint64(len(secs))*tableEntrySize]
	binary.LittleEndian.PutUint32(head[16:], crc32.ChecksumIEEE(table))
	if _, err := w.Write(head); err != nil {
		return 0, err
	}
	var pad [8]byte
	for _, s := range secs {
		if _, err := w.Write(s.payload); err != nil {
			return 0, err
		}
		if _, err := w.Write(pad[:align8(uint64(len(s.payload)))-uint64(len(s.payload))]); err != nil {
			return 0, err
		}
	}
	return int64(off), nil
}

// writeAtomic writes path's bytes with write via a temp file in the same
// directory, fsynced before the rename so the publish is crash-safe.
func writeAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".snap-*.tmp")
	if err != nil {
		return fmt.Errorf("store: create temp: %w", err)
	}
	tmp := f.Name()
	cleanup := func(e error) error {
		f.Close()
		os.Remove(tmp)
		return e
	}
	if err := write(f); err != nil {
		return cleanup(fmt.Errorf("store: write %s: %w", tmp, err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("store: sync %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		return cleanup(fmt.Errorf("store: close %s: %w", tmp, err))
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: rename into %s: %w", path, err)
	}
	// The file's bytes are durable, but the rename lives in the directory:
	// without fsyncing the directory a power loss can resurrect the old
	// entry (or none), un-publishing an acked snapshot.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}
