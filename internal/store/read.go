package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"time"

	"repro/internal/data"
	"repro/internal/edgeindex"
	"repro/internal/geom"
	"repro/internal/interval"
	"repro/internal/raster"
	"repro/internal/rtree"
)

// OpenOptions configures the snapshot reader.
type OpenOptions struct {
	// ForceCopy disables mmap and zero-copy aliasing: the file is read
	// into a heap slice and every column is decoded. The portable
	// fallback path; tests exercise both.
	//
	//reach:keep TestSnapshotRoundTrip and TestForceCopyDeltaOverlayParity reach the non-mmap reader, the only one off unix, through it
	ForceCopy bool
}

// LoadStats reports how a snapshot was loaded.
type LoadStats struct {
	Bytes    int64
	Sections int
	MMap     bool // file was memory-mapped (vs read into a slice)
	LoadMS   float64
}

// Snapshot is an opened, fully validated snapshot. Accessors return views
// into the (possibly memory-mapped, read-only) file; none of the returned
// slices or polygons may be mutated. A Snapshot is immutable and safe for
// concurrent readers; Close unmaps the file, after which no view derived
// from the snapshot may be touched.
type Snapshot struct {
	path  string
	raw   []byte
	unmap func() error
	stats LoadStats

	meta       Meta
	vertCounts []uint32
	coords     []geom.Point
	mbrs       []geom.Rect
	vertOff    []int // prefix sums over vertCounts, len n+1

	packed *rtree.Packed

	// Edge-index boxes: per-object count prefix sums into boxes. Empty
	// when the section was omitted.
	boxOff []int
	boxes  []geom.Rect

	// Raster signatures: fixed-stride bitmap words. Empty when omitted.
	sigRes   int
	sigWords int
	sigBits  []uint64

	// Stable per-object ids (live-ingestion lineage). Nil when the
	// section was omitted; readers then assume identity ids.
	ids []uint64

	// Interval column (v2 approximation). Nil when omitted; loaded
	// layers then fall back to the v1 signature path or a lazy rebuild.
	ivals *interval.Column
}

// Open validates and loads the snapshot at path. The file is memory-
// mapped when the platform supports it and opts.ForceCopy is false;
// either way the snapshot is fully CRC-checked and structurally validated
// before Open returns, so corruption surfaces here as a *FormatError and
// never later inside a query.
func Open(path string, opts OpenOptions) (*Snapshot, error) {
	start := time.Now()
	var raw []byte
	var unmap func() error
	mapped := false
	if !opts.ForceCopy {
		if b, un, ok := mmapPath(path); ok {
			raw, unmap, mapped = b, un, true
		}
	}
	if raw == nil {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("store: read %s: %w", path, err)
		}
		raw = b
	}
	s, err := openBytes(path, raw, opts.ForceCopy)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	s.unmap = unmap
	s.stats.MMap = mapped
	s.stats.LoadMS = float64(time.Since(start).Microseconds()) / 1000
	return s, nil
}

// OpenBytes opens a snapshot held in memory (no mmap, aliasing allowed
// when alignment permits). The fuzz harness drives the reader through
// this entry point.
//
//reach:keep entry point of FuzzSnapshotOpen and FuzzIntervalSection, and of store_test's in-memory corruption cases
func OpenBytes(b []byte) (*Snapshot, error) {
	return openBytes("", b, false)
}

func openBytes(path string, raw []byte, forceCopy bool) (*Snapshot, error) {
	if len(raw) < headerSize {
		return nil, errf(path, "", "truncated: %d bytes, need %d for the header", len(raw), headerSize)
	}
	if string(raw[:8]) != Magic {
		return nil, errf(path, "", "bad magic %q", raw[:8])
	}
	if v := binary.LittleEndian.Uint32(raw[8:]); v != Version {
		return nil, errf(path, "", "version %d, this reader understands %d", v, Version)
	}
	nsec := binary.LittleEndian.Uint32(raw[12:])
	if nsec == 0 || nsec > maxSections {
		return nil, errf(path, "", "implausible section count %d", nsec)
	}
	tableEnd := uint64(headerSize) + uint64(nsec)*tableEntrySize
	if tableEnd > uint64(len(raw)) {
		return nil, errf(path, "", "truncated: table needs %d bytes, file has %d", tableEnd, len(raw))
	}
	table := raw[headerSize:tableEnd]
	if got, want := crc32.ChecksumIEEE(table), binary.LittleEndian.Uint32(raw[16:]); got != want {
		return nil, errf(path, "", "table CRC mismatch (got %08x, stored %08x)", got, want)
	}

	sections := map[uint32][]byte{}
	for i := uint32(0); i < nsec; i++ {
		ent := table[i*tableEntrySize:]
		id := binary.LittleEndian.Uint32(ent[0:])
		off := binary.LittleEndian.Uint64(ent[8:])
		length := binary.LittleEndian.Uint64(ent[16:])
		crc := binary.LittleEndian.Uint32(ent[24:])
		name := sectionName(id)
		if _, dup := sections[id]; dup {
			return nil, errf(path, name, "duplicate section")
		}
		if off < tableEnd || off%8 != 0 {
			return nil, errf(path, name, "bad offset %d", off)
		}
		if off+length < off || off+length > uint64(len(raw)) {
			return nil, errf(path, name, "extends past end of file (offset %d, length %d, file %d)", off, length, len(raw))
		}
		payload := raw[off : off+length]
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return nil, errf(path, name, "CRC mismatch (got %08x, stored %08x)", got, crc)
		}
		sections[id] = payload
	}
	for _, id := range []uint32{secMeta, secVertCounts, secCoords, secMBRs, secRTree} {
		if _, ok := sections[id]; !ok {
			return nil, errf(path, sectionName(id), "required section missing")
		}
	}

	s := &Snapshot{path: path, raw: raw, stats: LoadStats{Bytes: int64(len(raw)), Sections: int(nsec)}}
	if err := json.Unmarshal(sections[secMeta], &s.meta); err != nil {
		return nil, errf(path, "meta", "bad JSON: %v", err)
	}
	n := s.meta.Objects
	if n < 0 || n > len(raw) {
		return nil, errf(path, "meta", "implausible object count %d", n)
	}
	if s.meta.TotalVerts < 0 || s.meta.TotalVerts > len(raw) {
		return nil, errf(path, "meta", "implausible vertex count %d", s.meta.TotalVerts)
	}

	if err := s.loadColumns(path, sections, forceCopy); err != nil {
		return nil, err
	}
	if err := s.loadTree(path, sections[secRTree], forceCopy); err != nil {
		return nil, err
	}
	if b, ok := sections[secEdgeBoxes]; ok {
		if err := s.loadEdgeBoxes(path, b, forceCopy); err != nil {
			return nil, err
		}
	}
	if b, ok := sections[secSigs]; ok {
		if err := s.loadSignatures(path, b, forceCopy); err != nil {
			return nil, err
		}
	}
	if b, ok := sections[secIDs]; ok {
		if err := s.loadIDs(path, b, forceCopy); err != nil {
			return nil, err
		}
	}
	if b, ok := sections[secIntervals]; ok {
		if err := s.loadIntervals(path, b, forceCopy); err != nil {
			return nil, err
		}
	}
	if s.meta.NextID > 0 && s.nextIDFloor() > s.meta.NextID {
		return nil, errf(path, "meta", "next id %d below the %d stored objects", s.meta.NextID, n)
	}
	return s, nil
}

// view returns b either aliased (zero-copy) or, under forceCopy, a fresh
// copy so the decode helpers cannot alias mapped memory.
func view(b []byte, forceCopy bool) []byte {
	if !forceCopy {
		return b
	}
	return append([]byte(nil), b...)
}

func (s *Snapshot) loadColumns(path string, sections map[uint32][]byte, forceCopy bool) error {
	n := s.meta.Objects
	cb := sections[secVertCounts]
	if len(cb) != n*4 {
		return errf(path, "vertcounts", "length %d, want %d for %d objects", len(cb), n*4, n)
	}
	s.vertCounts = asUint32s(view(cb, forceCopy))
	s.vertOff = make([]int, n+1)
	for i, c := range s.vertCounts {
		if c < 3 {
			return errf(path, "vertcounts", "object %d has %d vertices", i, c)
		}
		s.vertOff[i+1] = s.vertOff[i] + int(c)
	}
	if s.vertOff[n] != s.meta.TotalVerts {
		return errf(path, "vertcounts", "vertex counts sum to %d, meta says %d", s.vertOff[n], s.meta.TotalVerts)
	}

	xb := sections[secCoords]
	if len(xb) != s.meta.TotalVerts*16 {
		return errf(path, "coords", "length %d, want %d for %d vertices", len(xb), s.meta.TotalVerts*16, s.meta.TotalVerts)
	}
	s.coords = asPoints(view(xb, forceCopy))
	for i, p := range s.coords {
		if !p.IsFinite() {
			return errf(path, "coords", "vertex %d is non-finite (%v, %v)", i, p.X, p.Y)
		}
	}

	mb := sections[secMBRs]
	if len(mb) != n*32 {
		return errf(path, "mbrs", "length %d, want %d for %d objects", len(mb), n*32, n)
	}
	s.mbrs = asRects(view(mb, forceCopy))
	for i, r := range s.mbrs {
		if !geom.Pt(r.MinX, r.MinY).IsFinite() || !geom.Pt(r.MaxX, r.MaxY).IsFinite() || r.IsEmpty() {
			return errf(path, "mbrs", "object %d has a degenerate MBR %v", i, r)
		}
	}
	return nil
}

func (s *Snapshot) loadTree(path string, b []byte, forceCopy bool) error {
	if len(b) < 40 {
		return errf(path, "rtree", "truncated header (%d bytes)", len(b))
	}
	hdr := make([]int, 5)
	for i := range hdr {
		v := binary.LittleEndian.Uint64(b[i*8:])
		if v > uint64(len(s.raw)) {
			return errf(path, "rtree", "implausible header value %d", v)
		}
		hdr[i] = int(v)
	}
	size, maxE, minE, nodeCount, entryCount := hdr[0], hdr[1], hdr[2], hdr[3], hdr[4]
	want := 40 + nodeCount*40 + entryCount*4
	if len(b) != want {
		return errf(path, "rtree", "length %d, want %d for %d nodes and %d entries", len(b), want, nodeCount, entryCount)
	}
	if entryCount != s.meta.Objects {
		return errf(path, "rtree", "%d entries for %d objects", entryCount, s.meta.Objects)
	}
	p := &rtree.Packed{Size: size, MaxEntries: maxE, MinEntries: minE}
	p.Nodes = make([]rtree.PackedNode, nodeCount)
	for i := range p.Nodes {
		nb := b[40+i*40:]
		r := asRects(view(nb[:32], true)) // tiny, always copy-decode
		p.Nodes[i].Bounds = r[0]
		p.Nodes[i].Leaf = binary.LittleEndian.Uint32(nb[32:]) != 0
		p.Nodes[i].Count = int(binary.LittleEndian.Uint32(nb[36:]))
	}
	ids := asUint32s(view(b[40+nodeCount*40:], forceCopy))
	p.Entries = make([]rtree.Entry, entryCount)
	for i, id := range ids {
		if int(id) >= s.meta.Objects {
			return errf(path, "rtree", "entry %d references object %d of %d", i, id, s.meta.Objects)
		}
		p.Entries[i] = rtree.Entry{Bounds: s.mbrs[id], ID: int(id)}
	}
	// Structural validation happens in rtree.FromPacked when the tree is
	// materialized; run it once here so Open rejects a corrupt-but-CRC-
	// valid image the moment it is read, not mid-query.
	if _, err := rtree.FromPacked(p); err != nil {
		return errf(path, "rtree", "%v", err)
	}
	s.packed = p
	return nil
}

func (s *Snapshot) loadEdgeBoxes(path string, b []byte, forceCopy bool) error {
	n := s.meta.Objects
	if len(b) < n*4 {
		return errf(path, "edgeboxes", "length %d too short for %d counts", len(b), n)
	}
	counts := asUint32s(view(b[:n*4], forceCopy))
	s.boxOff = make([]int, n+1)
	for i, c := range counts {
		if want := edgeindex.FlatBoxCount(int(s.vertCounts[i])); int(c) != want {
			return errf(path, "edgeboxes", "object %d has %d boxes, its %d edges need %d", i, c, s.vertCounts[i], want)
		}
		s.boxOff[i+1] = s.boxOff[i] + int(c)
	}
	total := s.boxOff[n]
	if len(b) != n*4+total*32 {
		return errf(path, "edgeboxes", "length %d, want %d for %d boxes", len(b), n*4+total*32, total)
	}
	s.boxes = asRects(view(b[n*4:], forceCopy))
	return nil
}

func (s *Snapshot) loadSignatures(path string, b []byte, forceCopy bool) error {
	if len(b) < 8 {
		return errf(path, "signatures", "truncated header (%d bytes)", len(b))
	}
	res := int(binary.LittleEndian.Uint32(b[0:]))
	words := int(binary.LittleEndian.Uint32(b[4:]))
	if res < 1 || res > raster.MaxSignatureRes {
		return errf(path, "signatures", "resolution %d outside 1..%d", res, raster.MaxSignatureRes)
	}
	if words != raster.SignatureWords(res) {
		return errf(path, "signatures", "%d words per signature, resolution %d needs %d", words, res, raster.SignatureWords(res))
	}
	if res != s.meta.SigRes {
		return errf(path, "signatures", "resolution %d disagrees with meta %d", res, s.meta.SigRes)
	}
	if want := 8 + s.meta.Objects*words*8; len(b) != want {
		return errf(path, "signatures", "length %d, want %d for %d objects", len(b), want, s.meta.Objects)
	}
	s.sigRes, s.sigWords = res, words
	s.sigBits = asUint64s(view(b[8:], forceCopy))
	return nil
}

func (s *Snapshot) loadIDs(path string, b []byte, forceCopy bool) error {
	n := s.meta.Objects
	if len(b) != n*8 {
		return errf(path, "ids", "length %d, want %d for %d objects", len(b), n*8, n)
	}
	ids := asUint64s(view(b, forceCopy))
	for i := 1; i < n; i++ {
		if ids[i] <= ids[i-1] {
			return errf(path, "ids", "ids not strictly increasing at %d (%d after %d)", i, ids[i], ids[i-1])
		}
	}
	if n > 0 && s.meta.NextID > 0 && ids[n-1] >= s.meta.NextID {
		return errf(path, "ids", "id %d not below meta next id %d", ids[n-1], s.meta.NextID)
	}
	s.ids = ids
	return nil
}

func (s *Snapshot) loadIntervals(path string, b []byte, forceCopy bool) error {
	n := s.meta.Objects
	if len(b) < 32 {
		return errf(path, "intervals", "truncated header (%d bytes)", len(b))
	}
	g := interval.Grid{
		Order: int(binary.LittleEndian.Uint32(b[0:])),
		MinX:  mathFloat64(b[8:]),
		MinY:  mathFloat64(b[16:]),
		Size:  mathFloat64(b[24:]),
	}
	if !g.Valid() {
		return errf(path, "intervals", "invalid grid (order %d, size %v)", g.Order, g.Size)
	}
	if g.Order != s.meta.IntervalOrder {
		return errf(path, "intervals", "order %d disagrees with meta %d", g.Order, s.meta.IntervalOrder)
	}
	countsEnd := 32 + n*4
	dataStart := int(align8(uint64(countsEnd)))
	if len(b) < dataStart {
		return errf(path, "intervals", "length %d too short for %d counts", len(b), n)
	}
	if (len(b)-dataStart)%8 != 0 {
		return errf(path, "intervals", "span payload %d bytes is not word-aligned", len(b)-dataStart)
	}
	counts := asUint32s(view(b[32:countsEnd], forceCopy))
	words := asUint64s(view(b[dataStart:], forceCopy))
	// FromParts validates the counts against the data (overflow-checked
	// prefix sums, exact total) and every span list's invariants before
	// anything is aliased into query state, so corrupt or hostile interval
	// sections fail closed here rather than mid-join.
	col, err := interval.FromParts(g, counts, words)
	if err != nil {
		return errf(path, "intervals", "%v", err)
	}
	s.ivals = col
	return nil
}

func mathFloat64(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// nextIDFloor is the smallest NextID consistent with the stored objects.
func (s *Snapshot) nextIDFloor() uint64 {
	if n := s.meta.Objects; s.ids == nil && n > 0 {
		return uint64(n)
	} else if n > 0 {
		return s.ids[n-1] + 1
	}
	return 0
}

// Close releases the snapshot's mapping, if any. Views handed out by the
// accessors (datasets, signatures, edge boxes) must not be used after
// Close; callers that keep a layer alive simply never close its snapshot.
func (s *Snapshot) Close() error {
	if s.unmap != nil {
		un := s.unmap
		s.unmap = nil
		return un()
	}
	return nil
}

// Meta returns the snapshot's self-description.
func (s *Snapshot) Meta() Meta { return s.meta }

// Stats returns how the snapshot was loaded.
func (s *Snapshot) Stats() LoadStats { return s.stats }

// NumObjects returns the number of stored objects.
func (s *Snapshot) NumObjects() int { return s.meta.Objects }

// Dataset materializes the stored layer as a data.Dataset whose polygon
// vertex slices are views into the snapshot (zero-copy on the mmap path).
// The polygons must be treated as read-only.
func (s *Snapshot) Dataset() *data.Dataset {
	objs := make([]*geom.Polygon, s.meta.Objects)
	for i := range objs {
		objs[i] = geom.RestoredPolygon(s.coords[s.vertOff[i]:s.vertOff[i+1]:s.vertOff[i+1]], s.mbrs[i])
	}
	return &data.Dataset{Name: s.meta.Name, Objects: objs}
}

// Tree materializes the persisted R-tree. Each call builds a fresh tree
// from the packed image; callers share the result (query.Layer holds it).
func (s *Snapshot) Tree() (*rtree.Tree, error) {
	t, err := rtree.FromPacked(s.packed)
	if err != nil {
		// Validated at Open; only reachable if the caller mutated views.
		return nil, errf(s.path, "rtree", "%v", err)
	}
	return t, nil
}

// HasEdgeBoxes reports whether the snapshot persisted edge-index boxes.
func (s *Snapshot) HasEdgeBoxes() bool { return s.boxOff != nil }

// EdgeBoxes returns object id's flattened edge-index hierarchy (possibly
// empty for small polygons), or nil when the section was omitted.
func (s *Snapshot) EdgeBoxes(id int) []geom.Rect {
	if s.boxOff == nil {
		return nil
	}
	return s.boxes[s.boxOff[id]:s.boxOff[id+1]:s.boxOff[id+1]]
}

// HasSignatures reports whether the snapshot persisted raster signatures.
func (s *Snapshot) HasSignatures() bool { return s.sigRes > 0 }

// SigRes returns the stored signature resolution (0 when omitted).
func (s *Snapshot) SigRes() int { return s.sigRes }

// IDs returns the stored stable object ids (a view into the snapshot,
// strictly increasing), or nil when the section was omitted — identity
// ids then apply. The slice must not be mutated.
func (s *Snapshot) IDs() []uint64 { return s.ids }

// NextID returns the next stable id the live table should assign: the
// persisted lineage value when present, otherwise the smallest id above
// every stored object.
func (s *Snapshot) NextID() uint64 {
	if s.meta.NextID > 0 {
		return s.meta.NextID
	}
	return s.nextIDFloor()
}

// AppliedLSN returns the highest WAL LSN folded into this snapshot
// generation (0 for load-only snapshots).
func (s *Snapshot) AppliedLSN() uint64 { return s.meta.AppliedLSN }

// Intervals returns the persisted interval column (a validated view into
// the snapshot), or nil when the section was omitted. The column is
// immutable and safe for concurrent readers.
func (s *Snapshot) Intervals() *interval.Column { return s.ivals }

// Signature returns object id's persisted raster signature (a view into
// the snapshot), or an invalid zero signature when none are stored.
func (s *Snapshot) Signature(id int) raster.Signature {
	if s.sigRes == 0 {
		return raster.Signature{}
	}
	return raster.Signature{
		Bounds: s.mbrs[id],
		Res:    s.sigRes,
		Words:  s.sigBits[id*s.sigWords : (id+1)*s.sigWords : (id+1)*s.sigWords],
	}
}
