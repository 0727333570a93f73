// Package store persists query-ready layers as versioned binary
// snapshots: the geometry columns, precomputed MBRs, the STR-bulk-loaded
// R-tree, the edge-index box hierarchies, and optional per-object
// conservative raster signatures, each in its own CRC32-guarded section
// of a single file. The prepare-once/query-many argument is the one
// Raster Interval Object Approximations and Adaptive Geospatial Joins
// make: the artifacts the refinement step needs are cheap to store next
// to the geometry and expensive to rebuild on every process start.
//
// Layout (all little-endian, sections 8-byte aligned):
//
//	offset 0   magic    "SPSNAP01"                      8 bytes
//	offset 8   version  uint32 (currently 1)
//	offset 12  sections uint32 (count, ≤ 64)
//	offset 16  tableCRC uint32 (CRC32-IEEE of the table bytes)
//	offset 20  reserved uint32
//	offset 24  table    sections × 32-byte entries:
//	           id uint32 · reserved uint32 · offset uint64 ·
//	           length uint64 · crc uint32 · reserved uint32
//	...        section payloads, zero-padded to 8-byte alignment
//
// Writes are atomic: the snapshot is assembled in a temp file in the
// destination directory, synced, and renamed into place, so readers only
// ever observe complete snapshots. Reads memory-map the file when the
// platform allows (zero-copy column access) and fall back to
// read-into-slice otherwise; every structural violation — truncation, bad
// magic, version skew, CRC mismatch, impossible counts — surfaces as a
// typed *FormatError, never a panic.
package store

import "fmt"

// Magic identifies snapshot files; the trailing digits version the layout
// family (structural changes that renumber sections bump Version instead).
const Magic = "SPSNAP01"

// Version is the current format version. Readers reject other versions
// with a typed error so version skew across deployments degrades to a
// rebuild, not a misparse.
const Version = 1

const (
	headerSize     = 24
	tableEntrySize = 32

	// maxSections caps the table a reader will allocate for; the format
	// defines nine sections, so the cap only bounds hostile input.
	maxSections = 64
)

// Section identifiers. Unknown ids are ignored by readers (forward
// compatibility for additive sections); the required set must be present.
const (
	secMeta       = 1 // JSON Meta record
	secVertCounts = 2 // per-object vertex counts, n × uint32
	secCoords     = 3 // vertex coordinates, totalVerts × 2 float64
	secMBRs       = 4 // per-object MBRs, n × 4 float64
	secRTree      = 5 // packed STR R-tree (header + nodes + entry ids)
	secEdgeBoxes  = 6 // per-object edge-index boxes (counts + flat rects)
	secSigs       = 7 // per-object raster signatures (header + bitmaps)
	secIDs        = 8 // per-object stable ids, n × uint64, strictly increasing
	secIntervals  = 9 // per-object Hilbert interval lists (header + counts + spans)
)

func sectionName(id uint32) string {
	switch id {
	case secMeta:
		return "meta"
	case secVertCounts:
		return "vertcounts"
	case secCoords:
		return "coords"
	case secMBRs:
		return "mbrs"
	case secRTree:
		return "rtree"
	case secEdgeBoxes:
		return "edgeboxes"
	case secSigs:
		return "signatures"
	case secIDs:
		return "ids"
	case secIntervals:
		return "intervals"
	default:
		return fmt.Sprintf("section-%d", id)
	}
}

// FormatError describes why a snapshot could not be opened: which file,
// which section (empty for file-level violations like a bad magic), and
// what was wrong. All corruption — truncated files, CRC mismatches,
// version skew, impossible counts — is reported through this type;
// readers never panic on hostile bytes.
type FormatError struct {
	Path    string // file path, empty when reading from memory
	Section string // section name, empty for file-level errors
	Msg     string
}

func (e *FormatError) Error() string {
	where := "snapshot"
	if e.Path != "" {
		where = e.Path
	}
	if e.Section != "" {
		return fmt.Sprintf("store: %s: section %s: %s", where, e.Section, e.Msg)
	}
	return fmt.Sprintf("store: %s: %s", where, e.Msg)
}

func errf(path, section, format string, args ...any) *FormatError {
	return &FormatError{Path: path, Section: section, Msg: fmt.Sprintf(format, args...)}
}

// Meta is the snapshot's JSON self-description (section 1): identity and
// provenance, plus the counts the other sections must agree with.
type Meta struct {
	Name          string `json:"name"`
	Objects       int    `json:"objects"`
	TotalVerts    int    `json:"total_verts"`
	SigRes        int    `json:"sig_res,omitempty"`        // 0 = no signatures stored
	IntervalOrder int    `json:"interval_order,omitempty"` // 0 = no interval column stored
	Tool          string `json:"tool,omitempty"`
	Created       string `json:"created,omitempty"` // RFC 3339

	// Live-ingestion lineage (zero for load-only snapshots). NextID is
	// the next stable object id the table will assign; AppliedLSN is the
	// highest WAL LSN folded into this generation, so recovery replays
	// only records beyond it.
	NextID     uint64 `json:"next_id,omitempty"`
	AppliedLSN uint64 `json:"applied_lsn,omitempty"`
}

// align8 rounds n up to the next multiple of 8.
func align8(n uint64) uint64 { return (n + 7) &^ 7 }
