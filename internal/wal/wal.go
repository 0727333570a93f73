// Package wal is a crash-safe write-ahead log for live mutations: a
// directory of length-prefixed, CRC32-per-record segment files with a
// group-committing writer. Appenders enqueue encoded records and receive
// an Ack; a single committer goroutine batches everything pending into
// one write+fsync, so concurrent writers amortize the fsync (appends that
// arrive during one batch's fsync form the next batch). The ack contract is strict: Ack.Wait returns nil
// only after the record's batch is durably fsynced, and an fsync failure
// poisons the log rather than acking from the page cache.
//
// Recovery mirrors the snapshot reader's discipline: every structural
// violation surfaces as a typed *CorruptError, never a panic, and all
// validation happens before allocation so hostile lengths cannot balloon
// memory. A torn tail — a partial record at the end of the last segment,
// the signature of a crash mid-write — is truncated away silently: those
// bytes were never acked. The same damage anywhere else is real
// corruption and fails Open.
//
// Layout (little-endian):
//
//	segment file  <dir>/seg-<index>.wal
//	offset 0      magic   "SPWAL001"             8 bytes
//	offset 8      version uint32 (currently 1)
//	offset 12     reserved uint32
//	offset 16     baseLSN uint64 (LSN of the segment's first record)
//	offset 24     records, back to back:
//	              payloadLen uint32 · crc uint32 (CRC32-IEEE of payload) ·
//	              payload: lsn uint64 · op uint8 · id uint64 ·
//	                       [insert only: nverts uint32 · nverts × 2 float64]
//
// LSNs are assigned contiguously from 1; segments chain (each header's
// baseLSN equals the previous segment's end), so recovery detects a
// missing or reordered segment as a broken chain.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/geom"
)

// SegMagic identifies WAL segment files.
const SegMagic = "SPWAL001"

// SegVersion is the current segment format version.
const SegVersion = 1

const (
	segHeaderSize = 24
	recHeaderSize = 8 // payloadLen + crc

	// payload layout offsets
	fixedPayload  = 17 // lsn(8) + op(1) + id(8)
	insertPayload = 21 // fixedPayload + nverts(4)

	// maxPayload bounds a single record so a hostile length prefix cannot
	// force a huge allocation; generous for real polygons (4M vertices).
	maxPayload = 1 << 26
)

// Op enumerates mutation kinds carried by a record.
type Op uint8

const (
	// OpInsert adds a polygon under a fresh stable id.
	OpInsert Op = 1
	// OpDelete tombstones the object with the given stable id.
	OpDelete Op = 2
)

// String names the op for errors and logs.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Record is one durable mutation. Verts is set for OpInsert only and is
// owned by the record (recovery copies out of the scan buffer).
type Record struct {
	LSN   uint64
	Op    Op
	ID    uint64
	Verts []geom.Point
}

// CorruptError reports a structurally invalid WAL segment: which file,
// the byte offset of the damage, and what was wrong. Torn tails on the
// last segment are repaired silently and never surface as this error.
type CorruptError struct {
	Path string
	Off  int64
	Msg  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: %s: offset %d: %s", e.Path, e.Off, e.Msg)
}

// appendRecord encodes r (LSN, op, id, verts) onto b in segment framing.
func appendRecord(b []byte, r Record) []byte {
	plen := fixedPayload
	if r.Op == OpInsert {
		plen = insertPayload + 16*len(r.Verts)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(plen))
	crcAt := len(b)
	b = binary.LittleEndian.AppendUint32(b, 0) // crc backpatched below
	payloadAt := len(b)
	b = binary.LittleEndian.AppendUint64(b, r.LSN)
	b = append(b, byte(r.Op))
	b = binary.LittleEndian.AppendUint64(b, r.ID)
	if r.Op == OpInsert {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Verts)))
		for _, v := range r.Verts {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.X))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Y))
		}
	}
	binary.LittleEndian.PutUint32(b[crcAt:], crc32.ChecksumIEEE(b[payloadAt:]))
	return b
}

// decodePayload parses one CRC-verified record payload. Structural
// violations return ok=false; the caller decides whether that is a torn
// tail or corruption. Verts are copied out of the buffer.
func decodePayload(p []byte) (Record, bool) {
	if len(p) < fixedPayload {
		return Record{}, false
	}
	r := Record{
		LSN: binary.LittleEndian.Uint64(p[0:]),
		Op:  Op(p[8]),
		ID:  binary.LittleEndian.Uint64(p[9:]),
	}
	switch r.Op {
	case OpDelete:
		if len(p) != fixedPayload {
			return Record{}, false
		}
	case OpInsert:
		if len(p) < insertPayload {
			return Record{}, false
		}
		nverts := binary.LittleEndian.Uint32(p[17:])
		// Exact-length check before allocating: nverts must account for
		// every remaining byte, so the allocation below is bounded by the
		// (already CRC-checked, already length-bounded) input.
		if nverts < 3 || int(nverts) != (len(p)-insertPayload)/16 || len(p) != insertPayload+16*int(nverts) {
			return Record{}, false
		}
		r.Verts = make([]geom.Point, nverts)
		for i := range r.Verts {
			off := insertPayload + 16*i
			r.Verts[i] = geom.Pt(
				math.Float64frombits(binary.LittleEndian.Uint64(p[off:])),
				math.Float64frombits(binary.LittleEndian.Uint64(p[off+8:])),
			)
		}
	default:
		return Record{}, false
	}
	if r.LSN == 0 {
		return Record{}, false
	}
	return r, true
}

// scanResult classifies how a segment scan ended.
type scanResult int

const (
	scanClean     scanResult = iota // every byte accounted for
	scanTorn                        // valid prefix, then a partial/invalid record
	scanBadHeader                   // the 24-byte header itself is invalid
)

// scanSegment walks one segment image: header, then records until the
// bytes run out or stop parsing. good is the offset just past the last
// valid record (the truncation point for a torn tail). All validation
// happens before any allocation sized from the input.
func scanSegment(b []byte) (base uint64, recs []Record, good int, res scanResult) {
	if len(b) < segHeaderSize || string(b[:8]) != SegMagic ||
		binary.LittleEndian.Uint32(b[8:]) != SegVersion {
		return 0, nil, 0, scanBadHeader
	}
	base = binary.LittleEndian.Uint64(b[16:])
	off := segHeaderSize
	for off < len(b) {
		if len(b)-off < recHeaderSize {
			return base, recs, off, scanTorn
		}
		plen := int(binary.LittleEndian.Uint32(b[off:]))
		crc := binary.LittleEndian.Uint32(b[off+4:])
		if plen < fixedPayload || plen > maxPayload || off+recHeaderSize+plen > len(b) {
			return base, recs, off, scanTorn
		}
		payload := b[off+recHeaderSize : off+recHeaderSize+plen]
		if crc32.ChecksumIEEE(payload) != crc {
			return base, recs, off, scanTorn
		}
		rec, ok := decodePayload(payload)
		if !ok {
			return base, recs, off, scanTorn
		}
		recs = append(recs, rec)
		off += recHeaderSize + plen
	}
	return base, recs, off, scanClean
}

// encodeSegHeader builds a fresh segment header for baseLSN.
func encodeSegHeader(baseLSN uint64) []byte {
	b := make([]byte, segHeaderSize)
	copy(b, SegMagic)
	binary.LittleEndian.PutUint32(b[8:], SegVersion)
	binary.LittleEndian.PutUint64(b[16:], baseLSN)
	return b
}
