package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/edgeindex"
	"repro/internal/geom"
	"repro/internal/interval"
	"repro/internal/raster"
	"repro/internal/rtree"
)

func testDataset(t *testing.T) *data.Dataset {
	t.Helper()
	d, err := data.Load("LANDC", 0.01)
	if err != nil {
		t.Fatalf("load dataset: %v", err)
	}
	return d
}

func saveTemp(t *testing.T, d *data.Dataset, opts SaveOptions) (string, BuildStats) {
	t.Helper()
	path := filepath.Join(t.TempDir(), d.Name+".snap")
	st, err := Save(path, d, opts)
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	return path, st
}

// verifySnapshot checks every stored artifact of s against d rebuilt live.
func verifySnapshot(t *testing.T, s *Snapshot, d *data.Dataset, wantSigRes int) {
	t.Helper()
	if s.NumObjects() != len(d.Objects) {
		t.Fatalf("object count %d, want %d", s.NumObjects(), len(d.Objects))
	}
	got := s.Dataset()
	if got.Name != d.Name {
		t.Fatalf("name %q, want %q", got.Name, d.Name)
	}
	for i, p := range d.Objects {
		q := got.Objects[i]
		if q.NumVerts() != p.NumVerts() || q.Bounds() != p.Bounds() {
			t.Fatalf("object %d: shape changed (%d/%d verts, %v/%v bounds)",
				i, q.NumVerts(), p.NumVerts(), q.Bounds(), p.Bounds())
		}
		for j, v := range p.Verts {
			if q.Verts[j] != v {
				t.Fatalf("object %d vertex %d: %v, want %v", i, j, q.Verts[j], v)
			}
		}
	}

	tree, err := s.Tree()
	if err != nil {
		t.Fatalf("tree: %v", err)
	}
	entries := make([]rtree.Entry, len(d.Objects))
	for i, p := range d.Objects {
		entries[i] = rtree.Entry{Bounds: p.Bounds(), ID: i}
	}
	live := rtree.NewBulk(entries)
	if tree.Len() != live.Len() {
		t.Fatalf("tree size %d, want %d", tree.Len(), live.Len())
	}
	ids := func(tr *rtree.Tree, r geom.Rect) []int {
		var out []int
		tr.Search(r, func(e rtree.Entry) bool { out = append(out, e.ID); return true })
		sort.Ints(out)
		return out
	}
	for _, r := range []geom.Rect{data.Domain, geom.R(100, 100, 200, 180), geom.R(0, 0, 50, 50), geom.R(400, 300, 560, 360)} {
		a, b := ids(tree, r), ids(live, r)
		if len(a) != len(b) {
			t.Fatalf("search %v: %d ids, want %d", r, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("search %v: id %d differs", r, i)
			}
		}
	}

	if !s.HasEdgeBoxes() {
		t.Fatalf("edge boxes missing")
	}
	for i, p := range d.Objects {
		want := edgeindex.New(p).FlatBoxes()
		gotBoxes := s.EdgeBoxes(i)
		if len(gotBoxes) != len(want) {
			t.Fatalf("object %d: %d edge boxes, want %d", i, len(gotBoxes), len(want))
		}
		for j := range want {
			if gotBoxes[j] != want[j] {
				t.Fatalf("object %d edge box %d differs", i, j)
			}
		}
	}

	if wantSigRes == 0 {
		if s.HasSignatures() {
			t.Fatalf("unexpected signatures")
		}
		return
	}
	if !s.HasSignatures() || s.SigRes() != wantSigRes {
		t.Fatalf("signatures res %d, want %d", s.SigRes(), wantSigRes)
	}
	for i, p := range d.Objects {
		want := raster.ComputeSignature(p, wantSigRes)
		sig := s.Signature(i)
		if sig.Bounds != want.Bounds || sig.Res != want.Res || len(sig.Words) != len(want.Words) {
			t.Fatalf("object %d: signature shape differs", i)
		}
		for j := range want.Words {
			if sig.Words[j] != want.Words[j] {
				t.Fatalf("object %d: signature word %d differs", i, j)
			}
		}
	}
}

// TestSnapshotRoundTrip pins save → open as an identity for every stored
// artifact, on both the mmap and the forced-copy path.
func TestSnapshotRoundTrip(t *testing.T) {
	d := testDataset(t)
	path, st := saveTemp(t, d, SaveOptions{})
	if st.Objects != len(d.Objects) || st.Sections != 8 || st.SigRes != raster.DefaultSignatureRes || st.IntervalOrder == 0 {
		t.Fatalf("build stats %+v", st)
	}
	for _, forceCopy := range []bool{false, true} {
		s, err := Open(path, OpenOptions{ForceCopy: forceCopy})
		if err != nil {
			t.Fatalf("open (copy=%v): %v", forceCopy, err)
		}
		if forceCopy && s.Stats().MMap {
			t.Fatalf("ForceCopy still mapped")
		}
		if s.Stats().Bytes != st.Bytes || s.Stats().Sections != st.Sections {
			t.Fatalf("load stats %+v, build stats %+v", s.Stats(), st)
		}
		verifySnapshot(t, s, d, raster.DefaultSignatureRes)
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

// TestSnapshotOptionalSections pins the no-signature and no-edge-box
// encodings.
func TestSnapshotOptionalSections(t *testing.T) {
	d := testDataset(t)
	path, st := saveTemp(t, d, SaveOptions{SigRes: -1})
	if st.SigRes != 0 || st.Sections != 7 {
		t.Fatalf("build stats %+v", st)
	}
	s, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	verifySnapshot(t, s, d, 0)
	s.Close()

	path2, _ := saveTemp(t, d, SaveOptions{NoEdgeBoxes: true})
	s2, err := Open(path2, OpenOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if s2.HasEdgeBoxes() || s2.EdgeBoxes(0) != nil {
		t.Fatalf("edge boxes present despite NoEdgeBoxes")
	}
	s2.Close()
}

// TestSnapshotAtomicWrite pins the temp-and-rename publish: overwriting an
// existing snapshot leaves no temp litter and the new content wins.
func TestSnapshotAtomicWrite(t *testing.T) {
	d := testDataset(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "layer.snap")
	if _, err := Save(path, d, SaveOptions{SigRes: -1}); err != nil {
		t.Fatalf("save 1: %v", err)
	}
	if _, err := Save(path, d, SaveOptions{}); err != nil {
		t.Fatalf("save 2: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	if len(ents) != 1 || ents[0].Name() != "layer.snap" {
		t.Fatalf("directory not clean after overwrite: %v", ents)
	}
	s, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if !s.HasSignatures() {
		t.Fatalf("second save's content did not win")
	}
	s.Close()
}

// protectedOffsets returns a sample of byte offsets that the format's
// integrity checks must cover: the magic, version, section count, table
// CRC, the table itself, and every section payload. Reserved header bytes
// and inter-section alignment padding are deliberately excluded — they
// carry no data.
func protectedOffsets(raw []byte) []int {
	offs := []int{0, 3, 8, 12, 16}
	nsec := int(binary.LittleEndian.Uint32(raw[12:]))
	for i := 0; i < nsec; i++ {
		base := headerSize + i*tableEntrySize
		offs = append(offs, base, base+8, base+16, base+24)
		off := int(binary.LittleEndian.Uint64(raw[base+8:]))
		length := int(binary.LittleEndian.Uint64(raw[base+16:]))
		// Several probes inside the payload, including both ends.
		for _, frac := range []int{0, length / 3, length / 2, 2 * length / 3, length - 1} {
			if frac >= 0 && frac < length {
				offs = append(offs, off+frac)
			}
		}
	}
	return offs
}

// TestSnapshotCorruption is the corruption-handling satellite: truncated
// files, bad magic, version skew, and bit flips anywhere in protected
// bytes must all yield a typed *FormatError — never a panic, never a
// silently wrong snapshot.
func TestSnapshotCorruption(t *testing.T) {
	d := testDataset(t)
	path, _ := saveTemp(t, d, SaveOptions{})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}

	expectFormatError := func(t *testing.T, b []byte, what string) {
		t.Helper()
		s, err := OpenBytes(b)
		if err == nil {
			t.Fatalf("%s: accepted", what)
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: error %v is not a *FormatError", what, err)
		}
		if s != nil {
			t.Fatalf("%s: snapshot returned alongside error", what)
		}
	}

	t.Run("truncated", func(t *testing.T) {
		for _, k := range []int{0, 1, headerSize - 1, headerSize, headerSize + 5, len(raw) / 2, len(raw) - 1} {
			expectFormatError(t, raw[:k], "truncation")
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		b[0] = 'X'
		expectFormatError(t, b, "magic")
	})
	t.Run("version-skew", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(b[8:], Version+1)
		expectFormatError(t, b, "version")
	})
	t.Run("bit-flips", func(t *testing.T) {
		for _, off := range protectedOffsets(raw) {
			b := append([]byte(nil), raw...)
			b[off] ^= 0x41
			if same := b[off] == raw[off]; same {
				continue
			}
			expectFormatError(t, b, "flip at offset "+string(rune('0'+off%10)))
		}
	})
	t.Run("missing-section", func(t *testing.T) {
		// Reassemble with the coords section dropped; CRCs are valid, the
		// required-section check must fire.
		secs, _, err := buildSections(d, SaveOptions{})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		var kept []section
		for _, s := range secs {
			if s.id != secCoords {
				kept = append(kept, s)
			}
		}
		expectFormatError(t, assemble(kept), "missing coords")
	})
	t.Run("duplicate-section", func(t *testing.T) {
		secs, _, err := buildSections(d, SaveOptions{})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		expectFormatError(t, assemble(append(secs, secs[1])), "duplicate")
	})
	t.Run("open-file-error", func(t *testing.T) {
		if _, err := Open(filepath.Join(t.TempDir(), "absent.snap"), OpenOptions{}); err == nil {
			t.Fatalf("absent file accepted")
		}
	})
}

// TestSignatureResolutionBound pins raster.MaxSignatureRes at both ends
// of the format: Save refuses a resolution above it, and a snapshot
// consistent and CRC-valid in every other respect whose signature section
// claims one fails Open with a *FormatError, while the cap itself opens.
func TestSignatureResolutionBound(t *testing.T) {
	d := testDataset(t)
	over := raster.MaxSignatureRes + 1
	if _, err := Save(filepath.Join(t.TempDir(), "over.snap"), d, SaveOptions{SigRes: over}); err == nil {
		t.Fatalf("Save accepted SigRes %d", over)
	}

	secs, _, err := buildSections(d, SaveOptions{SigRes: raster.MaxSignatureRes})
	if err != nil {
		t.Fatalf("build at the cap: %v", err)
	}
	s, err := OpenBytes(assemble(secs))
	if err != nil {
		t.Fatalf("open at the cap: %v", err)
	}
	if s.SigRes() != raster.MaxSignatureRes {
		t.Fatalf("opened resolution %d, want %d", s.SigRes(), raster.MaxSignatureRes)
	}
	s.Close()

	words := raster.SignatureWords(over)
	sigs := binary.LittleEndian.AppendUint32(nil, uint32(over))
	sigs = binary.LittleEndian.AppendUint32(sigs, uint32(words))
	sigs = append(sigs, make([]byte, len(d.Objects)*words*8)...)
	for i := range secs {
		switch secs[i].id {
		case secMeta:
			var m Meta
			if err := json.Unmarshal(secs[i].payload, &m); err != nil {
				t.Fatal(err)
			}
			m.SigRes = over
			if secs[i].payload, err = json.Marshal(m); err != nil {
				t.Fatal(err)
			}
		case secSigs:
			secs[i].payload = sigs
		}
	}
	s, err = OpenBytes(assemble(secs))
	var fe *FormatError
	if !errors.As(err, &fe) || fe.Section != "signatures" {
		t.Fatalf("resolution %d: got snapshot %v, error %v; want a *FormatError in the signatures section", over, s != nil, err)
	}
}

// TestSnapshotIDLineage pins the live-ingestion lineage round trip: the
// ids section, NextID, and AppliedLSN survive save → open on both read
// paths, and structurally invalid ids are rejected at save and at open.
func TestSnapshotIDLineage(t *testing.T) {
	d := testDataset(t)
	n := len(d.Objects)
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i*3 + 7) // sparse, strictly increasing
	}
	opts := SaveOptions{IDs: ids, NextID: ids[n-1] + 5, AppliedLSN: 42}
	path, _ := saveTemp(t, d, opts)

	for _, forceCopy := range []bool{false, true} {
		s, err := Open(path, OpenOptions{ForceCopy: forceCopy})
		if err != nil {
			t.Fatalf("open (forceCopy=%v): %v", forceCopy, err)
		}
		got := s.IDs()
		if len(got) != n {
			t.Fatalf("IDs len %d, want %d", len(got), n)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("id %d = %d, want %d", i, got[i], ids[i])
			}
		}
		if s.NextID() != opts.NextID {
			t.Fatalf("NextID %d, want %d", s.NextID(), opts.NextID)
		}
		if s.AppliedLSN() != 42 {
			t.Fatalf("AppliedLSN %d, want 42", s.AppliedLSN())
		}
		s.Close()
	}

	// Load-only snapshots fall back to identity lineage.
	plain, _ := saveTemp(t, d, SaveOptions{})
	s, err := Open(plain, OpenOptions{})
	if err != nil {
		t.Fatalf("open plain: %v", err)
	}
	defer s.Close()
	if s.IDs() != nil || s.NextID() != uint64(n) || s.AppliedLSN() != 0 {
		t.Fatalf("plain lineage: ids=%v next=%d lsn=%d", s.IDs(), s.NextID(), s.AppliedLSN())
	}

	// The writer refuses non-increasing ids and a NextID at or below the
	// largest stored id.
	bad := append([]uint64(nil), ids...)
	bad[1] = bad[0]
	if _, err := Save(filepath.Join(t.TempDir(), "bad.snap"), d, SaveOptions{IDs: bad}); err == nil {
		t.Fatal("save accepted non-increasing ids")
	}
	if _, err := Save(filepath.Join(t.TempDir(), "bad2.snap"), d, SaveOptions{IDs: ids, NextID: ids[n-1]}); err == nil {
		t.Fatal("save accepted NextID <= max id")
	}
}

// TestSnapshotIntervals pins the v2 interval column round trip: the
// persisted column must equal a live Build on the same grid, omission
// via IntervalOrder < 0 must produce a v1-shaped snapshot, and a
// corrupted span word must fail closed as a *FormatError.
func TestSnapshotIntervals(t *testing.T) {
	d := testDataset(t)
	path, st := saveTemp(t, d, SaveOptions{})
	if st.IntervalOrder == 0 {
		t.Fatalf("intervals omitted by default: %+v", st)
	}
	for _, forceCopy := range []bool{false, true} {
		s, err := Open(path, OpenOptions{ForceCopy: forceCopy})
		if err != nil {
			t.Fatalf("open (copy=%v): %v", forceCopy, err)
		}
		if s.Intervals() == nil {
			t.Fatal("interval column missing")
		}
		col := s.Intervals()
		if col.Grid.Order != st.IntervalOrder || col.Len() != len(d.Objects) {
			t.Fatalf("column grid %+v len %d, want order %d len %d",
				col.Grid, col.Len(), st.IntervalOrder, len(d.Objects))
		}
		g, ok := interval.GridFor(d.Objects, 0)
		if !ok || g != col.Grid {
			t.Fatalf("persisted grid %+v, live derivation %+v", col.Grid, g)
		}
		live := interval.Build(d.Objects, g)
		for i := range d.Objects {
			a, b := col.Spans(i), live.Spans(i)
			if len(a) != len(b) {
				t.Fatalf("object %d: %d spans stored, %d live", i, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("object %d span %d differs", i, j)
				}
			}
		}
		s.Close()
	}

	// Explicit omission keeps the snapshot v1-shaped.
	path2, st2 := saveTemp(t, d, SaveOptions{IntervalOrder: -1})
	if st2.IntervalOrder != 0 {
		t.Fatalf("IntervalOrder -1 still built a column: %+v", st2)
	}
	s2, err := Open(path2, OpenOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if s2.Intervals() != nil || s2.Meta().IntervalOrder != 0 {
		t.Fatal("intervals present despite IntervalOrder -1")
	}
	s2.Close()

	// A flipped bit inside the span payload must be caught — by the CRC
	// here; FuzzIntervalSection additionally rewrites the CRC to reach the
	// structural validators.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read blob: %v", err)
	}
	blob[len(blob)-5] ^= 0x40
	var ferr *FormatError
	if _, err := OpenBytes(blob); !errors.As(err, &ferr) {
		t.Fatalf("corrupt span payload: got %v, want *FormatError", err)
	}
}

// approximationHash digests every raster-signature word and every interval
// span word of d's objects, in object order.
func approximationHash(t *testing.T, d *data.Dataset) string {
	t.Helper()
	g, ok := interval.GridFor(d.Objects, 0)
	if !ok {
		t.Fatalf("%s: no interval grid", d.Name)
	}
	h := sha256.New()
	var word [8]byte
	put := func(w uint64) {
		binary.LittleEndian.PutUint64(word[:], w)
		h.Write(word[:])
	}
	for _, p := range d.Objects {
		for _, w := range raster.ComputeSignature(p, raster.DefaultSignatureRes).Words {
			put(w)
		}
		for _, w := range interval.Rasterize(p, g) {
			put(w)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenApproximations pins both persisted raster approximations bit
// for bit: the conservative closed-cell boundary walk under signatures and
// interval lists is one function, and a change to its arithmetic or its
// order of operations shows here before it shows as a moved filter count.
// The snapshot digest covers every section but the meta record, which
// holds the creation time.
func TestGoldenApproximations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale float64
		want  string
	}{
		{"LANDC", 0.01, "3bd9fa6b5058bbe94c99b1742466d477104fec220d40c35f25b7fd907de700f0"},
		{"WATER", 0.02, "a9087fdb009c3b87707ad2dd851da65d80b46c25c1db6b35853d6f5ee416e431"},
	} {
		d, err := data.Load(tc.name, tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		if got := approximationHash(t, d); got != tc.want {
			t.Errorf("%s %g: signature+interval digest %s, want %s", tc.name, tc.scale, got, tc.want)
		}
	}

	secs, _, err := buildSections(testDataset(t), SaveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, s := range secs {
		if s.id != secMeta {
			h.Write(s.payload)
		}
	}
	const want = "d414d8cd64fbf10f4bc21454db89d46771e4b11f9f4850a64382e1ca098ff2a5"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("LANDC 0.01 snapshot sections digest %s, want %s", got, want)
	}
}
