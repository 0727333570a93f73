package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash"
	"os"
	"path/filepath"
	"runtime"
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

// assemble returns the snapshot of secs in memory, byte for byte what
// Save writes.
func assemble(secs []section) []byte {
	var b bytes.Buffer
	writeSnapshot(&b, secs) // a bytes.Buffer write does not fail
	return b.Bytes()
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

// approximationHashes digests every raster-signature word and, apart,
// every interval span word of d's objects, in object order.
func approximationHashes(t *testing.T, d *data.Dataset) (signatures, intervals string) {
	t.Helper()
	g, ok := interval.GridFor(d.Objects, 0)
	if !ok {
		t.Fatalf("%s: no interval grid", d.Name)
	}
	hs, hi := sha256.New(), sha256.New()
	var word [8]byte
	put := func(h hash.Hash, w uint64) {
		binary.LittleEndian.PutUint64(word[:], w)
		h.Write(word[:])
	}
	for _, p := range d.Objects {
		for _, w := range raster.ComputeSignature(p, raster.DefaultSignatureRes).Words {
			put(hs, w)
		}
		for _, w := range interval.Rasterize(p, g) {
			put(hi, w)
		}
	}
	return hex.EncodeToString(hs.Sum(nil)), hex.EncodeToString(hi.Sum(nil))
}

// TestGoldenApproximations pins both persisted raster approximations bit
// for bit: the conservative closed-cell boundary walk under signatures and
// interval lists is one function, and a change to its arithmetic or its
// order of operations shows here before it shows as a moved filter count.
// The two are digested apart, so a change to one list format shows which.
// The snapshot digest covers every section but the meta record, which
// holds the creation time.
func TestGoldenApproximations(t *testing.T) {
	for _, tc := range []struct {
		name      string
		scale     float64
		signature string
		interval  string
	}{
		{"LANDC", 0.01, "d6f2fcc2b9a794cbfa8539b5c2e386f4c3b16ed2cc779b6d366834691ca9a8cf", "a04763dada49a3114fd708c9036bad8d41656dfc876d663831406f2b6ba2cc1a"},
		{"WATER", 0.02, "7e72e67a98d81fa4ccd6a9a0f883fb0cb939f21c2d3f45415ce69a8fe08d06d4", "a039dc2252824ced699ab4ab39c6edc661515f9ea1f36c06a2906aef5a91a0e5"},
	} {
		d, err := data.Load(tc.name, tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		sig, iv := approximationHashes(t, d)
		if sig != tc.signature {
			t.Errorf("%s %g: signature digest %s, want %s", tc.name, tc.scale, sig, tc.signature)
		}
		if iv != tc.interval {
			t.Errorf("%s %g: interval digest %s, want %s", tc.name, tc.scale, iv, tc.interval)
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
	const want = "acb49769ea10b12bb3916f45a594df2e319aa3587faa19eb2e714f7410f9da6c"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("LANDC 0.01 snapshot sections digest %s, want %s", got, want)
	}
}

// TestGoldenBenchSections pins every section but the meta record that
// buildSections writes for the benchmark's layers at the benchmark's
// scales, one sha256 a section. At these scales many objects reach
// edgeindex.MinIndexEdges and span dozens of cells, so the edge-box,
// signature and interval builds run every path they have; a change to how
// those sections are built (the order of work, its split across cores,
// the labelling of a gap) must leave every byte where it was.
func TestGoldenBenchSections(t *testing.T) {
	golden := []struct {
		name  string
		scale float64
		want  map[string]string
	}{
		{"LANDC", 0.2, map[string]string{
			"vertcounts": "d7071b3516c43111dcc4b9e8fc48a8590cd5eb8c09b5e7ec0782b89cb7df854a",
			"coords":     "fbfc7429e3ec3cfeb68b11d483ef415f1ae6577527d0955ee8fc139479d7c354",
			"mbrs":       "1367186f65f730c0d3d89ddb9504ed21529117c98dff3c046ec9839b11493bbf",
			"rtree":      "105de2280157e180f5cb0b6f930f45d1ba6579d82c48a93b4ef712979987118e",
			"edgeboxes":  "9310295a960010b5b6291b2768524e8292d0b7870e8b1b33e4023cad7ccd3301",
			"signatures": "3fe79fbe75dc19abbfadeafcb6bfeccee34193ec40cce1ba68eaf01242a30960",
			"intervals":  "22b83473497a58113b9bc5dec4a823a00674a47166d6249f0fd5fabd50f69f97",
		}},
		{"LANDO", 0.2, map[string]string{
			"vertcounts": "4326a4a5e144b560beca16dee2cf98d418284bfa486a0cd8733c62831ec494f4",
			"coords":     "5dfec57e7d30a117bbc022eff0c9a9ea2e1e3db467a845fb45eade9387ed3e90",
			"mbrs":       "bf39e35cc1f48d209002e31a6fcb418d6a6eeabaf53d9f2dcf6aa97f98ba8e75",
			"rtree":      "90a598693d39be83aacc840f1915c34601e738de61e9e87c46ec9b19418c7bed",
			"edgeboxes":  "7e7fa052f0fa0b58532b23053c84a2832877dfa8b15caa418e38db855cd63685",
			"signatures": "916ba8e7e73ad36110dc66c8dc488306ea0b126b70906850665229d119588f89",
			"intervals":  "d260fb2dfbab4e4c01b81b34f6897d7564fd85b840f5b4dd1786a716f0f77097",
		}},
		{"WATER", 0.1, map[string]string{
			"vertcounts": "8ab289a9dabb9462bc4daf9f588c89466de922b8c8729a004bc270e687ca35c2",
			"coords":     "c2ac79781277e4d00c7cd4cb29a4af372e3489eba529ff3e21cc511acc601f34",
			"mbrs":       "50ebec9dd8fe129807f8d1aa668e233501a29a1600ed624c027be4d38854a307",
			"rtree":      "38c75337b5b3825678aef2d2f4309b5ba63dfc32e6c8975a3ff304040545dfc9",
			"edgeboxes":  "705bff55b0fe7fd8ecc781892e041d6e7e7087888680ea1a59ed35f444dc84e1",
			"signatures": "39c96ec81e0862730c9133cb15291480641b6e17cbe2504fd65580ec1c3feaa9",
			"intervals":  "62e0853dea4f2092f43bbba58552938c6d3b9e0ffd7b1d085477dc5712c23591",
		}},
		{"PRISM", 0.1, map[string]string{
			"vertcounts": "7c2410b22002510aeb0da05cb68a9204c4cb814a8ea0ce883b2e995517f14583",
			"coords":     "28de2a4c568335888c1314bbdd7b3421d3708bb8564d5e36f07b45030f340e9a",
			"mbrs":       "c43fedca5e44e21b76e0e06d14ec9ff369761c9cd7ea77667ff03c6067bae8bd",
			"rtree":      "f2fd5549a5d550907535d1be0f46466496decf04850afc423f4ad54deb2d8113",
			"edgeboxes":  "e3d49f11ef8db3859d2cdeb8676c4caacc009f643de91ce6e9260709b4a10f19",
			"signatures": "716eb5079c672bc1c43788962536c9c8e03a6f7e50d29b7b279cfa10ac6afd8f",
			"intervals":  "e21951c3924bd52a88884b407bd8029a5c4bdfc5971f3539e4c58758c23b07a1",
		}},
	}
	for _, tc := range golden {
		d, err := data.Load(tc.name, tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		secs, _, err := buildSections(d, SaveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for _, s := range secs {
			if s.id == secMeta {
				continue
			}
			seen++
			name := sectionName(s.id)
			sum := sha256.Sum256(s.payload)
			if got := hex.EncodeToString(sum[:]); got != tc.want[name] {
				t.Errorf("%s %g: %s section digest %s, want %s", tc.name, tc.scale, name, got, tc.want[name])
			}
		}
		if seen != len(tc.want) {
			t.Errorf("%s %g: %d sections besides meta, want %d", tc.name, tc.scale, seen, len(tc.want))
		}
	}
}

// TestBuildSectionsDeterministic holds buildSections to the same bytes at
// GOMAXPROCS 1, 2 and 8, meta aside: the LANDO 0.2 layer with an object
// that gets no interval spans (its cell window exceeds
// interval.MaxWindowCells) in the middle, and an empty layer.
func TestBuildSectionsDeterministic(t *testing.T) {
	d, err := data.Load("LANDO", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := interval.GridFor(d.Objects, 0)
	if !ok {
		t.Fatal("no interval grid")
	}
	side := 300 * g.CellSize()
	wide := geom.MustPolygon(geom.Pt(g.MinX, g.MinY), geom.Pt(g.MinX+side, g.MinY), geom.Pt(g.MinX+side, g.MinY+side), geom.Pt(g.MinX, g.MinY+side))
	if interval.Rasterize(wide, g) != nil {
		t.Fatal("the wide object got spans")
	}
	mid := len(d.Objects) / 2
	objs := append(append(d.Objects[:mid:mid], wide), d.Objects[mid:]...)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, layer := range []*data.Dataset{{Name: "LANDO", Objects: objs}, {Name: "empty"}} {
		var want [][]byte
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			secs, _, err := buildSections(layer, SaveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var got [][]byte
			for _, s := range secs {
				if s.id != secMeta {
					got = append(got, s.payload)
				}
			}
			if want == nil {
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%s at GOMAXPROCS %d: %d sections, %d at 1", layer.Name, procs, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s at GOMAXPROCS %d: section %d differs from GOMAXPROCS 1", layer.Name, procs, i)
				}
			}
		}
	}
}
