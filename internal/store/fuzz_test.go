package store

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// FuzzSnapshotOpen drives the reader with arbitrary bytes: every input
// must either open into a fully usable snapshot or fail with an error —
// never panic, never hang, never allocate unboundedly. Seeds include a
// valid snapshot (so the fuzzer mutates real structure, reaching the
// deep section parsers) and a handful of near-valid corruptions.
func FuzzSnapshotOpen(f *testing.F) {
	// A tiny handcrafted dataset keeps the valid seed around 2 KB: large
	// seeds throttle the mutation engine to a crawl, and the deep section
	// parsers are reachable through a small snapshot just as well.
	rng := rand.New(rand.NewSource(41))
	objs := make([]*geom.Polygon, 6)
	for i := range objs {
		n := 5 + rng.Intn(30)
		pts := make([]geom.Point, n)
		for j := range pts {
			a := 2 * math.Pi * float64(j) / float64(n)
			r := 5 + 5*rng.Float64()
			pts[j] = geom.Pt(20+float64(i)*15+r*math.Cos(a), 20+r*math.Sin(a))
		}
		objs[i] = geom.MustPolygon(pts...)
	}
	d := &data.Dataset{Name: "fuzzseed", Objects: objs}
	path := filepath.Join(f.TempDir(), "seed.snap")
	if _, err := Save(path, d, SaveOptions{SigRes: 8}); err != nil {
		f.Fatalf("save seed: %v", err)
	}
	s, err := Open(path, OpenOptions{})
	if err != nil {
		f.Fatalf("open seed: %v", err)
	}
	raw := append([]byte(nil), s.raw...)
	s.Close()

	f.Add(raw)
	f.Add([]byte(Magic))
	f.Add(raw[:headerSize])
	trunc := append([]byte(nil), raw[:len(raw)/2]...)
	f.Add(trunc)
	skew := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(skew[8:], 99)
	f.Add(skew)
	flip := append([]byte(nil), raw...)
	flip[len(flip)/2] ^= 0xFF
	f.Add(flip)

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := OpenBytes(b)
		if err != nil {
			if s != nil {
				t.Fatalf("snapshot returned alongside error %v", err)
			}
			return
		}
		// An accepted snapshot must be fully traversable: every accessor
		// the query layer uses has to hold up.
		ds := s.Dataset()
		for i, p := range ds.Objects {
			if p.NumVerts() < 3 {
				t.Fatalf("object %d has %d vertices after successful open", i, p.NumVerts())
			}
			_ = p.Bounds()
		}
		tree, err := s.Tree()
		if err != nil {
			t.Fatalf("accepted snapshot has unusable tree: %v", err)
		}
		tree.Search(geom.R(-1e12, -1e12, 1e12, 1e12), func(e rtree.Entry) bool { return true })
		for i := range ds.Objects {
			_ = s.EdgeBoxes(i)
			sig := s.Signature(i)
			if s.HasSignatures() && !sig.Valid() {
				t.Fatalf("stored signature %d invalid", i)
			}
		}
		if s.Intervals() != nil {
			col := s.Intervals()
			if col.Len() != len(ds.Objects) {
				t.Fatalf("accepted interval column covers %d of %d objects", col.Len(), len(ds.Objects))
			}
			for i := range ds.Objects {
				if err := col.Spans(i).Validate(col.Grid.Order); err != nil {
					t.Fatalf("accepted interval list %d invalid: %v", i, err)
				}
			}
		}
	})
}

// FuzzIntervalSection drives the interval-section parser past the CRC
// shield: the fuzzer mutates only the section payload and the harness
// splices it into an otherwise-valid snapshot, recomputing the section
// and table CRCs, so every mutation reaches the structural validators.
// Any input must either be rejected with a typed *FormatError before
// large allocations, or open into a column whose every span list
// validates against its grid — never a panic, never a half-loaded column.
func FuzzIntervalSection(f *testing.F) {
	d := fuzzDataset()
	path := filepath.Join(f.TempDir(), "seed.snap")
	if _, err := Save(path, d, SaveOptions{SigRes: 8}); err != nil {
		f.Fatalf("save seed: %v", err)
	}
	s, err := Open(path, OpenOptions{})
	if err != nil {
		f.Fatalf("open seed: %v", err)
	}
	raw := append([]byte(nil), s.raw...)
	s.Close()

	// Pull the seed apart into its table so the harness can reassemble it
	// with a substituted interval payload.
	nsec := int(binary.LittleEndian.Uint32(raw[12:]))
	secs := make([]section, 0, nsec)
	var valid []byte
	for i := range nsec {
		ent := raw[headerSize+i*tableEntrySize:]
		id := binary.LittleEndian.Uint32(ent[0:])
		off := binary.LittleEndian.Uint64(ent[8:])
		ln := binary.LittleEndian.Uint64(ent[16:])
		payload := append([]byte(nil), raw[off:off+ln]...)
		if id == secIntervals {
			valid = payload
		}
		secs = append(secs, section{id: id, payload: payload})
	}
	if valid == nil {
		f.Fatal("seed snapshot carries no interval section")
	}
	splice := func(payload []byte) []byte {
		out := make([]section, len(secs))
		copy(out, secs)
		for i := range out {
			if out[i].id == secIntervals {
				out[i] = section{id: secIntervals, payload: payload}
			}
		}
		return assemble(out)
	}

	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mutate(b)
		return b
	}
	f.Add(valid)
	f.Add([]byte{})                // missing header
	f.Add(valid[:16])              // truncated header
	f.Add(valid[:len(valid)-3])    // truncated span words / misaligned payload
	f.Add(corrupt(func(b []byte) { // impossible grid order
		binary.LittleEndian.PutUint32(b[0:], 99)
	}))
	f.Add(corrupt(func(b []byte) { // order disagrees with the meta record
		binary.LittleEndian.PutUint32(b[0:], binary.LittleEndian.Uint32(b[0:])+1)
	}))
	f.Add(corrupt(func(b []byte) { // non-finite grid origin
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(math.NaN()))
	}))
	f.Add(corrupt(func(b []byte) { // over-allocation attempt: absurd count
		binary.LittleEndian.PutUint32(b[32:], 0xFFFFFFFF)
	}))
	f.Add(corrupt(func(b []byte) { // unsorted / overlapping span runs
		binary.LittleEndian.PutUint64(b[len(b)-8:], binary.LittleEndian.Uint64(b[len(b)-16:]))
	}))
	fullCertain := corrupt(func(b []byte) { // a run both full and certain
		binary.LittleEndian.PutUint64(b[len(b)-8:], binary.LittleEndian.Uint64(b[len(b)-8:])|1|1<<31)
	})
	if _, err := OpenBytes(splice(fullCertain)); !errors.As(err, new(*FormatError)) || !strings.Contains(err.Error(), "both full and certain") {
		f.Fatalf("a run both full and certain: got %v, want its *FormatError", err)
	}
	f.Add(fullCertain)

	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := OpenBytes(splice(payload))
		if err != nil {
			if s != nil {
				t.Fatalf("snapshot returned alongside error %v", err)
			}
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("rejection is not a typed *FormatError: %v", err)
			}
			return
		}
		if s.Intervals() == nil {
			return // fuzzer found an empty-but-ignorable shape; fine
		}
		col := s.Intervals()
		if col.Len() != s.NumObjects() {
			t.Fatalf("accepted column covers %d of %d objects", col.Len(), s.NumObjects())
		}
		if !col.Grid.Valid() {
			t.Fatalf("accepted column carries invalid grid %+v", col.Grid)
		}
		for i := 0; i < col.Len(); i++ {
			if err := col.Spans(i).Validate(col.Grid.Order); err != nil {
				t.Fatalf("accepted span list %d invalid: %v", i, err)
			}
		}
	})
}

// fuzzDataset is the tiny shared seed dataset: large seeds throttle the
// mutation engine, and the deep parsers are reachable through a small
// snapshot just as well.
func fuzzDataset() *data.Dataset {
	rng := rand.New(rand.NewSource(43))
	objs := make([]*geom.Polygon, 6)
	for i := range objs {
		n := 5 + rng.Intn(30)
		pts := make([]geom.Point, n)
		for j := range pts {
			a := 2 * math.Pi * float64(j) / float64(n)
			r := 5 + 5*rng.Float64()
			pts[j] = geom.Pt(20+float64(i)*15+r*math.Cos(a), 20+r*math.Sin(a))
		}
		objs[i] = geom.MustPolygon(pts...)
	}
	return &data.Dataset{Name: "fuzzseed", Objects: objs}
}
