package data

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/geom"
)

func TestGenerateValidates(t *testing.T) {
	bad := []Spec{
		{Name: "n", N: 0, MinVerts: 3, MaxVerts: 10, MeanVerts: 5, Domain: Domain, CoverFactor: 1},
		{Name: "v", N: 10, MinVerts: 2, MaxVerts: 10, MeanVerts: 5, Domain: Domain, CoverFactor: 1},
		{Name: "m", N: 10, MinVerts: 5, MaxVerts: 4, MeanVerts: 5, Domain: Domain, CoverFactor: 1},
		{Name: "mean", N: 10, MinVerts: 3, MaxVerts: 10, MeanVerts: 50, Domain: Domain, CoverFactor: 1},
	}
	for _, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("spec %q accepted", s.Name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Name: "t", N: 50, MinVerts: 3, MaxVerts: 100, MeanVerts: 20,
		Domain: Domain, CoverFactor: 1, Seed: 7}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(spec)
	if len(a.Objects) != len(b.Objects) {
		t.Fatal("non-deterministic object count")
	}
	for i := range a.Objects {
		if len(a.Objects[i].Verts) != len(b.Objects[i].Verts) {
			t.Fatal("non-deterministic vertex counts")
		}
		if !a.Objects[i].Verts[0].Eq(b.Objects[i].Verts[0]) {
			t.Fatal("non-deterministic vertices")
		}
	}
}

func TestGeneratedPolygonsAreSimple(t *testing.T) {
	d := MustLoad("LANDO", 0.003) // ~100 objects
	for i, p := range d.Objects {
		if err := p.Validate(); err != nil {
			t.Fatalf("object %d invalid: %v", i, err)
		}
		if p.NumVerts() <= 60 && !p.IsSimple() { // IsSimple is O(n²); spot-check small ones
			t.Fatalf("object %d is not simple", i)
		}
	}
}

func TestVertexStatsCalibration(t *testing.T) {
	// Large sample: the truncated-Pareto mean should land near the target.
	for _, name := range []string{"LANDC", "LANDO", "WATER"} {
		spec, err := PaperSpec(name, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		s := d.Stats()
		if s.MinVerts < spec.MinVerts {
			t.Errorf("%s: min %d below spec %d", name, s.MinVerts, spec.MinVerts)
		}
		if s.MaxVerts > spec.MaxVerts {
			t.Errorf("%s: max %d above spec %d", name, s.MaxVerts, spec.MaxVerts)
		}
		// Heavy-tailed vertex distributions make sample means noisy even
		// over thousands of objects; the tolerance reflects that.
		if rel := math.Abs(s.AvgVerts-spec.MeanVerts) / spec.MeanVerts; rel > 0.35 {
			t.Errorf("%s: avg verts %.1f, want ≈%.1f (rel err %.2f)", name, s.AvgVerts, spec.MeanVerts, rel)
		}
	}
}

func TestPaperSpecErrors(t *testing.T) {
	if _, err := PaperSpec("NOPE", 1); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := PaperSpec("LANDC", 0); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := PaperSpec("LANDC", 1.5); err == nil {
		t.Error("scale > 1 accepted")
	}
	if _, err := Load("NOPE", 1); err == nil {
		t.Error("Load generated an unknown dataset")
	}
}

func TestStates50KeepsFullQuerySet(t *testing.T) {
	spec, err := PaperSpec("STATES50", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if spec.N != 50 {
		t.Errorf("STATES50 N = %d at small scale, want 50", spec.N)
	}
}

func TestDatasetsOverlap(t *testing.T) {
	// Layers must stack: a join between two layers at small scale should
	// have many MBR-overlapping pairs, like real land-cover data.
	a := MustLoad("LANDC", 0.01)
	b := MustLoad("LANDO", 0.01)
	overlaps := 0
	for _, p := range a.Objects {
		for _, q := range b.Objects {
			if p.Bounds().Intersects(q.Bounds()) {
				overlaps++
			}
		}
	}
	if overlaps < len(a.Objects) {
		t.Errorf("only %d MBR overlaps between layers of %d and %d objects",
			overlaps, len(a.Objects), len(b.Objects))
	}
}

func TestBaseD(t *testing.T) {
	a := MustLoad("LANDC", 0.01)
	b := MustLoad("LANDO", 0.01)
	d := BaseD(a, b)
	if d <= 0 || math.IsNaN(d) {
		t.Fatalf("BaseD = %v", d)
	}
	// BaseD is the average of the mean MBR sizes; it must lie between the
	// two layers' own average sizes.
	sa, sb := a.Stats(), b.Stats()
	lo := math.Min(math.Sqrt(sa.AvgMBRWidth*sa.AvgMBRHeight), math.Sqrt(sb.AvgMBRWidth*sb.AvgMBRHeight))
	hi := math.Max(math.Sqrt(sa.AvgMBRWidth*sa.AvgMBRHeight), math.Sqrt(sb.AvgMBRWidth*sb.AvgMBRHeight))
	if d < lo || d > hi {
		t.Errorf("BaseD %v outside [%v, %v]", d, lo, hi)
	}
}

func TestRoundTripIO(t *testing.T) {
	d := MustLoad("PRISM", 0.005)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || len(got.Objects) != len(d.Objects) {
		t.Fatalf("round trip lost objects: %d vs %d", len(got.Objects), len(d.Objects))
	}
	for i := range d.Objects {
		if !got.Objects[i].Verts[0].Eq(d.Objects[i].Verts[0]) {
			t.Fatal("round trip corrupted vertices")
		}
		if got.Objects[i].Bounds() != d.Objects[i].Bounds() {
			t.Fatal("round trip corrupted bounds")
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	d := MustLoad("STATES50", 1)
	path := filepath.Join(t.TempDir(), "states.json")
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Objects) != len(d.Objects) {
		t.Fatal("file round trip lost objects")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestReadRejectsBadPolygons(t *testing.T) {
	if _, err := Read(bytes.NewBufferString(`{"name":"x","objects":[[[0,0],[1,1]]]}`)); err == nil {
		t.Error("2-vertex object accepted")
	}
	if _, err := Read(bytes.NewBufferString(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestBlobShape(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for range 50 {
		n := 3 + rng.Intn(60)
		r := 1 + rng.Float64()*10
		c := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		b, err := Blob(rng, c, r, n)
		if err != nil {
			t.Fatalf("Blob: %v", err)
		}
		if b.NumVerts() != n {
			t.Fatalf("Blob verts = %d, want %d", b.NumVerts(), n)
		}
		// All vertices within the radial deviation envelope.
		for _, v := range b.Verts {
			d := math.Sqrt(v.DistSq(c))
			if d > r*1.7*1.09+1e-9 || d < r*0.3*0.91-1e-9 {
				t.Fatalf("vertex at radial distance %v outside envelope for r=%v", d, r)
			}
		}
		if !b.ContainsPoint(c) {
			t.Error("blob does not contain its center")
		}
	}
}

func TestStatsEmpty(t *testing.T) {
	d := &Dataset{Name: "empty"}
	s := d.Stats()
	if s.N != 0 || s.MinVerts != 0 {
		t.Errorf("empty stats = %+v", s)
	}
	if !d.Bounds().IsEmpty() {
		t.Error("empty dataset bounds not empty")
	}
}
