package data

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func TestWKTRoundTrip(t *testing.T) {
	d := MustLoad("PRISM", 0.005)
	var buf bytes.Buffer
	if err := d.WriteWKT(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWKT("prism", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Objects) != len(d.Objects) {
		t.Fatalf("round trip: %d objects, want %d", len(got.Objects), len(d.Objects))
	}
	for i := range d.Objects {
		if got.Objects[i].Bounds() != d.Objects[i].Bounds() {
			t.Fatalf("object %d bounds changed", i)
		}
	}
}

func TestReadWKTSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\nPOLYGON ((0 0, 1 0, 1 1, 0 0))\n# trailing\n"
	d, err := ReadWKT("x", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Objects) != 1 {
		t.Fatalf("objects = %d", len(d.Objects))
	}
}

func TestReadWKTReportsLine(t *testing.T) {
	in := "POLYGON ((0 0, 1 0, 1 1, 0 0))\nPOLYGON ((bad))\n"
	_, err := ReadWKT("x", strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %v does not report the line", err)
	}
}

func TestWKTFileRoundTrip(t *testing.T) {
	d := MustLoad("STATES50", 1)
	path := filepath.Join(t.TempDir(), "states.wkt")
	if err := d.SaveWKTFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadWKTFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Objects) != len(d.Objects) {
		t.Fatal("file round trip lost objects")
	}
	if _, err := LoadWKTFile(filepath.Join(t.TempDir(), "nope.wkt")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestWormShape(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	paths := buildGuidePaths(Domain)
	for range 50 {
		n := 4 + rng.Intn(200) // below 8 the generator rounds up to 8
		length := 5 + rng.Float64()*50
		thickness := 0.2 + rng.Float64()*2
		w, err := pathWorm(rng, paths[rng.Intn(len(paths))], length, (rng.Float64()-0.5)*4, thickness, n)
		if err != nil {
			t.Fatalf("pathWorm: %v", err)
		}
		if w.NumVerts() != 2*(max(n, 8)/2) {
			t.Fatalf("worm verts = %d for n = %d", w.NumVerts(), n)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("worm invalid: %v", err)
		}
		if w.NumVerts() <= 60 && !w.IsSimple() {
			t.Fatal("worm is not simple")
		}
		// Area should be roughly length × thickness.
		area := w.Area()
		if area < length*thickness*0.5 || area > length*thickness*2 {
			t.Fatalf("worm area %v far from %v", area, length*thickness)
		}
	}
}
