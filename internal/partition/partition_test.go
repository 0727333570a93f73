package partition

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/interval"
	"repro/internal/query"
	"repro/internal/store"
)

func TestPlanGrid(t *testing.T) {
	cases := []struct{ n, gx, gy int }{
		{1, 1, 1}, {2, 2, 1}, {3, 3, 1}, {4, 2, 2}, {6, 3, 2}, {8, 4, 2},
		{9, 3, 3}, {12, 4, 3}, {16, 4, 4}, {7, 7, 1},
	}
	for _, c := range cases {
		gx, gy := PlanGrid(c.n)
		if gx != c.gx || gy != c.gy {
			t.Errorf("PlanGrid(%d) = %dx%d, want %dx%d", c.n, gx, gy, c.gx, c.gy)
		}
		if gx*gy != c.n {
			t.Errorf("PlanGrid(%d) does not cover n", c.n)
		}
	}
}

// TestRegionsTileThePlane proves the ownership invariant the
// reference-point rule rests on: every point has exactly one owning tile
// under the half-open region test, including points exactly on grid
// lines and far outside the grid bounds.
func TestRegionsTileThePlane(t *testing.T) {
	m := &Manifest{Bounds: geom.R(0, 0, 100, 60), GX: 4, GY: 3}
	pts := []geom.Point{
		{X: 10, Y: 10}, {X: 25, Y: 20}, {X: 50, Y: 40}, {X: 75, Y: 59.999},
		{X: 0, Y: 0}, {X: 100, Y: 60}, // corners (max corner owned by the last tile)
		{X: 25, Y: 30},                     // on both an x and a y grid line
		{X: -1e9, Y: 1e9}, {X: 1e9, Y: -5}, // far outside the bounds
		{X: 33.333333333333336, Y: 20.000000000000004}, // awkward floats
	}
	for _, p := range pts {
		owners := 0
		for id := 0; id < m.NumTiles(); id++ {
			if OwnsRect(m.Region(id), p) {
				owners++
			}
		}
		if owners != 1 {
			t.Errorf("point %v has %d owners, want exactly 1", p, owners)
		}
	}
}

// TestRegionEdgesShared verifies adjacent cells share bit-identical edge
// values, so the half-open regions neither overlap nor leave gaps.
func TestRegionEdgesShared(t *testing.T) {
	m := &Manifest{Bounds: geom.R(-17.3, 2.1, 93.7, 55.9), GX: 5, GY: 4}
	for ix := 0; ix < m.GX-1; ix++ {
		a := m.CellBounds(ix)     // row 0
		b := m.CellBounds(ix + 1) // right neighbor
		if a.MaxX != b.MinX {
			t.Fatalf("cells %d,%d disagree on shared x edge: %v vs %v", ix, ix+1, a.MaxX, b.MinX)
		}
	}
	for iy := 0; iy < m.GY-1; iy++ {
		a := m.CellBounds(iy * m.GX)
		b := m.CellBounds((iy + 1) * m.GX)
		if a.MaxY != b.MinY {
			t.Fatalf("rows %d,%d disagree on shared y edge: %v vs %v", iy, iy+1, a.MaxY, b.MinY)
		}
	}
}

func TestWriteAndLoadRoundTrip(t *testing.T) {
	d := data.MustLoad("LANDC", 0.01)
	dir := t.TempDir()
	res, err := Write(dir, "land", d, Options{Tiles: 4, Margin: 2.5, Tool: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objects != len(d.Objects) {
		t.Fatalf("objects %d, want %d", res.Objects, len(d.Objects))
	}
	if res.Replicas < res.Objects {
		t.Fatalf("replicas %d < objects %d: some object landed in no tile", res.Replicas, res.Objects)
	}

	m, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.GX*m.GY != 4 || m.Generation != 1 || m.Margin != 2.5 {
		t.Fatalf("manifest round-trip mismatch: %+v", m)
	}
	if got := m.Layers["land"].Objects; got != len(d.Objects) {
		t.Fatalf("layer accounting %d, want %d", got, len(d.Objects))
	}

	// Every object must appear, with its global id, in every tile its
	// margin-expanded MBR overlaps — and in at least one tile.
	seen := make(map[uint64]int)
	for _, tile := range m.Tiles {
		s, err := store.Open(filepath.Join(dir, tile.Dir, SnapshotName("land")), store.OpenOptions{})
		if err != nil {
			t.Fatalf("tile %d: %v", tile.ID, err)
		}
		ids := s.IDs()
		if len(ids) != s.NumObjects() {
			t.Fatalf("tile %d: %d ids for %d objects", tile.ID, len(ids), s.NumObjects())
		}
		if tile.Objects["land"] != s.NumObjects() {
			t.Fatalf("tile %d: manifest says %d objects, snapshot has %d", tile.ID, tile.Objects["land"], s.NumObjects())
		}
		ds := s.Dataset()
		for i, id := range ids {
			if id >= uint64(len(d.Objects)) {
				t.Fatalf("tile %d: id %d out of range", tile.ID, id)
			}
			if ds.Objects[i].Bounds() != d.Objects[id].Bounds() {
				t.Fatalf("tile %d: object %d geometry does not match global object %d", tile.ID, i, id)
			}
			seen[id]++
		}
		s.Close()
	}
	for gi, p := range d.Objects {
		want := len(m.OverlappingTiles(p.Bounds()))
		if seen[uint64(gi)] != want {
			t.Fatalf("object %d replicated %d times, want %d", gi, seen[uint64(gi)], want)
		}
		if want < 1 {
			t.Fatalf("object %d overlaps no tile", gi)
		}
	}
}

// TestTileSnapshotsInheritIntervals pins that per-tile snapshots carry
// the v2 interval section by default (the tile writer embeds
// store.SaveOptions, so the column rides along with signatures), each on
// the grid derived from that tile's own object subset.
func TestTileSnapshotsInheritIntervals(t *testing.T) {
	d := data.MustLoad("LANDO", 0.01)
	dir := t.TempDir()
	if _, err := Write(dir, "land", d, Options{Tiles: 4, Tool: "test"}); err != nil {
		t.Fatal(err)
	}
	m, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tile := range m.Tiles {
		s, err := store.Open(filepath.Join(dir, tile.Dir, SnapshotName("land")), store.OpenOptions{})
		if err != nil {
			t.Fatalf("tile %d: %v", tile.ID, err)
		}
		if s.NumObjects() == 0 {
			s.Close()
			continue
		}
		if s.Intervals() == nil {
			t.Fatalf("tile %d snapshot lost the interval section", tile.ID)
		}
		col := s.Intervals()
		if col.Len() != s.NumObjects() {
			t.Fatalf("tile %d: interval column covers %d of %d objects", tile.ID, col.Len(), s.NumObjects())
		}
		g, ok := interval.GridFor(s.Dataset().Objects, 0)
		if !ok || col.Grid != g {
			t.Fatalf("tile %d: persisted grid %+v, want tile-local derivation %+v (ok=%v)", tile.ID, col.Grid, g, ok)
		}
		s.Close()
	}
}

// TestWriteCoPartitionsSecondLayer pins the shared-grid contract: a
// second layer reuses the existing grid (even with different bounds) and
// bumps the generation.
func TestWriteCoPartitionsSecondLayer(t *testing.T) {
	dir := t.TempDir()
	a := data.MustLoad("LANDC", 0.01)
	if _, err := Write(dir, "a", a, Options{Tiles: 4}); err != nil {
		t.Fatal(err)
	}
	b := data.MustLoad("LANDO", 0.01)
	res, err := Write(dir, "b", b, Options{Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Manifest.Generation != 2 {
		t.Fatalf("generation %d, want 2", res.Manifest.Generation)
	}
	if len(res.Manifest.Layers) != 2 {
		t.Fatalf("layers %v, want a and b", res.Manifest.Layers)
	}
	// A mismatched tile count must refuse rather than silently regrid.
	if _, err := Write(dir, "c", b, Options{Tiles: 8}); err == nil {
		t.Fatal("regridding an existing manifest did not refuse")
	}
	// Both layers load per tile under the same shard directory.
	for _, tile := range res.Manifest.Tiles {
		for _, layer := range []string{"a", "b"} {
			s, err := store.Open(filepath.Join(dir, tile.Dir, SnapshotName(layer)), store.OpenOptions{})
			if err != nil {
				t.Fatalf("tile %d layer %s: %v", tile.ID, layer, err)
			}
			if _, err := query.NewLayerFromSnapshot(s); err != nil {
				t.Fatalf("tile %d layer %s: %v", tile.ID, layer, err)
			}
			s.Close()
		}
	}
}

func TestLoadRejectsMalformedManifest(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(dir); !os.IsNotExist(err) {
		t.Fatalf("missing manifest: got %v, want IsNotExist", err)
	}
	write := func(s string) {
		if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bad := []string{
		`{`,
		`{"gx":0,"gy":1,"bounds":{"MinX":0,"MinY":0,"MaxX":1,"MaxY":1},"tiles":[]}`,
		`{"gx":2,"gy":1,"bounds":{"MinX":0,"MinY":0,"MaxX":1,"MaxY":1},"tiles":[]}`,
		`{"gx":1,"gy":1,"margin":-1,"bounds":{"MinX":0,"MinY":0,"MaxX":1,"MaxY":1},"tiles":[{"id":0,"dir":"shard-0","bounds":{"MinX":0,"MinY":0,"MaxX":1,"MaxY":1}}]}`,
	}
	for i, s := range bad {
		write(s)
		if _, err := Load(dir); err == nil {
			t.Errorf("malformed manifest %d accepted", i)
		} else if _, ok := err.(*ManifestError); !ok {
			t.Errorf("malformed manifest %d: error %T, want *ManifestError", i, err)
		}
	}
}

func TestRefPoints(t *testing.T) {
	a, b := geom.R(0, 0, 10, 10), geom.R(5, 5, 20, 20)
	if p := RefPoint(a, b); p.X != 5 || p.Y != 5 {
		t.Fatalf("RefPoint = %v, want (5,5)", p)
	}
	if p, q := RefPoint(a, b), RefPoint(b, a); p != q {
		t.Fatalf("RefPoint not symmetric: %v vs %v", p, q)
	}
	// Disjoint-but-near rects: the within reference point lies in b's MBR
	// and within d (Chebyshev) of a's.
	a, b = geom.R(0, 0, 10, 10), geom.R(12, 3, 20, 8)
	p := RefPointWithin(a, b, 3)
	if !(p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY) {
		t.Fatalf("RefPointWithin %v outside b %v", p, b)
	}
	if dx := math.Max(0, math.Max(a.MinX-p.X, p.X-a.MaxX)); dx > 3 {
		t.Fatalf("RefPointWithin %v farther than d from a", p)
	}
}
