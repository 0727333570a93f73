// Package partition splits a layer into spatial tiles for multi-node
// serving: a gx×gy grid over the layer's bounds, each tile persisted as
// its own SPSNAP01 snapshot holding every object whose (margin-expanded)
// MBR overlaps the tile, plus a small JSON manifest recording the grid,
// the tile MBRs, shard addresses, and the generation. One spatiald per
// tile then serves its snapshot unchanged, and internal/coord routes and
// fans queries out across the fleet.
//
// # Ownership and the reference-point rule
//
// Objects near tile borders are replicated into every tile they overlap,
// so a shard-wise join would report a border-crossing pair once per tile
// holding both objects. The dedup contract is the reference-point rule:
// a pair is emitted only by the tile that *owns* the reference point of
// the pair's MBR interaction (the min corner of the MBR intersection for
// intersection joins; see shellcmd's shardjoin). Ownership regions are
// the grid cells with half-open [min, max) semantics, border cells
// extended to ±infinity — they tile the whole plane, so every reference
// point has exactly one owner and no pair is lost or double-counted.
package partition

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/store"
)

// SnapshotName is the per-tile snapshot file name for a partitioned
// layer, under the tile's shard directory.
func SnapshotName(layer string) string { return layer + ".snap" }

// ManifestName is the manifest file written next to the shard
// directories.
const ManifestName = "manifest.json"

// CurrentVersion is the manifest format version the partitioner writes.
// Version 0/1 manifests (no per-tile replica lists) load unchanged and
// normalize to single-replica tiles; versions above CurrentVersion fail
// closed with a typed *ManifestError.
const CurrentVersion = 2

// MaxReplicas bounds the per-tile replication factor a manifest may
// claim; anything larger is treated as corruption.
const MaxReplicas = 16

// Replica is one copy of a tile: a shard directory holding the tile's
// snapshots and the address of the spatiald serving it.
type Replica struct {
	// Dir is the replica's shard directory, relative to the manifest.
	Dir string `json:"dir"`
	// Addr is the serving shard's wire-protocol address. The partitioner
	// leaves it empty; operators record it here or override it with the
	// coordinator's -shards flag.
	Addr string `json:"addr,omitempty"`
}

// Tile is one spatial shard of a partitioned deployment.
type Tile struct {
	// ID is the tile's index: iy*GX + ix, row-major from the grid's min
	// corner.
	ID int `json:"id"`
	// Bounds is the tile's finite cell rectangle (the stored tile MBR).
	// The *ownership region* extends border cells to infinity; see
	// Manifest.Region.
	Bounds geom.Rect `json:"bounds"`
	// Dir is the primary replica's shard directory, relative to the
	// manifest. Kept alongside Replicas so v1 readers and tools that only
	// care about the primary keep working; after Load it always mirrors
	// Replicas[0].Dir.
	Dir string `json:"dir"`
	// Addr is the primary shard's wire-protocol address; mirrors
	// Replicas[0].Addr after Load. See Replica.Addr.
	Addr string `json:"addr,omitempty"`
	// Replicas lists every copy of this tile, primary first. Version ≥ 2
	// manifests must list at least one; v1 manifests omit the field and
	// Load normalizes it to the single {Dir, Addr} replica.
	Replicas []Replica `json:"replicas,omitempty"`
	// Objects counts replicated objects per layer in this tile.
	Objects map[string]int `json:"objects"`
}

// LayerInfo records one partitioned layer in the manifest.
type LayerInfo struct {
	// Objects is the source layer's object count (before replication).
	Objects int `json:"objects"`
	// Replicas is the total number of per-tile copies written; the
	// replication factor is Replicas/Objects.
	Replicas int `json:"replicas"`
}

// Manifest describes one partitioned deployment: the shared grid, the
// tiles, and every layer partitioned into it. All layers of a manifest
// share the same grid — that alignment is what makes shard-wise joins
// well defined.
type Manifest struct {
	// Version is the manifest format version (see CurrentVersion).
	// Omitted by v1 writers, so zero means "legacy, replica-less".
	Version int `json:"version,omitempty"`
	// Generation increments every time a layer is (re)partitioned into
	// the directory, so coordinators can detect a stale fleet.
	Generation uint64 `json:"generation"`
	// Bounds is the finite grid extent, fixed by the first partitioned
	// layer. Objects outside it land in the nearest border tile via the
	// extended ownership regions.
	Bounds geom.Rect `json:"bounds"`
	// GX and GY are the grid dimensions; GX*GY tiles.
	GX int `json:"gx"`
	GY int `json:"gy"`
	// Margin is the replication margin: objects are replicated into
	// every tile within Margin of their MBR, which is what makes
	// within-distance joins with d ≤ Margin shard-decomposable. Zero
	// supports intersection joins and selections only.
	Margin float64 `json:"margin"`
	// Layers maps layer name → partition accounting.
	Layers map[string]LayerInfo `json:"layers"`
	// Tiles lists the GX*GY tiles in ID order.
	Tiles []Tile `json:"tiles"`
	// Tool and Created are provenance.
	Tool    string `json:"tool,omitempty"`
	Created string `json:"created,omitempty"`
}

// ManifestError is the typed refusal for an unreadable or inconsistent
// manifest.
type ManifestError struct {
	Path   string
	Reason string
}

func (e *ManifestError) Error() string {
	return fmt.Sprintf("partition: manifest %s: %s", e.Path, e.Reason)
}

// PlanGrid picks grid dimensions for n tiles: the most-square gx×gy
// factorization with gx*gy == n (gx ≥ gy), so 1→1×1, 2→2×1, 4→2×2,
// 8→4×2, and a prime n degrades to n×1 columns.
func PlanGrid(n int) (gx, gy int) {
	gy = 1
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			gy = f
		}
	}
	return n / gy, gy
}

// NumTiles returns the tile count.
func (m *Manifest) NumTiles() int { return m.GX * m.GY }

// xEdge returns the i-th vertical grid line (0 ≤ i ≤ GX). Both the
// partitioner and the coordinator derive cell edges from this one
// expression, so half-open ownership regions tile exactly: cell i's max
// edge is bit-identical to cell i+1's min edge.
func (m *Manifest) xEdge(i int) float64 {
	return m.Bounds.MinX + float64(i)*(m.Bounds.MaxX-m.Bounds.MinX)/float64(m.GX)
}

func (m *Manifest) yEdge(i int) float64 {
	return m.Bounds.MinY + float64(i)*(m.Bounds.MaxY-m.Bounds.MinY)/float64(m.GY)
}

// CellBounds returns tile id's finite cell rectangle.
func (m *Manifest) CellBounds(id int) geom.Rect {
	ix, iy := id%m.GX, id/m.GX
	return geom.R(m.xEdge(ix), m.yEdge(iy), m.xEdge(ix+1), m.yEdge(iy+1))
}

// Region returns tile id's ownership region: its cell rectangle with
// border cells extended to infinity. Regions tile the whole plane under
// half-open [min, max) containment — every point has exactly one owner —
// which is the geometric fact the reference-point dedup rule rests on.
func (m *Manifest) Region(id int) geom.Rect {
	r := m.CellBounds(id)
	ix, iy := id%m.GX, id/m.GX
	if ix == 0 {
		r.MinX = math.Inf(-1)
	}
	if ix == m.GX-1 {
		r.MaxX = math.Inf(1)
	}
	if iy == 0 {
		r.MinY = math.Inf(-1)
	}
	if iy == m.GY-1 {
		r.MaxY = math.Inf(1)
	}
	return r
}

// OwnsRect is the half-open containment test shards apply to reference
// points against the ownership region the coordinator hands them:
// MinX ≤ x < MaxX and MinY ≤ y < MaxY.
func OwnsRect(region geom.Rect, p geom.Point) bool {
	return p.X >= region.MinX && p.X < region.MaxX &&
		p.Y >= region.MinY && p.Y < region.MaxY
}

// RefPoint is the reference point of an intersecting candidate pair: the
// min corner of the two MBRs' intersection. It lies inside both MBRs, so
// the tile owning it holds both objects — the pair is emitted there and
// nowhere else.
func RefPoint(a, b geom.Rect) geom.Point {
	i := a.Intersection(b)
	return geom.Point{X: i.MinX, Y: i.MinY}
}

// RefPointWithin is the reference point of a within-distance candidate
// pair: the min corner of Intersection(a.Expand(d), b). The MBRs of a
// within-d pair are within d per axis, so the intersection is non-empty;
// the point lies inside b's MBR and within d of a's, so a deployment
// whose replication margin is ≥ d guarantees the owning tile holds both
// objects. That is why coordinators refuse within-joins with d > Margin.
func RefPointWithin(a, b geom.Rect, d float64) geom.Point {
	i := a.Expand(d).Intersection(b)
	return geom.Point{X: i.MinX, Y: i.MinY}
}

// OverlappingTiles returns the IDs of every tile whose margin-expanded
// ownership region intersects r — the tiles an object with MBR r is
// replicated into, and the tiles a selection with query MBR r must be
// routed to.
func (m *Manifest) OverlappingTiles(r geom.Rect) []int {
	var out []int
	q := r.Expand(m.Margin)
	for id := 0; id < m.NumTiles(); id++ {
		if m.Region(id).Intersects(q) {
			out = append(out, id)
		}
	}
	return out
}

// ReplicaAddrs returns every tile's replica addresses (primary first) in
// tile order, or an error naming the first replica without one. This is
// the coordinator's routing table: element [t][r] serves replica r of
// tile t.
func (m *Manifest) ReplicaAddrs() ([][]string, error) {
	out := make([][]string, len(m.Tiles))
	for i, t := range m.Tiles {
		out[i] = make([]string, len(t.Replicas))
		for r, rep := range t.Replicas {
			if rep.Addr == "" {
				return nil, fmt.Errorf("partition: tile %d replica %d has no shard address (record it in the manifest or pass -shards)", i, r)
			}
			out[i][r] = rep.Addr
		}
	}
	return out, nil
}

// Replicas returns the deployment's replication factor — the number of
// copies of each tile. Uniform across tiles by construction; 1 for v1
// manifests.
func (m *Manifest) Replicas() int {
	if len(m.Tiles) == 0 {
		return 1
	}
	if n := len(m.Tiles[0].Replicas); n > 1 {
		return n
	}
	return 1
}

// Options configures Write.
type Options struct {
	// Tiles is the shard count; required ≥ 1. When the directory already
	// holds a manifest, Tiles must match its grid.
	Tiles int
	// Replicas is the number of copies of each tile (0 and 1 both mean
	// unreplicated). When the directory already holds a manifest, a
	// non-zero Replicas must match its deployed factor.
	Replicas int
	// Margin is the replication margin recorded in a fresh manifest (see
	// Manifest.Margin). Ignored when adding a layer to an existing
	// manifest — the deployed margin wins.
	Margin float64
	// Tool is recorded as provenance.
	Tool string
}

// Result reports what Write produced.
type Result struct {
	Manifest *Manifest
	// Layer accounting for the layer just written.
	Objects  int
	Replicas int
	// Bytes is the total snapshot bytes written.
	Bytes int64
	// WallMS is the end-to-end partition+persist time.
	WallMS float64
}

// Write partitions dataset d under name into dir: per-tile SPSNAP01
// snapshots at dir/shard-<i>/<name>.snap (objects carry their global
// dataset index as stable id, so shard results merge without remapping)
// and an updated dir/manifest.json. A manifest already in dir pins the
// grid — subsequent layers co-partition onto it, which is what makes
// cross-layer shard joins sound; Options.Tiles must then match. The
// manifest write is atomic (temp + rename) and bumps the generation.
func Write(dir, name string, d *data.Dataset, opts Options) (Result, error) {
	start := time.Now()
	if opts.Tiles < 1 {
		return Result{}, fmt.Errorf("partition: need at least 1 tile, got %d", opts.Tiles)
	}
	if opts.Replicas > MaxReplicas {
		return Result{}, fmt.Errorf("partition: implausible replica count %d (max %d)", opts.Replicas, MaxReplicas)
	}
	if name == "" {
		return Result{}, fmt.Errorf("partition: empty layer name")
	}
	man, err := Load(dir)
	switch {
	case err == nil:
		if man.NumTiles() != opts.Tiles {
			return Result{}, fmt.Errorf("partition: directory %s is already partitioned into %d tiles, not %d (use a fresh directory to change the grid)",
				dir, man.NumTiles(), opts.Tiles)
		}
		if opts.Replicas > 0 && man.Replicas() != opts.Replicas {
			return Result{}, fmt.Errorf("partition: directory %s is already deployed with %d replicas per tile, not %d (use a fresh directory to change the factor)",
				dir, man.Replicas(), opts.Replicas)
		}
	case os.IsNotExist(err):
		man = newManifest(d, opts)
	default:
		return Result{}, err
	}

	// Assign every object to each tile its margin-expanded MBR overlaps.
	// Iterating objects in dataset order keeps each tile's id column
	// strictly increasing, as the snapshot ids section requires.
	tiles := man.NumTiles()
	members := make([][]int, tiles)
	replicas := 0
	for i, p := range d.Objects {
		for _, id := range man.OverlappingTiles(p.Bounds()) {
			members[id] = append(members[id], i)
			replicas++
		}
	}

	res := Result{Objects: len(d.Objects), Replicas: replicas}
	for id := 0; id < tiles; id++ {
		objs := make([]*geom.Polygon, len(members[id]))
		ids := make([]uint64, len(members[id]))
		for j, gi := range members[id] {
			objs[j] = d.Objects[gi]
			ids[j] = uint64(gi)
		}
		save := store.SaveOptions{IDs: ids, Tool: opts.Tool}
		tileSet := &data.Dataset{Name: d.Name, Objects: objs}
		// Every replica gets a full copy of the tile snapshot in its own
		// directory, so any replica can serve the tile alone.
		for r, rep := range man.Tiles[id].Replicas {
			repDir := filepath.Join(dir, rep.Dir)
			if err := os.MkdirAll(repDir, 0o755); err != nil {
				return Result{}, fmt.Errorf("partition: %w", err)
			}
			bs, err := store.Save(filepath.Join(repDir, SnapshotName(name)), tileSet, save)
			if err != nil {
				return Result{}, fmt.Errorf("partition: tile %d replica %d: %w", id, r, err)
			}
			res.Bytes += bs.Bytes
		}
		man.Tiles[id].Objects[name] = len(objs)
	}

	man.Version = CurrentVersion
	man.Generation++
	man.Layers[name] = LayerInfo{Objects: len(d.Objects), Replicas: replicas}
	if opts.Tool != "" {
		man.Tool = opts.Tool
	}
	man.Created = time.Now().UTC().Format(time.RFC3339)
	if err := writeManifest(dir, man); err != nil {
		return Result{}, err
	}
	res.Manifest = man
	res.WallMS = float64(time.Since(start).Microseconds()) / 1000
	return res, nil
}

// newManifest lays out a fresh grid over the dataset's bounds.
func newManifest(d *data.Dataset, opts Options) *Manifest {
	gx, gy := PlanGrid(opts.Tiles)
	m := &Manifest{
		Version: CurrentVersion,
		Bounds:  d.Bounds(),
		GX:      gx,
		GY:      gy,
		Margin:  opts.Margin,
		Layers:  map[string]LayerInfo{},
	}
	reps := opts.Replicas
	if reps < 1 {
		reps = 1
	}
	m.Tiles = make([]Tile, m.NumTiles())
	for id := range m.Tiles {
		t := Tile{
			ID:      id,
			Bounds:  m.CellBounds(id),
			Dir:     fmt.Sprintf("shard-%d", id),
			Objects: map[string]int{},
		}
		t.Replicas = make([]Replica, reps)
		t.Replicas[0] = Replica{Dir: t.Dir}
		for r := 1; r < reps; r++ {
			t.Replicas[r] = Replica{Dir: fmt.Sprintf("shard-%d-r%d", id, r)}
		}
		m.Tiles[id] = t
	}
	return m
}

// Load reads and validates dir's manifest. A missing manifest returns an
// error satisfying os.IsNotExist; anything malformed returns a typed
// *ManifestError.
func Load(dir string) (*Manifest, error) {
	path := filepath.Join(dir, ManifestName)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decode(b, path)
}

// decode parses and validates a manifest from its JSON encoding. Every
// failure is a typed *ManifestError — corrupt bytes fail closed, they
// never panic and never yield a half-usable manifest. This is the fuzz
// target behind FuzzManifest.
func decode(b []byte, path string) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, &ManifestError{Path: path, Reason: err.Error()}
	}
	if err := m.validate(); err != nil {
		return nil, &ManifestError{Path: path, Reason: err.Error()}
	}
	m.normalize()
	return &m, nil
}

// validate checks the structural invariants every consumer assumes.
func (m *Manifest) validate() error {
	if m.Version < 0 || m.Version > CurrentVersion {
		return fmt.Errorf("unknown manifest version %d (this build reads up to %d)", m.Version, CurrentVersion)
	}
	if m.GX < 1 || m.GY < 1 {
		return fmt.Errorf("bad grid %dx%d", m.GX, m.GY)
	}
	if m.NumTiles() > 1<<16 {
		return fmt.Errorf("implausible tile count %d", m.NumTiles())
	}
	if len(m.Tiles) != m.NumTiles() {
		return fmt.Errorf("%d tiles listed, grid %dx%d needs %d", len(m.Tiles), m.GX, m.GY, m.NumTiles())
	}
	if m.Bounds.IsEmpty() || hasNonFinite(m.Bounds) {
		return fmt.Errorf("bad grid bounds %v", m.Bounds)
	}
	if math.IsNaN(m.Margin) || math.IsInf(m.Margin, 0) || m.Margin < 0 {
		return fmt.Errorf("bad margin %v", m.Margin)
	}
	// claimed maps each claimed shard directory to the claiming tile, so
	// two tiles (or two replicas) claiming one directory — overlapping
	// on-disk ownership — fail closed instead of silently double-serving.
	claimed := map[string]int{}
	claim := func(tile int, dir string) error {
		if prev, dup := claimed[dir]; dup {
			return fmt.Errorf("tiles %d and %d both claim directory %q", prev, tile, dir)
		}
		claimed[dir] = tile
		return nil
	}
	for i := range m.Tiles {
		t := &m.Tiles[i]
		if t.ID != i {
			return fmt.Errorf("tile %d carries id %d", i, t.ID)
		}
		// A tile claiming bounds other than its grid cell would overlap a
		// sibling's ownership region and break the reference-point rule.
		if t.Bounds != m.CellBounds(i) {
			return fmt.Errorf("tile %d claims bounds %v, its grid cell is %v", i, t.Bounds, m.CellBounds(i))
		}
		if len(t.Replicas) == 0 {
			if m.Version >= CurrentVersion {
				return fmt.Errorf("tile %d has an empty replica list", i)
			}
			if t.Dir == "" {
				return fmt.Errorf("tile %d has no directory", i)
			}
			if err := claim(i, t.Dir); err != nil {
				return err
			}
			continue
		}
		if len(t.Replicas) > MaxReplicas {
			return fmt.Errorf("tile %d claims implausible replica count %d (max %d)", i, len(t.Replicas), MaxReplicas)
		}
		if t.Dir != "" && t.Dir != t.Replicas[0].Dir {
			return fmt.Errorf("tile %d dir %q disagrees with its primary replica %q", i, t.Dir, t.Replicas[0].Dir)
		}
		addrs := map[string]bool{}
		for r, rep := range t.Replicas {
			if rep.Dir == "" {
				return fmt.Errorf("tile %d replica %d has no directory", i, r)
			}
			if err := claim(i, rep.Dir); err != nil {
				return err
			}
			if rep.Addr != "" {
				if addrs[rep.Addr] {
					return fmt.Errorf("tile %d lists address %q for two replicas; replicas must be distinct shards", i, rep.Addr)
				}
				addrs[rep.Addr] = true
			}
		}
	}
	return nil
}

// normalize establishes the in-memory invariants consumers rely on
// after a successful validate: every tile has a non-empty replica list
// (v1 tiles become their own single replica) and the legacy Dir/Addr
// fields mirror the primary replica.
func (m *Manifest) normalize() {
	for i := range m.Tiles {
		t := &m.Tiles[i]
		if len(t.Replicas) == 0 {
			t.Replicas = []Replica{{Dir: t.Dir, Addr: t.Addr}}
			continue
		}
		t.Dir = t.Replicas[0].Dir
		t.Addr = t.Replicas[0].Addr
	}
}

func hasNonFinite(r geom.Rect) bool {
	for _, v := range []float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// writeManifest persists the manifest atomically: temp file in dir,
// fsync, rename — a crash leaves the old manifest or none, never a torn
// one.
func writeManifest(dir string, m *Manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	f, err := os.CreateTemp(dir, ".manifest-*.tmp")
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	tmp := f.Name()
	defer os.Remove(tmp)
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("partition: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("partition: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	return nil
}
