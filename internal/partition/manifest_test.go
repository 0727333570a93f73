// Manifest v2 coverage: per-tile replica lists, v1 compatibility, and
// the fail-closed decoding contract (corrupt or hostile manifests must
// yield a typed *ManifestError, never a panic or a half-usable
// manifest). FuzzManifest drives Decode with arbitrary bytes.
package partition

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/store"
)

// TestWriteReplicasCopiesEveryTile pins the replicated layout: with
// -replicas 2 every tile gets two directories holding bit-equivalent
// snapshots (same object ids), the manifest records version 2, and the
// replication factor survives a round trip and a second co-partitioned
// layer.
func TestWriteReplicasCopiesEveryTile(t *testing.T) {
	d := data.MustLoad("LANDC", 0.01)
	dir := t.TempDir()
	if _, err := Write(dir, "land", d, Options{Tiles: 4, Replicas: 2, Margin: 2}); err != nil {
		t.Fatal(err)
	}
	m, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != CurrentVersion {
		t.Fatalf("manifest version %d, want %d", m.Version, CurrentVersion)
	}
	if m.Replicas() != 2 {
		t.Fatalf("Replicas() = %d, want 2", m.Replicas())
	}
	for _, tile := range m.Tiles {
		if len(tile.Replicas) != 2 {
			t.Fatalf("tile %d has %d replicas, want 2", tile.ID, len(tile.Replicas))
		}
		if tile.Dir != tile.Replicas[0].Dir {
			t.Fatalf("tile %d legacy dir %q does not mirror primary %q", tile.ID, tile.Dir, tile.Replicas[0].Dir)
		}
		var ids [][]uint64
		for _, rep := range tile.Replicas {
			s, err := store.Open(filepath.Join(dir, rep.Dir, SnapshotName("land")), store.OpenOptions{})
			if err != nil {
				t.Fatalf("tile %d replica %s: %v", tile.ID, rep.Dir, err)
			}
			ids = append(ids, append([]uint64(nil), s.IDs()...))
			s.Close()
		}
		if len(ids[0]) != len(ids[1]) {
			t.Fatalf("tile %d replicas disagree on object count: %d vs %d", tile.ID, len(ids[0]), len(ids[1]))
		}
		for j := range ids[0] {
			if ids[0][j] != ids[1][j] {
				t.Fatalf("tile %d replicas disagree on id %d: %d vs %d", tile.ID, j, ids[0][j], ids[1][j])
			}
		}
	}

	// A second layer inherits the deployed factor; asking for a different
	// one refuses.
	b := data.MustLoad("LANDO", 0.01)
	if _, err := Write(dir, "b", b, Options{Tiles: 4}); err != nil {
		t.Fatalf("co-partition with inherited replicas: %v", err)
	}
	if _, err := Write(dir, "c", b, Options{Tiles: 4, Replicas: 3}); err == nil {
		t.Fatal("changing the replica factor of a deployed directory did not refuse")
	}

	// ReplicaAddrs surfaces the missing-address tile+replica; once every
	// replica has one, it returns the full routing table.
	if _, err := m.ReplicaAddrs(); err == nil {
		t.Fatal("ReplicaAddrs with no recorded addresses did not error")
	}
	for i := range m.Tiles {
		for r := range m.Tiles[i].Replicas {
			m.Tiles[i].Replicas[r].Addr = filepath.Join("host", m.Tiles[i].Replicas[r].Dir)
		}
	}
	ra, err := m.ReplicaAddrs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != 4 || len(ra[0]) != 2 {
		t.Fatalf("ReplicaAddrs shape %dx%d, want 4x2", len(ra), len(ra[0]))
	}
}

// TestManifestV1Compat pins backward compatibility: a replica-less v1
// manifest (no version field, tiles with only dir/addr) loads exactly as
// before and normalizes to single-replica tiles.
func TestManifestV1Compat(t *testing.T) {
	v1 := `{
		"generation": 3,
		"bounds": {"MinX": 0, "MinY": 0, "MaxX": 2, "MaxY": 1},
		"gx": 2, "gy": 1, "margin": 0.5,
		"layers": {"land": {"objects": 10, "replicas": 12}},
		"tiles": [
			{"id": 0, "bounds": {"MinX": 0, "MinY": 0, "MaxX": 1, "MaxY": 1}, "dir": "shard-0", "addr": "h:1", "objects": {"land": 6}},
			{"id": 1, "bounds": {"MinX": 1, "MinY": 0, "MaxX": 2, "MaxY": 1}, "dir": "shard-1", "addr": "h:2", "objects": {"land": 6}}
		]
	}`
	m, err := decode([]byte(v1), ManifestName)
	if err != nil {
		t.Fatalf("v1 manifest rejected: %v", err)
	}
	if m.Version != 0 || m.Replicas() != 1 {
		t.Fatalf("v1 manifest: version=%d replicas=%d, want 0 and 1", m.Version, m.Replicas())
	}
	for i, tile := range m.Tiles {
		if len(tile.Replicas) != 1 || tile.Replicas[0].Dir != tile.Dir || tile.Replicas[0].Addr != tile.Addr {
			t.Fatalf("tile %d did not normalize to its own single replica: %+v", i, tile)
		}
	}
	ra, err := m.ReplicaAddrs()
	if err != nil || len(ra) != 2 || len(ra[0]) != 1 || ra[0][0] != "h:1" {
		t.Fatalf("v1 ReplicaAddrs() = %v, %v", ra, err)
	}
}

// TestDecodeFailsClosed enumerates the corruption classes the validator
// must refuse with a typed error: unknown versions, empty replica
// lists, duplicate directory claims, overlapping tile bounds, and
// duplicate replica addresses within a tile.
func TestDecodeFailsClosed(t *testing.T) {
	tile := func(id int, bounds, rest string) string {
		return `{"id": ` + itoa(id) + `, "bounds": ` + bounds + rest + `}`
	}
	b0 := `{"MinX": 0, "MinY": 0, "MaxX": 1, "MaxY": 1}`
	b1 := `{"MinX": 1, "MinY": 0, "MaxX": 2, "MaxY": 1}`
	head := `{"version": %s, "bounds": {"MinX": 0, "MinY": 0, "MaxX": 2, "MaxY": 1}, "gx": 2, "gy": 1, "tiles": [%s]}`
	cases := []struct {
		name, doc, want string
	}{
		{"unknown version", `{"version": 99, "bounds": {"MinX":0,"MinY":0,"MaxX":1,"MaxY":1}, "gx": 1, "gy": 1, "tiles": [` +
			tile(0, `{"MinX":0,"MinY":0,"MaxX":1,"MaxY":1}`, `, "dir": "shard-0"`) + `]}`, "unknown manifest version"},
		{"empty replica list", sprintf(head, "2", tile(0, b0, `, "replicas": []`)+","+tile(1, b1, `, "dir": "shard-1", "replicas": [{"dir": "shard-1"}]`)), "empty replica list"},
		{"duplicate dir across tiles", sprintf(head, "2",
			tile(0, b0, `, "replicas": [{"dir": "shard-x"}]`)+","+tile(1, b1, `, "replicas": [{"dir": "shard-x"}]`)), "both claim directory"},
		{"duplicate dir across replicas", sprintf(head, "2",
			tile(0, b0, `, "replicas": [{"dir": "shard-0"}, {"dir": "shard-0"}]`)+","+tile(1, b1, `, "replicas": [{"dir": "shard-1"}]`)), "both claim directory"},
		{"overlapping tile bounds", sprintf(head, "2",
			tile(0, b0, `, "replicas": [{"dir": "shard-0"}]`)+","+tile(1, b0, `, "replicas": [{"dir": "shard-1"}]`)), "grid cell"},
		{"duplicate replica addr", sprintf(head, "2",
			tile(0, b0, `, "replicas": [{"dir": "shard-0", "addr": "h:1"}, {"dir": "shard-0-r1", "addr": "h:1"}]`)+","+tile(1, b1, `, "replicas": [{"dir": "shard-1"}]`)), "distinct shards"},
		{"dir disagrees with primary", sprintf(head, "2",
			tile(0, b0, `, "dir": "elsewhere", "replicas": [{"dir": "shard-0"}]`)+","+tile(1, b1, `, "replicas": [{"dir": "shard-1"}]`)), "disagrees with its primary"},
		{"implausible replica count", sprintf(head, "2",
			tile(0, b0, `, "replicas": [`+strings.Repeat(`{"dir": "a"},`, MaxReplicas)+`{"dir": "b"}]`)+","+tile(1, b1, `, "replicas": [{"dir": "shard-1"}]`)), "implausible replica count"},
	}
	for _, c := range cases {
		_, err := decode([]byte(c.doc), ManifestName)
		var me *ManifestError
		if !errors.As(err, &me) {
			t.Errorf("%s: got %v, want *ManifestError", c.name, err)
			continue
		}
		if !strings.Contains(me.Reason, c.want) {
			t.Errorf("%s: reason %q does not mention %q", c.name, me.Reason, c.want)
		}
	}
}

func itoa(i int) string { return string(rune('0' + i)) }
func sprintf(f string, a ...any) string {
	out := f
	for _, v := range a {
		out = strings.Replace(out, "%s", v.(string), 1)
	}
	return out
}

// FuzzManifest throws arbitrary bytes at the manifest decoder. The
// contract under fuzzing: never panic, refuse with a typed
// *ManifestError, and — when a document is accepted — uphold the
// normalized invariants and survive a marshal/decode round trip.
func FuzzManifest(f *testing.F) {
	dir := f.TempDir()
	d := data.MustLoad("LANDC", 0.002)
	if _, err := Write(dir, "land", d, Options{Tiles: 4, Replicas: 2, Margin: 1}); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add([]byte(`{"gx": 1, "gy": 1, "bounds": {"MinX":0,"MinY":0,"MaxX":1,"MaxY":1}, "tiles": [{"id":0,"bounds":{"MinX":0,"MinY":0,"MaxX":1,"MaxY":1},"dir":"shard-0"}]}`))
	f.Add([]byte(`{"version": 3}`))
	f.Add([]byte(`{"version": 2, "gx": 2, "gy": 1, "tiles": [{"id":0,"replicas":[]}]}`))
	f.Add([]byte(`{"gx": 1000000, "gy": 1000000}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decode(b, ManifestName)
		if err != nil {
			var me *ManifestError
			if !errors.As(err, &me) {
				t.Fatalf("Decode error %T is not a *ManifestError: %v", err, err)
			}
			return
		}
		if len(m.Tiles) != m.NumTiles() {
			t.Fatalf("accepted manifest has %d tiles for a %dx%d grid", len(m.Tiles), m.GX, m.GY)
		}
		for i, tile := range m.Tiles {
			if len(tile.Replicas) == 0 {
				t.Fatalf("accepted manifest tile %d has no replicas after normalize", i)
			}
			if tile.Dir != tile.Replicas[0].Dir {
				t.Fatalf("accepted manifest tile %d dir %q does not mirror primary %q", i, tile.Dir, tile.Replicas[0].Dir)
			}
		}
		// Round trip: what we accept, we must re-emit and re-accept.
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal of accepted manifest: %v", err)
		}
		if _, err := decode(out, ManifestName); err != nil {
			t.Fatalf("round trip of accepted manifest rejected: %v", err)
		}
	})
}
