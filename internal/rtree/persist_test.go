package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPackedRoundTrip pins Export → FromPacked as an identity for query
// purposes: the rebuilt tree validates and answers every search exactly
// like the original.
func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 15, 16, 17, 300, 5000} {
		es := randEntries(rng, n, 800, 4)
		orig := NewBulk(es)
		packed := orig.Export()
		back, err := FromPacked(packed)
		if err != nil {
			t.Fatalf("n=%d: FromPacked: %v", n, err)
		}
		if back.Len() != orig.Len() || height(back) != height(orig) {
			t.Fatalf("n=%d: shape changed: len %d→%d height %d→%d",
				n, orig.Len(), back.Len(), height(orig), height(back))
		}
		for range 50 {
			q := geom.R(rng.Float64()*800, rng.Float64()*800, 0, 0)
			q.MaxX = q.MinX + rng.Float64()*100
			q.MaxY = q.MinY + rng.Float64()*100
			if got, want := collectSearch(back, q), collectSearch(orig, q); !sameIDs(got, want) {
				t.Fatalf("n=%d search %v: rebuilt %v, original %v", n, q, got, want)
			}
		}
	}
}

// TestFromPackedRejectsMalformed feeds structurally corrupt packed images
// and requires typed errors, never panics — the property the snapshot
// reader's corruption handling relies on.
func TestFromPackedRejectsMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	good := NewBulk(randEntries(rng, 100, 100, 3)).Export()

	mutate := func(name string, f func(p Packed) Packed) {
		t.Run(name, func(t *testing.T) {
			cp := *good
			cp.Nodes = append([]PackedNode(nil), good.Nodes...)
			cp.Entries = append([]Entry(nil), good.Entries...)
			bad := f(cp)
			if _, err := FromPacked(&bad); err == nil {
				t.Fatalf("malformed image accepted")
			}
		})
	}
	mutate("no-nodes", func(p Packed) Packed { p.Nodes = nil; return p })
	mutate("bad-capacity", func(p Packed) Packed { p.MaxEntries = 1; return p })
	mutate("truncated-entries", func(p Packed) Packed { p.Entries = p.Entries[:len(p.Entries)-1]; return p })
	mutate("extra-entries", func(p Packed) Packed { p.Entries = append(p.Entries, Entry{}); return p })
	mutate("oversized-count", func(p Packed) Packed { p.Nodes[0].Count = p.MaxEntries + 1; return p })
	mutate("wrong-size", func(p Packed) Packed { p.Size++; return p })
	mutate("dangling-children", func(p Packed) Packed { p.Nodes = p.Nodes[:1]; return p })
}
