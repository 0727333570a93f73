package edgeindex

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/sweep"
)

// star builds a random star-shaped polygon (always simple).
func star(rng *rand.Rand, cx, cy, rMax float64, n int) *geom.Polygon {
	angles := make([]float64, n)
	step := 2 * math.Pi / float64(n)
	for i := range angles {
		angles[i] = float64(i)*step + rng.Float64()*step*0.9
	}
	pts := make([]geom.Point, n)
	for i, a := range angles {
		r := rMax * (0.2 + 0.8*rng.Float64())
		pts[i] = geom.Pt(cx+r*math.Cos(a), cy+r*math.Sin(a))
	}
	return geom.MustPolygon(pts...)
}

// TestDifferentialAgainstLinearScan is the index's correctness anchor:
// for random polygons and random query rectangles the indexed collection
// must produce exactly the slice — same edges, same chain order — that
// the full linear scan produces, because both route every examined edge
// through the shared predicate sweep.AppendEdgesInRange.
func TestDifferentialAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var got, want []geom.Segment
	for trial := range 2000 {
		// Sizes straddle MinIndexEdges so both the hierarchy and the
		// small-polygon fallback paths are exercised.
		n := 3 + rng.Intn(120)
		if trial%5 == 0 {
			n = MinIndexEdges + rng.Intn(3000) // deep hierarchies too
		}
		p := star(rng, rng.Float64()*10, rng.Float64()*10, 0.5+rng.Float64()*5, n)
		ix := New(p)
		if ix.Polygon() != p {
			t.Fatalf("trial %d: Polygon() mismatch", trial)
		}
		for range 8 {
			r := randRect(rng, p)
			want = sweep.AppendEdgesInRange(want[:0], p, r, 0, p.NumEdges())
			var examined int
			got, examined = ix.AppendEdgesInRect(got[:0], r)
			if examined < len(got) || examined > p.NumEdges() {
				t.Fatalf("trial %d: examined %d outside [%d, %d]", trial, examined, len(got), p.NumEdges())
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: indexed %d edges, linear %d (rect %v, n=%d)",
					trial, len(got), len(want), r, n)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: edge %d differs: indexed %v, linear %v",
						trial, i, got[i], want[i])
				}
			}
		}
	}
}

// randRect samples query rectangles spanning the interesting regimes:
// tiny rects deep inside the polygon, rects around its boundary, rects
// covering everything, and rects clear off to the side.
func randRect(rng *rand.Rand, p *geom.Polygon) geom.Rect {
	b := p.Bounds()
	switch rng.Intn(4) {
	case 0: // tiny, near the polygon
		cx := b.MinX + rng.Float64()*b.Width()
		cy := b.MinY + rng.Float64()*b.Height()
		w := b.Width() * 0.05 * rng.Float64()
		h := b.Height() * 0.05 * rng.Float64()
		return geom.R(cx-w, cy-h, cx+w, cy+h)
	case 1: // moderate overlap
		x0 := b.MinX + (rng.Float64()*1.4-0.2)*b.Width()
		y0 := b.MinY + (rng.Float64()*1.4-0.2)*b.Height()
		return geom.R(x0, y0, x0+rng.Float64()*b.Width(), y0+rng.Float64()*b.Height())
	case 2: // covers the whole polygon
		return b.Expand(1)
	default: // disjoint
		return geom.R(b.MaxX+1, b.MaxY+1, b.MaxX+2, b.MaxY+2)
	}
}

// TestSmallPolygonFallback pins the degraded mode: below MinIndexEdges no
// hierarchy exists and every edge is examined.
func TestSmallPolygonFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := star(rng, 0, 0, 2, MinIndexEdges-1)
	ix := New(p)
	if ix.Indexed() {
		t.Fatalf("polygon with %d edges should not build a hierarchy", p.NumEdges())
	}
	got, examined := ix.AppendEdgesInRect(nil, p.Bounds())
	if examined != p.NumEdges() {
		t.Fatalf("fallback examined %d, want all %d", examined, p.NumEdges())
	}
	if len(got) != p.NumEdges() {
		t.Fatalf("fallback over full bounds returned %d edges, want %d", len(got), p.NumEdges())
	}
}

// TestPruningHappens makes sure the hierarchy actually skips work on
// selective rectangles — the index's reason to exist.
func TestPruningHappens(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := star(rng, 0, 0, 10, 4096)
	ix := New(p)
	if !ix.Indexed() {
		t.Fatal("large polygon should build a hierarchy")
	}
	if ix.poly.NumEdges() != 4096 {
		t.Fatalf("indexed %d edges", ix.poly.NumEdges())
	}
	// A tiny rect at the boundary touches few runs.
	r := geom.R(9.0, -0.05, 10.1, 0.05)
	_, examined := ix.AppendEdgesInRect(nil, r)
	if examined >= p.NumEdges()/4 {
		t.Fatalf("selective rect examined %d of %d edges — no pruning", examined, p.NumEdges())
	}
}

func BenchmarkAppendEdgesInRect(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := star(rng, 0, 0, 10, 2048)
	ix := New(p)
	r := geom.R(8, -1, 11, 1)
	buf := make([]geom.Segment, 0, 256)
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			buf, _ = ix.AppendEdgesInRect(buf[:0], r)
		}
	})
	b.Run("linear", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			buf = sweep.AppendEdgesInRange(buf[:0], p, r, 0, p.NumEdges())
		}
	})
}
