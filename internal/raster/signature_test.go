package raster

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// starPoly builds a random star-shaped polygon (always simple).
func starPoly(rng *rand.Rand, cx, cy, rMax float64, n int) *geom.Polygon {
	step := 2 * math.Pi / float64(n)
	pts := make([]geom.Point, n)
	for i := range pts {
		a := float64(i)*step + rng.Float64()*step*0.9
		r := rMax * (0.2 + 0.8*rng.Float64())
		pts[i] = geom.Pt(cx+r*math.Cos(a), cy+r*math.Sin(a))
	}
	return geom.MustPolygon(pts...)
}

// boundaryDist is the brute-force minimum distance between the two
// polygons' boundaries — the ground truth the signature test is judged
// against.
func boundaryDist(p, q *geom.Polygon) float64 {
	d := math.Inf(1)
	for i := 0; i < p.NumEdges(); i++ {
		for j := 0; j < q.NumEdges(); j++ {
			if v := math.Sqrt(p.Edge(i).DistSq(q.Edge(j))); v < d {
				d = v
			}
		}
	}
	return d
}

// TestSignatureCoversBoundary pins the conservativeness of one signature
// in isolation: every boundary point (sampled densely along each edge)
// falls in a set cell.
func TestSignatureCoversBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		p := starPoly(rng, 50, 50, 5+rng.Float64()*40, 3+rng.Intn(20))
		sig := ComputeSignature(p, 0)
		if !sig.Valid() {
			t.Fatalf("trial %d: signature invalid", trial)
		}
		w := sig.Bounds.Width() / float64(sig.Res)
		h := sig.Bounds.Height() / float64(sig.Res)
		for i := 0; i < p.NumEdges(); i++ {
			e := p.Edge(i)
			for s := 0.0; s <= 1.0; s += 1.0 / 64 {
				pt := geom.Pt(e.A.X+(e.B.X-e.A.X)*s, e.A.Y+(e.B.Y-e.A.Y)*s)
				// A point exactly on a shared cell border may be attributed
				// to either adjacent cell by the renderer's arithmetic, so
				// accept any cell whose closed rect (with border slack)
				// contains the point.
				fx := (pt.X - sig.Bounds.MinX) / w
				fy := (pt.Y - sig.Bounds.MinY) / h
				covered := false
				for y := int(math.Floor(fy - 1e-6)); y <= int(math.Floor(fy+1e-6)) && !covered; y++ {
					for x := int(math.Floor(fx - 1e-6)); x <= int(math.Floor(fx+1e-6)) && !covered; x++ {
						cx := min(max(x, 0), sig.Res-1)
						cy := min(max(y, 0), sig.Res-1)
						covered = sig.Bit(cx, cy)
					}
				}
				if !covered {
					t.Fatalf("trial %d: boundary point %v in clear cell (%g,%g)", trial, pt, fx, fy)
				}
			}
		}
	}
}

// TestSignatureCoversMBREdges pins the regression where segments lying
// exactly on the polygon's own MBR max edges (every axis-aligned
// rectangle's top and right edge) were dropped by the half-open window
// mapping, leaving clear cells under real boundary and turning the
// disjointness "proof" into a wrong answer.
func TestSignatureCoversMBREdges(t *testing.T) {
	rect, err := geom.NewPolygon([]geom.Point{
		geom.Pt(10, 10), geom.Pt(40, 10), geom.Pt(40, 40), geom.Pt(10, 40),
	})
	if err != nil {
		t.Fatal(err)
	}
	sig := ComputeSignature(rect, 16)
	for i := 0; i < 16; i++ {
		for _, c := range [][2]int{{i, 0}, {i, 15}, {0, i}, {15, i}} {
			if !sig.Bit(c[0], c[1]) {
				t.Fatalf("perimeter cell (%d,%d) clear; the rectangle's boundary runs through it", c[0], c[1])
			}
		}
	}
	// A thin polygon hugging the rectangle's top edge must not be
	// signature-rejected against it.
	top, err := geom.NewPolygon([]geom.Point{
		geom.Pt(15, 39.5), geom.Pt(35, 39.5), geom.Pt(35, 40.5), geom.Pt(15, 40.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	other := ComputeSignature(top, 16)
	if !SignaturesMayIntersect(&sig, &other, 0) {
		t.Fatalf("signatures rejected a pair whose boundaries cross the MBR top edge")
	}
}

// TestSignaturesMayIntersectSound is the core safety property: whenever
// the signature test says "cannot intersect / cannot be within d", the
// brute-force boundary distance must agree. False negatives would change
// query results; false positives only cost time.
func TestSignaturesMayIntersectSound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rejects := 0
	for trial := 0; trial < 400; trial++ {
		// Mix of far, near-miss, and overlapping placements.
		cx := 30 + rng.Float64()*40
		cy := 30 + rng.Float64()*40
		p := starPoly(rng, 50, 50, 5+rng.Float64()*25, 3+rng.Intn(16))
		q := starPoly(rng, cx, cy, 5+rng.Float64()*25, 3+rng.Intn(16))
		sp := ComputeSignature(p, DefaultSignatureRes)
		sq := ComputeSignature(q, DefaultSignatureRes)
		truth := boundaryDist(p, q)
		for _, d := range []float64{0, 0.5, 3, 10} {
			if !SignaturesMayIntersect(&sp, &sq, d) {
				rejects++
				if truth <= d {
					t.Fatalf("trial %d d=%g: signatures rejected but boundary distance is %g", trial, d, truth)
				}
			}
			// Symmetry: the verdict must not depend on argument order.
			if SignaturesMayIntersect(&sp, &sq, d) != SignaturesMayIntersect(&sq, &sp, d) {
				t.Fatalf("trial %d d=%g: asymmetric verdict", trial, d)
			}
		}
	}
	if rejects == 0 {
		t.Fatalf("signature test never rejected a pair — no filtering power")
	}
	t.Logf("rejected %d pair-distance combinations", rejects)
}

// TestSignatureDegenerateInputs pins the "no signature, no claim"
// contract for nil, zero-value, and mismatched-length signatures.
func TestSignatureDegenerateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := starPoly(rng, 50, 50, 20, 8)
	sig := ComputeSignature(p, 8)
	if !SignaturesMayIntersect(nil, &sig, 0) {
		t.Fatalf("nil signature must be inconclusive")
	}
	if !SignaturesMayIntersect(&sig, &Signature{}, 0) {
		t.Fatalf("zero-value signature must be inconclusive")
	}
	bad := sig
	bad.Words = bad.Words[:len(bad.Words)-1]
	if !SignaturesMayIntersect(&bad, &sig, 0) {
		t.Fatalf("truncated signature must be inconclusive")
	}
	if !SignaturesMayIntersect(&sig, &sig, 0) {
		t.Fatalf("a signature must always may-intersect itself")
	}
	if !slices.ContainsFunc(sig.Words, func(w uint64) bool { return w != 0 }) {
		t.Fatalf("boundary rendered no cells")
	}
}
