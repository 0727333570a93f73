package raster

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// Bit reports cell (x, y).
func (s *Signature) Bit(x, y int) bool {
	i := y*s.Res + x
	return s.Words[i>>6]&(1<<uint(i&63)) != 0
}

// cellRect returns the data-space rectangle of cell (x, y): the grid tiles
// Bounds uniformly, cell (0,0) at (MinX, MinY).
func (s *Signature) cellRect(x, y int) geom.Rect {
	w := s.Bounds.Width() / float64(s.Res)
	h := s.Bounds.Height() / float64(s.Res)
	return geom.R(
		s.Bounds.MinX+float64(x)*w,
		s.Bounds.MinY+float64(y)*h,
		s.Bounds.MinX+float64(x+1)*w,
		s.Bounds.MinY+float64(y+1)*h,
	)
}

// cellRange maps data-space rectangle r onto s's grid, returning the
// inclusive cell index range it touches, clamped to the grid; ok is false
// when r misses the grid entirely.
func (s *Signature) cellRange(r geom.Rect) (x0, y0, x1, y1 int, ok bool) {
	w := s.Bounds.Width() / float64(s.Res)
	h := s.Bounds.Height() / float64(s.Res)
	if w <= 0 {
		w = math.SmallestNonzeroFloat64
	}
	if h <= 0 {
		h = math.SmallestNonzeroFloat64
	}
	x0 = int(math.Floor((r.MinX-s.Bounds.MinX)/w - cellEps))
	x1 = int(math.Ceil((r.MaxX-s.Bounds.MinX)/w+cellEps)) - 1
	y0 = int(math.Floor((r.MinY-s.Bounds.MinY)/h - cellEps))
	y1 = int(math.Ceil((r.MaxY-s.Bounds.MinY)/h+cellEps)) - 1
	if x1 < x0 {
		x1 = x0
	}
	if y1 < y0 {
		y1 = y0
	}
	if x1 < 0 || y1 < 0 || x0 >= s.Res || y0 >= s.Res {
		return 0, 0, 0, 0, false
	}
	x0, y0 = max(x0, 0), max(y0, 0)
	x1, y1 = min(x1, s.Res-1), min(y1, s.Res-1)
	return x0, y0, x1, y1, true
}

// anyBitInRows reports whether any cell in rows y0..y1, columns x0..x1 is
// set.
func (s *Signature) anyBitInRows(x0, y0, x1, y1 int) bool {
	for y := y0; y <= y1; y++ {
		row := y * s.Res
		for x := x0; x <= x1; x++ {
			i := row + x
			if s.Words[i>>6]&(1<<uint(i&63)) != 0 {
				return true
			}
		}
	}
	return false
}

// cellsMayIntersect is the signature test cell by cell, the definition
// SignaturesMayIntersect must agree with on every input: each set cell of
// a in the shared region, expanded by d, is mapped onto b's grid and the
// cells there are scanned one bit at a time.
func cellsMayIntersect(a, b *Signature, d float64) bool {
	if !a.Valid() || !b.Valid() {
		return true
	}
	region := a.Bounds.Intersection(b.Bounds.Expand(d))
	if region.IsEmpty() {
		return false
	}
	ax0, ay0, ax1, ay1, ok := a.cellRange(region)
	if !ok {
		return false
	}
	for ay := ay0; ay <= ay1; ay++ {
		for ax := ax0; ax <= ax1; ax++ {
			if !a.Bit(ax, ay) {
				continue
			}
			bx0, by0, bx1, by1, ok := b.cellRange(a.cellRect(ax, ay).Expand(d))
			if !ok {
				continue
			}
			if b.anyBitInRows(bx0, by0, bx1, by1) {
				return true
			}
		}
	}
	return false
}

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

// randSignature returns a signature at resolution res over bounds whose
// cells are set with probability density, and whose padding past Res*Res
// in the last word is random garbage.
func randSignature(rng *rand.Rand, bounds geom.Rect, res int, density float64) Signature {
	s := Signature{Bounds: bounds, Res: res, Words: make([]uint64, SignatureWords(res))}
	for i := range res * res {
		if rng.Float64() < density {
			s.Words[i>>6] |= 1 << uint(i&63)
		}
	}
	if pad := res * res & 63; pad != 0 {
		s.Words[len(s.Words)-1] |= rng.Uint64() &^ (1<<uint(pad) - 1)
	}
	return s
}

// clearPadding returns a copy of s with the bits past Res*Res cleared.
func clearPadding(s Signature) Signature {
	s.Words = slices.Clone(s.Words)
	if pad := s.Res * s.Res & 63; pad != 0 {
		s.Words[len(s.Words)-1] &= 1<<uint(pad) - 1
	}
	return s
}

// checkAgainstCells fails t unless SignaturesMayIntersect gives the cell
// loop's verdict on (a, b, d), and the same verdict with a's and b's
// padding bits cleared.
func checkAgainstCells(t *testing.T, a, b *Signature, d float64) bool {
	t.Helper()
	got, want := SignaturesMayIntersect(a, b, d), cellsMayIntersect(a, b, d)
	if got != want {
		t.Fatalf("a=%v res %d, b=%v res %d, d=%g: kernel says %v, cell loop %v", a.Bounds, a.Res, b.Bounds, b.Res, d, got, want)
	}
	ca, cb := clearPadding(*a), clearPadding(*b)
	if SignaturesMayIntersect(&ca, &cb, d) != got {
		t.Fatalf("a=%v res %d, b=%v res %d, d=%g: padding bits changed the verdict", a.Bounds, a.Res, b.Bounds, b.Res, d)
	}
	return got
}

// randBounds returns a rectangle drawn from one of the shapes the kernel's
// arithmetic is touchiest on, chosen by kind: ordinary, zero width, zero
// height, inside other, or on a grid whose cell edges are exact binary
// fractions.
func randBounds(rng *rand.Rand, kind int, other geom.Rect) geom.Rect {
	x, y := rng.Float64()*40, rng.Float64()*40
	w, h := 0.5+rng.Float64()*30, 0.5+rng.Float64()*30
	switch kind {
	case 1:
		w = 0
	case 2:
		h = 0
	case 3:
		fx, fy := rng.Float64(), rng.Float64()
		w, h = other.Width()*fx*rng.Float64(), other.Height()*fy*rng.Float64()
		x, y = other.MinX+(other.Width()-w)*fx, other.MinY+(other.Height()-h)*fy
	case 4:
		x, y = float64(rng.Intn(32)), float64(rng.Intn(32))
		w, h = float64(int(1)<<rng.Intn(6)), float64(int(1)<<rng.Intn(6))
	}
	return geom.R(x, y, x+w, y+h)
}

// signatureDistances returns the d values a pair is checked at: zero, a
// hair above it, exact multiples of either grid's cell size, one larger
// than both MBRs, a random one, and a negative one (which turns the
// expanded cells inside out).
func signatureDistances(rng *rand.Rand, a, b *Signature) []float64 {
	ds := []float64{0, 1e-12, 2 * max(a.Bounds.Width(), a.Bounds.Height(), b.Bounds.Width(), b.Bounds.Height()), rng.Float64() * 5, -rng.Float64()}
	for _, s := range []*Signature{a, b} {
		k := float64(1 + rng.Intn(3))
		ds = append(ds, k*s.Bounds.Width()/float64(s.Res), k*s.Bounds.Height()/float64(s.Res))
	}
	return ds
}

// TestSignatureRow pins the row extraction the kernel is built on at
// every resolution: bit x of row y is cell (x, y), wherever the row
// straddles a word boundary, and no bit past the row or from the last
// word's padding leaks in.
func TestSignatureRow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for res := 1; res <= MaxSignatureRes; res++ {
		s := Signature{Res: res, Words: make([]uint64, SignatureWords(res))}
		for i := range s.Words {
			s.Words[i] = rng.Uint64()
		}
		for y := range res {
			var want uint64
			for x := range res {
				if s.Bit(x, y) {
					want |= 1 << uint(x)
				}
			}
			if got := s.row(y); got != want {
				t.Fatalf("res %d row %d: %064b, want %064b", res, y, got, want)
			}
		}
	}
}

// TestSignaturesMayIntersectMatchesCells holds the word-parallel kernel to
// the cell loop on seeded random signatures: resolutions 1..64 chosen
// independently per side, sparse to dense bitmaps with garbage padding,
// every bounds shape of randBounds, near the origin and far from it,
// every distance of signatureDistances.
func TestSignaturesMayIntersectMatchesCells(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var yes, no int
	for trial := 0; trial < 10000; trial++ {
		ab := randBounds(rng, rng.Intn(5), geom.Rect{})
		bb := randBounds(rng, rng.Intn(5), ab)
		if rng.Intn(2) == 0 {
			ab, bb = bb, ab
		}
		if rng.Intn(5) == 0 {
			far := geom.Pt(1e9, -1e12)
			ab = geom.R(ab.MinX+far.X, ab.MinY+far.Y, ab.MaxX+far.X, ab.MaxY+far.Y)
			bb = geom.R(bb.MinX+far.X, bb.MinY+far.Y, bb.MaxX+far.X, bb.MaxY+far.Y)
		}
		density := []float64{0.02, 0.1, 0.4, 0.9}[rng.Intn(4)]
		a := randSignature(rng, ab, 1+rng.Intn(MaxSignatureRes), density)
		b := randSignature(rng, bb, 1+rng.Intn(MaxSignatureRes), density)
		for _, d := range signatureDistances(rng, &a, &b) {
			if checkAgainstCells(t, &a, &b, d) {
				yes++
			} else {
				no++
			}
		}
	}
	if yes == 0 || no == 0 {
		t.Fatalf("%d may-intersect and %d reject verdicts: the table does not exercise both", yes, no)
	}
	t.Logf("%d may-intersect, %d reject verdicts", yes, no)
}

// FuzzSignaturesMayIntersect searches for an input on which the
// word-parallel kernel and the cell loop disagree: any resolutions in
// 1..64, any bounds, any d, any bitmap and padding.
func FuzzSignaturesMayIntersect(f *testing.F) {
	f.Add(uint8(16), uint8(16), 0.0, 0.0, 10.0, 10.0, 5.0, 5.0, 15.0, 15.0, 0.0, int64(1), uint8(40))
	f.Add(uint8(64), uint8(1), 0.0, 0.0, 64.0, 64.0, 64.0, 0.0, 65.0, 1.0, 0.0, int64(2), uint8(255))
	f.Add(uint8(7), uint8(9), 0.0, 0.0, 0.0, 10.0, -3.0, 2.0, 3.0, 2.0, 1e-12, int64(3), uint8(128))
	f.Add(uint8(8), uint8(8), 0.0, 0.0, 8.0, 8.0, 10.0, 0.0, 18.0, 8.0, 2.0, int64(4), uint8(20))
	f.Add(uint8(33), uint8(5), 1e9, -1e12, 1e9+3, -1e12+7, 1e9+1, -1e12+1, 1e9+2, -1e12+2, 0.5, int64(5), uint8(60))
	f.Add(uint8(12), uint8(50), 0.0, 0.0, 1.0, 1.0, -100.0, -100.0, 100.0, 100.0, 1000.0, int64(6), uint8(3))
	f.Fuzz(func(t *testing.T, resA, resB uint8, ax0, ay0, ax1, ay1, bx0, by0, bx1, by1, d float64, seed int64, density uint8) {
		rng := rand.New(rand.NewSource(seed))
		a := randSignature(rng, geom.R(ax0, ay0, ax1, ay1), 1+int(resA)%MaxSignatureRes, float64(density)/255)
		b := randSignature(rng, geom.R(bx0, by0, bx1, by1), 1+int(resB)%MaxSignatureRes, float64(density)/255)
		checkAgainstCells(t, &a, &b, d)
		checkAgainstCells(t, &b, &a, d)
	})
}
