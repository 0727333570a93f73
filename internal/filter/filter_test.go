package filter

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/geom"
)

func square(x, y, side float64) *geom.Polygon {
	return geom.MustPolygon(
		geom.Pt(x, y), geom.Pt(x+side, y), geom.Pt(x+side, y+side), geom.Pt(x, y+side),
	)
}

// star builds a random star-shaped polygon (always simple).
func star(rng *rand.Rand, cx, cy, rMax float64, n int) *geom.Polygon {
	step := 2 * math.Pi / float64(n)
	pts := make([]geom.Point, n)
	for i := range pts {
		a := float64(i)*step + rng.Float64()*step*0.9
		r := rMax * (0.2 + 0.8*rng.Float64())
		pts[i] = geom.Pt(cx+r*math.Cos(a), cy+r*math.Sin(a))
	}
	return geom.MustPolygon(pts...)
}

func TestInteriorSquare(t *testing.T) {
	// The query is its own MBR: every tile is interior at every level.
	q := square(0, 0, 16)
	for _, level := range []int{0, 1, 2, 4} {
		f := NewInterior(q, level)
		n := f.n
		if n != 1<<level {
			t.Fatalf("level %d: %d tiles per side", level, n)
		}
		if f.count != n*n {
			t.Errorf("level %d: interior tiles = %d, want %d (square query)", level, f.count, n*n)
		}
		if !f.CoversRect(geom.R(1, 1, 15, 15)) {
			t.Errorf("level %d: inner rect not covered", level)
		}
		if f.CoversRect(geom.R(-1, 1, 5, 5)) {
			t.Error("rect outside query MBR reported covered")
		}
	}
}

func TestInteriorLShape(t *testing.T) {
	// L-shape: the notch must not be covered.
	q := geom.MustPolygon(
		geom.Pt(0, 0), geom.Pt(16, 0), geom.Pt(16, 8), geom.Pt(8, 8), geom.Pt(8, 16), geom.Pt(0, 16),
	)
	f := NewInterior(q, 3) // 8x8 tiles of 2x2 units
	if f.CoversRect(geom.R(10, 10, 14, 14)) {
		t.Error("notch rect reported covered")
	}
	if !f.CoversRect(geom.R(2.5, 2.5, 5.5, 5.5)) {
		t.Error("deep-interior rect not covered")
	}
	// Level 0: a single tile equal to the MBR can never be interior for a
	// non-rectangular polygon.
	f0 := NewInterior(q, 0)
	if f0.count != 0 {
		t.Errorf("level 0 interior tiles = %d, want 0", f0.count)
	}
}

// TestInteriorSoundness is the filter's contract: whenever CoversRect says
// yes, every object inside that rect truly intersects (is contained in)
// the query polygon.
func TestInteriorSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := range 60 {
		q := star(rng, 0, 0, 10, 5+rng.Intn(40))
		for _, level := range []int{1, 2, 3, 4} {
			f := NewInterior(q, level)
			for range 200 {
				x, y := rng.Float64()*24-12, rng.Float64()*24-12
				r := geom.R(x, y, x+rng.Float64()*6, y+rng.Float64()*6)
				if !f.CoversRect(r) {
					continue
				}
				// The whole rect must be inside q: its corners and a few
				// sample points must all be contained.
				for _, c := range r.Corners() {
					if !q.ContainsPoint(c) {
						t.Fatalf("trial %d level %d: covered rect %v has corner %v outside query",
							trial, level, r, c)
					}
				}
				// And no boundary edge may cross the rect.
				for i := range q.NumEdges() {
					e := q.Edge(i)
					if r.IntersectsSegment(e) {
						t.Fatalf("trial %d level %d: covered rect %v crossed by edge %v",
							trial, level, r, e)
					}
				}
			}
		}
	}
}

// TestInteriorMoreTilesMoreCoverage: higher tiling levels only improve the
// filter (monotone positive identification on fully-inside rects).
func TestInteriorEffectivenessGrowsWithLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	q := star(rng, 0, 0, 10, 60)
	hits := make([]int, 5)
	var rects []geom.Rect
	for range 500 {
		x, y := rng.Float64()*16-8, rng.Float64()*16-8
		rects = append(rects, geom.R(x, y, x+rng.Float64()*2, y+rng.Float64()*2))
	}
	for level := range 5 {
		f := NewInterior(q, level)
		for _, r := range rects {
			if f.CoversRect(r) {
				hits[level]++
			}
		}
	}
	if hits[4] == 0 {
		t.Fatal("level 4 interior filter identified nothing; generator or filter broken")
	}
	if hits[4] < hits[1] {
		t.Errorf("coverage went down with level: %v", hits)
	}
}

func TestUpperBound0IsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := range 500 {
		p := star(rng, rng.Float64()*20, rng.Float64()*20, 0.5+rng.Float64()*3, 3+rng.Intn(20))
		q := star(rng, rng.Float64()*20, rng.Float64()*20, 0.5+rng.Float64()*3, 3+rng.Intn(20))
		trueDist := dist.MinDistBrute(p, q)
		ub := UpperBound0(p.Bounds(), q.Bounds())
		if trueDist > ub+1e-9 {
			t.Fatalf("trial %d: 0-object bound %v below true distance %v", trial, ub, trueDist)
		}
	}
}

func TestUpperBound1IsUpperBoundAndTighter(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	tighterCount := 0
	for trial := range 500 {
		p := star(rng, rng.Float64()*20, rng.Float64()*20, 0.5+rng.Float64()*3, 3+rng.Intn(20))
		q := star(rng, rng.Float64()*20, rng.Float64()*20, 0.5+rng.Float64()*3, 3+rng.Intn(20))
		trueDist := dist.MinDistBrute(p, q)
		ub0 := UpperBound0(p.Bounds(), q.Bounds())
		ub1 := UpperBound1(p, q.Bounds())
		if trueDist > ub1+1e-9 {
			t.Fatalf("trial %d: 1-object bound %v below true distance %v", trial, ub1, trueDist)
		}
		if ub1 <= ub0+1e-9 {
			tighterCount++
		}
	}
	// The 1-object bound uses strictly more information; it should be at
	// least as tight as the 0-object bound in the typical case.
	if tighterCount < 350 {
		t.Errorf("1-object bound tighter in only %d/500 cases", tighterCount)
	}
}

func TestUpperBoundsVsIntersection(t *testing.T) {
	// For intersecting polygons (distance 0), the bounds must be >= 0 and
	// positives identified by ub <= D must be true within-distance pairs.
	rng := rand.New(rand.NewSource(65))
	for range 300 {
		p := star(rng, 0, 0, 3, 10)
		q := star(rng, rng.Float64()*4, 0, 3, 10)
		d := rng.Float64() * 5
		ub0 := UpperBound0(p.Bounds(), q.Bounds())
		if ub0 <= d {
			if !dist.WithinDistance(p, q, d, dist.Options{}) {
				t.Fatalf("0-object positive is false: ub=%v d=%v true=%v",
					ub0, d, dist.MinDistBrute(p, q))
			}
		}
	}
}

func TestInteriorDegenerate(t *testing.T) {
	// A polygon with a degenerate (zero-height) MBR must not crash.
	q := geom.MustPolygon(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(2, 0.000001))
	f := NewInterior(q, 2)
	if f.CoversRect(geom.R(1, 0, 2, 0.0000005)) {
		// Any result is acceptable as long as it is sound; verify corners.
		if !q.ContainsPoint(geom.Pt(1, 0)) {
			t.Error("unsound coverage on degenerate polygon")
		}
	}
}
