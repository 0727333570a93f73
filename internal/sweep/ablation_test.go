package sweep

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// ablation workload: a batch of polygon pairs resembling the refinement
// step's candidates — overlapping MBRs, a mix of intersecting and
// near-miss pairs.
func ablationPairs(n int) [][2]*geom.Polygon {
	rng := rand.New(rand.NewSource(111))
	pairs := make([][2]*geom.Polygon, n)
	for i := range pairs {
		verts := 20 + rng.Intn(400)
		p := ablationStar(rng, 0, 0, 2, verts)
		q := ablationStar(rng, rng.Float64()*3, rng.Float64(), 2, verts)
		pairs[i] = [2]*geom.Polygon{p, q}
	}
	return pairs
}

func ablationStar(rng *rand.Rand, cx, cy, rMax float64, n int) *geom.Polygon {
	step := 2 * math.Pi / float64(n)
	pts := make([]geom.Point, n)
	for i := range pts {
		a := float64(i)*step + rng.Float64()*step*0.9
		r := rMax * (0.2 + 0.8*rng.Float64())
		pts[i] = geom.Pt(cx+r*math.Cos(a), cy+r*math.Sin(a))
	}
	return geom.MustPolygon(pts...)
}

// BenchmarkSegmentAlgorithms compares the plane sweep with the all-pairs
// scan on the same candidate edge sets (the trade core.DefaultCrossCutoff
// rests on).
func BenchmarkSegmentAlgorithms(b *testing.B) {
	pairs := ablationPairs(64)
	type sets struct{ red, blue []geom.Segment }
	var inputs []sets
	for _, pr := range pairs {
		red, blue := CandidateEdgesInto(pr[0], pr[1], nil, nil)
		if len(red) > 0 && len(blue) > 0 {
			inputs = append(inputs, sets{red, blue})
		}
	}
	b.Run("planesweep", func(b *testing.B) {
		sw := new(Sweeper)
		for range b.N {
			for _, in := range inputs {
				sw.CrossIntersects(in.red, in.blue)
			}
		}
	})
	b.Run("planesweep-fresh-alloc", func(b *testing.B) {
		for range b.N {
			for _, in := range inputs {
				CrossIntersects(in.red, in.blue)
			}
		}
	})
	b.Run("bruteforce", func(b *testing.B) {
		for range b.N {
			for _, in := range inputs {
				CrossIntersectsBrute(in.red, in.blue)
			}
		}
	})
}
