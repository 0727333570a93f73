package dist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickWithinDistanceIsThreshold: property over seeds — the optimized
// within-distance test is exactly the brute-force distance thresholded at
// d.
func TestQuickWithinDistanceIsThreshold(t *testing.T) {
	prop := func(seed int64, dRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		p := star(rng, rng.Float64()*20, rng.Float64()*20, 0.5+rng.Float64()*3, 3+rng.Intn(20))
		q := star(rng, rng.Float64()*20, rng.Float64()*20, 0.5+rng.Float64()*3, 3+rng.Intn(20))
		d := float64(dRaw) / 4096 * 15
		return WithinDistance(p, q, d, Options{}) == (MinDistBrute(p, q) <= d)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickMinDistSymmetry: region distance is symmetric, bit for bit.
func TestQuickMinDistSymmetry(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := star(rng, 0, 0, 1+rng.Float64()*3, 3+rng.Intn(15))
		q := star(rng, rng.Float64()*10, rng.Float64()*10, 1+rng.Float64()*3, 3+rng.Intn(15))
		return MinDist(p, q) == MinDist(q, p)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
