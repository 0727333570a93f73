package rtree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickSearchMatchesLinear drives the bulk-loaded R-tree against a
// linear scan with property-based inputs: any seed and size yield
// identical result sets.
func TestQuickSearchMatchesLinear(t *testing.T) {
	prop := func(seed int64, sizeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(sizeRaw)%200
		es := randEntries(rng, n, 50, 5)
		tr := NewBulk(es)
		if tr.Validate() != nil {
			return false
		}
		for range 10 {
			q := randRect(rng, 50, 15)
			if !equalInts(collectSearch(tr, q), linearSearch(es, q)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickJoinSymmetric: the MBR join is symmetric up to pair order.
func TestQuickJoinSymmetric(t *testing.T) {
	prop := func(seed int64, dRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := float64(dRaw) / 16
		ea := randEntries(rng, 60, 30, 4)
		eb := randEntries(rng, 60, 30, 4)
		ta, tb := NewBulk(ea), NewBulk(eb)
		ab := joinPairs(ta, tb, d)
		ba := joinPairs(tb, ta, d)
		if len(ab) != len(ba) {
			return false
		}
		seen := map[[2]int]bool{}
		for _, pr := range ab {
			seen[[2]int{pr[0], pr[1]}] = true
		}
		for _, pr := range ba {
			if !seen[[2]int{pr[1], pr[0]}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
