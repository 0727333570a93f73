package core

import (
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/edgeindex"
	"repro/internal/geom"
	"repro/internal/raster"
	"repro/internal/rtree"
	"repro/internal/store"
)

// benchScale and benchD are the within_single workload's (bench/README.md):
// WATER and PRISM at scale 0.1, joined at D = 1.
const (
	benchScale = 0.1
	benchD     = 1.0
)

// benchLayer is one bench dataset saved as a snapshot and opened again, so
// its edge indexes and signatures are the persisted ones a served layer
// pairs with its objects.
type benchLayer struct {
	objs []*geom.Polygon
	tree *rtree.Tree
	idx  []*edgeindex.Index
	sigs []raster.Signature
}

func openBenchLayer(tb testing.TB, name string) benchLayer {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), name+".snap")
	if _, err := store.Save(path, data.MustLoad(name, benchScale), store.SaveOptions{}); err != nil {
		tb.Fatal(err)
	}
	s, err := store.Open(path, store.OpenOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	l := benchLayer{objs: s.Dataset().Objects, sigs: make([]raster.Signature, s.NumObjects())}
	if l.tree, err = s.Tree(); err != nil {
		tb.Fatal(err)
	}
	for id, p := range l.objs {
		ix, ok := edgeindex.FromFlatBoxes(p, s.EdgeBoxes(id))
		if !ok {
			tb.Fatalf("%s object %d: persisted edge boxes do not fit the polygon", name, id)
		}
		l.idx = append(l.idx, ix)
		l.sigs[id] = s.Signature(id)
	}
	return l
}

// benchPair is one WATER⋈PRISM candidate with the PairContext the join
// executor hands the tester for it.
type benchPair struct {
	p, q *geom.Polygon
	pc   PairContext
}

// benchPairs returns every WATER⋈PRISM candidate whose MBRs are within d,
// outer object by outer object and, within one, in ascending PRISM id.
func benchPairs(tb testing.TB, d float64) []benchPair {
	water, prism := openBenchLayer(tb, "WATER"), openBenchLayer(tb, "PRISM")
	var pairs []benchPair
	var ids []int
	for a, p := range water.objs {
		ids = ids[:0]
		prism.tree.SearchWithin(p.Bounds(), d, func(e rtree.Entry) bool {
			ids = append(ids, e.ID)
			return true
		})
		slices.Sort(ids)
		for _, b := range ids {
			pairs = append(pairs, benchPair{p, prism.objs[b], PairContext{
				PIndex: water.idx[a], QIndex: prism.idx[b], PSig: &water.sigs[a], QSig: &prism.sigs[b],
			}})
		}
	}
	return pairs
}

// withinFilterCounts is what one FilterWithin pass over the within_single
// candidates decides: how many pairs consulted both signatures, how many
// the signatures rejected, and how many containment resolved.
type withinFilterCounts struct {
	pairs, sigChecks, sigRejects, pipHits int
}

// withinFilterPass runs the software tester's FilterWithin over pairs and
// returns the counters that pass added.
func withinFilterPass(t *Tester, pairs []benchPair) withinFilterCounts {
	before := t.Stats
	for _, pr := range pairs {
		t.FilterWithin(pr.p, pr.q, benchD, pr.pc)
	}
	return withinFilterCounts{
		pairs:      len(pairs),
		sigChecks:  int(t.Stats.SigChecks - before.SigChecks),
		sigRejects: int(t.Stats.SigRejects - before.SigRejects),
		pipHits:    int(t.Stats.PIPHits - before.PIPHits),
	}
}

// TestWithinFilterBenchCounts pins what FilterWithin decides on the
// within_single candidates: a change to the signature kernel or the
// containment probe must leave every count where it is.
func TestWithinFilterBenchCounts(t *testing.T) {
	got := withinFilterPass(NewTester(Config{DisableHardware: true}), benchPairs(t, benchD))
	want := withinFilterCounts{pairs: 10686, sigChecks: 9554, sigRejects: 4321, pipHits: 1132}
	if got != want {
		t.Fatalf("FilterWithin over the bench pairs counted %+v, want %+v", got, want)
	}
}
