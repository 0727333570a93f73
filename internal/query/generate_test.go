package query

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// Candidate generation against its reference, and the executor's
// concurrent failure paths (TestExecutorConcurrency, which scripts/check.sh
// repeats under -race).

// treeJoin is the reference candidate list: the synchronized R-tree
// traversal's pairs, sorted by (A, B).
func treeJoin(a, b *Layer, d float64) []Pair {
	var want []Pair
	rtree.JoinWithin(a.Index, b.Index, d, func(ea, eb rtree.Entry) bool {
		want = append(want, Pair{ea.ID, eb.ID})
		return true
	})
	sortPairsByOuter(want)
	return want
}

func rectLayer(name string, rects []geom.Rect) *Layer {
	objs := make([]*geom.Polygon, len(rects))
	for i, r := range rects {
		c := r.Corners()
		objs[i] = geom.MustPolygon(c[:]...)
	}
	return NewLayer(&data.Dataset{Name: name, Objects: objs})
}

func randomRects(seed int64, n int) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	rects := make([]geom.Rect, n)
	for i := range rects {
		x, y := rng.Float64()*100, rng.Float64()*100
		rects[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + 0.5 + rng.Float64()*8, MaxY: y + 0.5 + rng.Float64()*8}
	}
	return rects
}

// checkerboard returns the cells of a 6×6 board of side-0.1 squares whose
// column+row parity is odd or even. Cells of opposite parity share an
// edge, cells of equal parity a corner: MBRs that touch and never overlap.
func checkerboard(parity int) []geom.Rect {
	var rects []geom.Rect
	for i := range 6 {
		for j := range 6 {
			if (i+j)%2 == parity {
				x, y := float64(i)*0.1, float64(j)*0.1
				rects = append(rects, geom.Rect{MinX: x, MinY: y, MaxX: float64(i+1) * 0.1, MaxY: float64(j+1) * 0.1})
			}
		}
	}
	return rects
}

// TestGenerateMatchesTreeJoin: the task-parallel index-nested-loop yields
// the synchronized traversal's candidate list in (A, B) order, element for
// element, at every pool size. The intersects probe decides with
// Rect.Intersects and the reference with DistSq ≤ 0; the checkerboards pin
// that the two agree on MBRs touching along an edge or at a corner.
func TestGenerateMatchesTreeJoin(t *testing.T) {
	layers := []*Layer{
		rectLayer("empty", nil),
		rectLayer("one", randomRects(1, 1)),
		rectLayer("below-one-task", randomRects(2, genMinRun-3)),
		rectLayer("tasks", randomRects(3, 40)),
		rectLayer("many-tasks", randomRects(4, 300)),
		rectLayer("black", checkerboard(0)),
		rectLayer("white", checkerboard(1)),
		matrixB,
	}
	for _, c := range matrixViews(t)["live"].components() { // base with tombstones, delta
		layers = append(layers, c.layer)
	}
	kinds := []joinKind{intersects, withinDistance(0), withinDistance(0.5), withinDistance(5)}
	touching := 0
	for _, a := range layers {
		for _, b := range layers {
			for _, k := range kinds {
				want := treeJoin(a, b, k.d)
				for _, workers := range []int{1, 2, 8} {
					name := fmt.Sprintf("%s x %s %s d=%g workers=%d", a.Data.Name, b.Data.Name, k.op, k.d, workers)
					got, seen, err := generate(bg, a.Data.Objects, b, k, workers, 0)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if seen != len(want) {
						t.Errorf("%s: %d candidates seen, want %d", name, seen, len(want))
					}
					samePairs(t, name, got, want)
				}
				if a.Data.Name == "black" && b.Data.Name == "white" && k.d == 0 {
					touching = len(want)
				}
			}
		}
	}
	// Every inner edge of the board joins a black cell to a white one.
	if touching != 2*6*5 {
		t.Errorf("black x white at d=0: %d edge-touching pairs, want 60", touching)
	}
}

// crowd is 3000 small rectangles, and cover one rectangle over all of
// them: cover's one probe of crowd's R-tree visits 3000 entries, so a
// context looked at every 1024 visits is looked at mid-probe.
var (
	crowd = rectLayer("crowd", randomRects(5, 3000))
	cover = rectLayer("cover", []geom.Rect{{MinX: -1, MinY: -1, MaxX: 120, MaxY: 120}})
)

// countdownCtx is a context that ends at its n-th Err call: generation
// looks at its context once per task and every 1024 index visits, so the
// query it is handed is cancelled at a known point, with no timing
// involved.
type countdownCtx struct {
	context.Context
	left atomic.Int64
	once sync.Once
	done chan struct{}
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: bg, done: make(chan struct{})}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) >= 0 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// TestExecutorConcurrency drives the executor down each of its failure
// paths, pooled for joins and inline for selections: every one returns
// its typed error, the call returning is the wait for the pool (no
// goroutine is left), and a query stopped during generation — by its
// context or its budget — has built or run no tester.
func TestExecutorConcurrency(t *testing.T) {
	total := len(treeJoin(layerA, layerB, 0))
	if tasks := (len(layerA.Data.Objects) + genMinRun - 1) / genMinRun; tasks < 3 {
		t.Fatalf("layerA makes %d generation tasks; the cases need at least 3", tasks)
	}
	pooled := func(ctx context.Context, opt JoinOptions) (testers int32, err error) {
		t.Helper()
		var made atomic.Int32
		opt.Workers, opt.BatchSize = 4, 4
		opt.Tester = func() *core.Tester {
			made.Add(1)
			return core.NewTester(core.Config{DisableHardware: true})
		}
		before := runtime.NumGoroutine()
		pairs, _, _, err := joinViews(ctx, layerA.View(), layerB.View(), intersects, nil, opt)
		checkNoGoroutineLeak(t, before)
		if _, budget := err.(*BudgetError); budget && pairs != nil {
			t.Errorf("budget trip returned %d pairs", len(pairs))
		}
		return made.Load(), err
	}

	t.Run("cancelled during generation", func(t *testing.T) {
		testers, err := pooled(newCountdownCtx(2), JoinOptions{})
		var pe *PartialError
		if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) || pe.Done != 0 {
			t.Errorf("err = %v, want a *PartialError with nothing done wrapping Canceled", err)
		}
		if testers != 0 {
			t.Errorf("%d testers built by a join cancelled at its third generation task", testers)
		}
	})

	t.Run("cancelled mid-refine", func(t *testing.T) {
		candidates := make([]Pair, 96) // twelve whole batches
		for i := range candidates {
			candidates[i] = Pair{i, i}
		}
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		p := predicate{
			op:     "test",
			filter: func(*core.Tester, Pair) core.Verdict { return core.VerdictUndecided },
			refine: func(_ *core.Tester, pr Pair) bool {
				if pr.A == 50 {
					cancel()
				}
				return true
			},
		}
		before := runtime.NumGoroutine()
		got, _, _, err := runStages(ctx, candidates, p, nil, JoinOptions{Workers: 3, BatchSize: 8}, Cost{})
		checkNoGoroutineLeak(t, before)
		var pe *PartialError
		if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want a *PartialError wrapping Canceled", err)
		}
		// The batch holding pair 50 is dropped whole; what was emitted is
		// whole batches, every pair of them kept.
		if pe.Done >= pe.Total || pe.Done%8 != 0 || len(got) != pe.Done {
			t.Errorf("progress %d/%d with %d pairs, want whole batches short of the total", pe.Done, pe.Total, len(got))
		}
	})

	t.Run("budget trips in a late task", func(t *testing.T) {
		testers, err := pooled(bg, JoinOptions{MaxCandidates: total - 1})
		var be *BudgetError
		if !errors.As(err, &be) || be.Budget != total-1 || be.Candidates != total {
			t.Errorf("err = %v (%+v), want a *BudgetError at %d of budget %d", err, be, total, total-1)
		}
		if testers != 0 {
			t.Errorf("%d testers built by a budget-tripped join", testers)
		}
		if _, err := pooled(bg, JoinOptions{MaxCandidates: total}); err != nil {
			t.Errorf("budget equal to the candidate count: %v", err)
		}
	})

	t.Run("sink fails on the first batch", func(t *testing.T) {
		boom := errors.New("client went away")
		_, err := pooled(bg, JoinOptions{Sink: func([]Pair) error { return boom }})
		var pe *PartialError
		if !errors.As(err, &pe) || !errors.Is(err, boom) || pe.Total != total {
			t.Errorf("err = %v, want a *PartialError of %d candidates carrying the sink's error", err, total)
		}
	})

	t.Run("cancelled mid-probe", func(t *testing.T) {
		// One generation task, one probe: the context ends at the probe's
		// 1024th visit, not after it.
		var made atomic.Int32
		opt := JoinOptions{Workers: 4, Tester: func() *core.Tester {
			made.Add(1)
			return core.NewTester(core.Config{DisableHardware: true})
		}}
		before := runtime.NumGoroutine()
		_, _, _, err := joinViews(newCountdownCtx(1), cover.View(), crowd.View(), intersects, nil, opt)
		checkNoGoroutineLeak(t, before)
		var pe *PartialError
		if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) || pe.Done != 0 {
			t.Errorf("join: err = %v, want a *PartialError with nothing done wrapping Canceled", err)
		}
		if n := made.Load(); n != 0 {
			t.Errorf("join: %d testers built by a join cancelled in its one probe", n)
		}
		sw := core.NewTester(core.Config{DisableHardware: true})
		_, _, err = IntersectionSelect(newCountdownCtx(1), crowd, cover.Data.Objects[0], sw, SelectionOptions{})
		if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) || pe.Done != 0 || sw.Stats.Tests != 0 {
			t.Errorf("select: err = %v after %d tests, want a *PartialError with nothing done wrapping Canceled",
				err, sw.Stats.Tests)
		}
	})

	// The selection's failure paths: its candidates are the probe of one
	// window, refined inline on the caller's tester.
	window := layerB.Data.Objects[0]
	selTotal := 0
	for _, p := range layerA.Data.Objects {
		if window.Bounds().Intersects(p.Bounds()) {
			selTotal++
		}
	}
	if selTotal < 2 {
		t.Fatalf("the window has %d candidates; the selection cases need at least 2", selTotal)
	}

	t.Run("selection budget trips", func(t *testing.T) {
		sw := core.NewTester(core.Config{DisableHardware: true})
		ids, _, err := IntersectionSelect(bg, layerA, window, sw, SelectionOptions{MaxCandidates: selTotal - 1})
		var be *BudgetError
		if !errors.As(err, &be) || be.Budget != selTotal-1 || be.Candidates != selTotal || len(ids) != 0 || sw.Stats.Tests != 0 {
			t.Errorf("err = %v with %d ids after %d tests, want a bare *BudgetError at %d of budget %d",
				err, len(ids), sw.Stats.Tests, selTotal, selTotal-1)
		}
		if _, _, err := IntersectionSelect(bg, layerA, window, sw, SelectionOptions{MaxCandidates: selTotal}); err != nil {
			t.Errorf("budget equal to the candidate count: %v", err)
		}
	})

	t.Run("selection sink fails on the first batch", func(t *testing.T) {
		boom := errors.New("client went away")
		sw := core.NewTester(core.Config{DisableHardware: true})
		_, _, err := IntersectionSelect(bg, layerA, window, sw, SelectionOptions{InteriorLevel: -1, BatchSize: 1,
			Sink: func([]int) error { return boom }})
		var pe *PartialError
		if !errors.As(err, &pe) || !errors.Is(err, boom) || pe.Total != selTotal {
			t.Errorf("err = %v, want a *PartialError of %d candidates carrying the sink's error", err, selTotal)
		}
	})
}
