package interval

import (
	"fmt"

	"repro/internal/edgeindex"
	"repro/internal/geom"
	"repro/internal/parallel"
)

// Column is a whole layer's interval approximation on one Grid: each
// object's Spans concatenated into a flat word array with prefix
// offsets, the shape the snapshot format persists and the mmap reader
// aliases zero-copy. Immutable after construction; safe for concurrent
// readers.
type Column struct {
	Grid Grid
	off  []uint32
	data []uint64
}

// Len returns the number of objects in the column.
func (c *Column) Len() int {
	if c == nil {
		return 0
	}
	return len(c.off) - 1
}

// Spans returns object id's span list (a view, possibly empty for
// objects too large to approximate). Nil receiver returns nil.
func (c *Column) Spans(id int) Spans {
	if c == nil {
		return nil
	}
	return Spans(c.data[c.off[id]:c.off[id+1]:c.off[id+1]])
}

// Data returns the concatenated packed span words. The slice must be
// treated as read-only.
func (c *Column) Data() []uint64 { return c.data }

// Build rasterizes every object onto g. Objects that cannot be
// approximated (see Rasterize) get empty span lists and stay
// inconclusive at pair-test time. The objects are split into contiguous
// chunks rasterized on runtime.GOMAXPROCS(0) workers, each building every
// object's edge index into storage it reuses, and the chunks' lists are
// joined in object order: the column is the same at any worker count.
func Build(objs []*geom.Polygon, g Grid) *Column {
	return build(len(objs), g, func(id int, scratch *edgeindex.Index) *edgeindex.Index {
		if objs[id] == nil {
			return nil
		}
		scratch.Build(objs[id])
		return scratch
	})
}

// BuildIndexed is Build over n objects whose edge indexes index returns,
// for a caller that holds them already. index is called from several
// goroutines at once.
func BuildIndexed(n int, index func(id int) *edgeindex.Index, g Grid) *Column {
	return build(n, g, func(id int, _ *edgeindex.Index) *edgeindex.Index { return index(id) })
}

// build rasterizes objects 0..n-1 onto g in parallel; index returns
// object id's edge index, possibly built into the worker's scratch.
func build(n int, g Grid, index func(id int, scratch *edgeindex.Index) *edgeindex.Index) *Column {
	type worker struct {
		r  Rasterizer
		ix edgeindex.Index
	}
	return gather(n, g, func() *worker { return new(worker) }, func(w *worker, dst Spans, id int) Spans {
		return w.r.Append(dst, index(id, &w.ix), g)
	})
}

// gather builds the column on g of objects 0..n-1 whose lists add
// appends: the objects are split into contiguous chunks run on
// runtime.GOMAXPROCS(0) workers, each with its own scratch from
// newWorker, and the chunks' lists are joined in object order, so the
// column is the same at any worker count.
func gather[W any](n int, g Grid, newWorker func() *W, add func(w *W, dst Spans, id int) Spans) *Column {
	type chunk struct {
		counts []uint32
		data   Spans
	}
	chunks := parallel.Chunks(n, newWorker, func(w *W, lo, hi int) chunk {
		c := chunk{counts: make([]uint32, hi-lo)}
		for id := lo; id < hi; id++ {
			before := len(c.data)
			c.data = add(w, c.data, id)
			c.counts[id-lo] = uint32(len(c.data) - before)
		}
		return c
	})
	total := 0
	for _, c := range chunks {
		total += len(c.data)
	}
	off := make([]uint32, 1, n+1)
	data := make([]uint64, 0, total)
	for _, c := range chunks {
		for _, k := range c.counts {
			off = append(off, off[len(off)-1]+k)
		}
		data = append(data, c.data...)
	}
	return &Column{Grid: g, off: off, data: data}
}

// FromParts assembles a column from persisted pieces — the grid, one
// span count per object, and the concatenated packed words — validating
// the counts against the data and every span list's invariants. Errors
// are plain (the snapshot reader wraps them into *FormatError); no
// allocation is sized from unvalidated input beyond the counts slice the
// caller already bounded.
func FromParts(g Grid, counts []uint32, data []uint64) (*Column, error) {
	if !g.Valid() {
		return nil, fmt.Errorf("invalid grid (order %d, size %v)", g.Order, g.Size)
	}
	off := make([]uint32, len(counts)+1)
	var total uint64
	for i, n := range counts {
		total += uint64(n)
		if total > uint64(len(data)) {
			return nil, fmt.Errorf("span counts overflow the data at object %d (%d words available)", i, len(data))
		}
		off[i+1] = uint32(total)
	}
	if total != uint64(len(data)) {
		return nil, fmt.Errorf("span counts sum to %d words, data has %d", total, len(data))
	}
	c := &Column{Grid: g, off: off, data: data}
	for i := range counts {
		if err := c.Spans(i).Validate(g.Order); err != nil {
			return nil, fmt.Errorf("object %d: %w", i, err)
		}
	}
	return c, nil
}
