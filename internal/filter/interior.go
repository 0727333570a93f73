// Package filter implements the runtime intermediate filters the paper
// evaluates between MBR filtering and geometry comparison:
//
//   - the interior filter for intersection selections, which tiles the
//     query polygon and identifies candidates whose MBR lies entirely
//     inside the query's interior tiles as positive results without a
//     geometry comparison (Figure 9(a)); and
//   - Chan's 0-Object and 1-Object filters for within-distance joins,
//     which compute distance upper bounds from MBRs alone (0-Object) or
//     from one actual geometry plus the other MBR (1-Object) and identify
//     pairs whose upper bound is at most D as positive results.
//
// All three filters are sound: they only ever classify true positives.
// Negatives always proceed to the geometry comparison step.
package filter

import (
	"math"

	"repro/internal/geom"
)

// Interior is the interior filter for one query polygon: a 2^l × 2^l grid
// over the query MBR whose cells are flagged when the whole closed cell
// lies inside the polygon. An integral image over the flags answers
// "is this rectangle covered by interior tiles" in constant time.
type Interior struct {
	query  *geom.Polygon
	bounds geom.Rect
	n      int     // tiles per side
	tw, th float64 // tile size in data units
	// prefix[y*(n+1)+x] is the count of interior tiles in [0,x)×[0,y).
	prefix []int32
	count  int // number of interior tiles
}

// NewInterior builds the interior filter for query at tiling level l
// (level 0 = a single tile, level 4 = 16×16 tiles, as in the paper's
// Figure 10 sweep). The construction cost is the filter's overhead, which
// queries amortize over all candidate objects.
func NewInterior(query *geom.Polygon, level int) *Interior {
	if level < 0 {
		level = 0
	}
	n := 1 << level
	b := query.Bounds()
	f := &Interior{
		query:  query,
		bounds: b,
		n:      n,
		tw:     b.Width() / float64(n),
		th:     b.Height() / float64(n),
		prefix: make([]int32, (n+1)*(n+1)),
	}

	// Mark boundary tiles: a tile is disqualified only when a polygon edge
	// passes through its *open* interior. An edge running exactly along a
	// tile border leaves both tiles eligible — their closed squares still
	// lie inside the closed polygon, matching the paper's tile semantics.
	touched := make([]bool, n*n)
	for i := range query.NumEdges() {
		f.markOpenTiles(query.Edge(i), touched)
	}

	// Untouched tiles lie entirely on one side of the boundary; classify
	// each by its center with one crossing scan per tile row, and fold the
	// row into the integral image for O(1) coverage queries.
	xs := make([]float64, 0, query.NumEdges())
	for ty := range n {
		yc := b.MinY + (float64(ty)+0.5)*f.th
		xs = crossings(query, yc, xs[:0])
		var row int32
		for tx := range n {
			if !touched[ty*n+tx] && oddCrossingsRight(xs, b.MinX+(float64(tx)+0.5)*f.tw) {
				row++
				f.count++
			}
			f.prefix[(ty+1)*(n+1)+tx+1] = f.prefix[ty*(n+1)+tx+1] + row
		}
	}
	return f
}

// markOpenTiles sets touched for every tile whose open interior the edge e
// passes through. The edge is clipped to each candidate tile; when the
// clipped span's midpoint lies strictly inside the tile the edge crosses
// the open interior (by convexity the whole clipped interior does), while
// spans lying on the tile border leave the tile eligible.
func (f *Interior) markOpenTiles(e geom.Segment, touched []bool) {
	tx0 := f.tileIndexX(math.Min(e.A.X, e.B.X))
	tx1 := f.tileIndexX(math.Max(e.A.X, e.B.X))
	ty0 := f.tileIndexY(math.Min(e.A.Y, e.B.Y))
	ty1 := f.tileIndexY(math.Max(e.A.Y, e.B.Y))
	for ty := ty0; ty <= ty1; ty++ {
		y0 := f.bounds.MinY + float64(ty)*f.th
		for tx := tx0; tx <= tx1; tx++ {
			if touched[ty*f.n+tx] {
				continue
			}
			x0 := f.bounds.MinX + float64(tx)*f.tw
			if segmentCrossesOpenBox(e, x0, y0, x0+f.tw, y0+f.th) {
				touched[ty*f.n+tx] = true
			}
		}
	}
}

// segmentCrossesOpenBox reports whether segment e has a point strictly
// inside the open box (x0,y0)-(x1,y1).
func segmentCrossesOpenBox(e geom.Segment, x0, y0, x1, y1 float64) bool {
	// Liang–Barsky clip of e against the closed box.
	t0, t1 := 0.0, 1.0
	dx, dy := e.B.X-e.A.X, e.B.Y-e.A.Y
	clip := func(p, q float64) bool {
		if p == 0 {
			return q >= 0
		}
		t := q / p
		if p < 0 {
			if t > t1 {
				return false
			}
			if t > t0 {
				t0 = t
			}
		} else {
			if t < t0 {
				return false
			}
			if t < t1 {
				t1 = t
			}
		}
		return true
	}
	if !clip(-dx, e.A.X-x0) || !clip(dx, x1-e.A.X) ||
		!clip(-dy, e.A.Y-y0) || !clip(dy, y1-e.A.Y) {
		return false
	}
	if t0 > t1 {
		return false
	}
	tm := (t0 + t1) / 2
	mx, my := e.A.X+tm*dx, e.A.Y+tm*dy
	return x0 < mx && mx < x1 && y0 < my && my < y1
}

// crossings appends the x coordinates where the polygon boundary crosses
// the horizontal line y=yc, using the half-open vertex rule.
func crossings(p *geom.Polygon, yc float64, xs []float64) []float64 {
	n := p.NumVerts()
	for i := range n {
		a, b := p.Verts[i], p.Verts[(i+1)%n]
		if (a.Y > yc) != (b.Y > yc) {
			xs = append(xs, a.X+(yc-a.Y)*(b.X-a.X)/(b.Y-a.Y))
		}
	}
	return xs
}

// oddCrossingsRight reports whether an odd number of crossings lie to the
// right of xc, i.e. the point is interior by the even-odd rule.
func oddCrossingsRight(xs []float64, xc float64) bool {
	odd := false
	for _, x := range xs {
		if x > xc {
			odd = !odd
		}
	}
	return odd
}

// rangeCount returns the number of interior tiles in the inclusive tile
// range [tx0..tx1]×[ty0..ty1].
func (f *Interior) rangeCount(tx0, ty0, tx1, ty1 int) int32 {
	n1 := f.n + 1
	return f.prefix[(ty1+1)*n1+tx1+1] - f.prefix[ty0*n1+tx1+1] -
		f.prefix[(ty1+1)*n1+tx0] + f.prefix[ty0*n1+tx0]
}

// CoversRect reports whether r is completely covered by interior tiles, in
// which case any object bounded by r is inside the query polygon and the
// pair is a positive result with no geometry comparison (paper §4.1.1).
func (f *Interior) CoversRect(r geom.Rect) bool {
	if f.count == 0 || !f.bounds.ContainsRect(r) {
		return false
	}
	tx0 := f.tileIndexX(r.MinX)
	tx1 := f.tileIndexX(r.MaxX)
	ty0 := f.tileIndexY(r.MinY)
	ty1 := f.tileIndexY(r.MaxY)
	want := int32(tx1-tx0+1) * int32(ty1-ty0+1)
	return f.rangeCount(tx0, ty0, tx1, ty1) == want
}

func (f *Interior) tileIndexX(x float64) int {
	if f.tw <= 0 {
		return 0
	}
	i := int((x - f.bounds.MinX) / f.tw)
	return clamp(i, 0, f.n-1)
}

func (f *Interior) tileIndexY(y float64) int {
	if f.th <= 0 {
		return 0
	}
	i := int((y - f.bounds.MinY) / f.th)
	return clamp(i, 0, f.n-1)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
