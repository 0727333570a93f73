// Package raster is the simulated graphics hardware: a deterministic
// software implementation of the OpenGL 1.x rendering behaviour that the
// paper's hardware-assisted algorithms rely on. It provides a window of
// two bit planes, a data-space-to-window viewport transform, conservative
// anti-aliased line rasterization with widened lines and round end caps
// for distance tests, and the overlap search between the two planes.
//
// # Substitution note
//
// The paper ran on an NVIDIA GeForce4 with OpenGL. What its algorithms
// actually require from that hardware is a small set of spec-guaranteed
// rasterization properties (paper §2.2):
//
//   - anti-aliased line segments color every pixel whose area overlaps the
//     segment's width-w bounding region (with blending disabled the full
//     line color is written, so coverage is what matters, not intensity);
//   - widened lines and points implement boundary expansion for distance
//     tests;
//   - the accumulation buffer adds images so that two half-intensity
//     renderings reach full intensity exactly on overlapping pixels;
//   - the Minmax query inspects the buffer without an expensive readback.
//
// The first two are implemented exactly, with one documented deviation:
// wide lines are rendered as capsules (round caps) rather than
// flat-capped rectangles plus separate widened endpoints. The capsule is
// the union of the paper's rectangle and its endpoint squares' inscribed
// disks, is still a superset of the segment, and directly realizes the
// "boundary expanded by D/2" geometry the distance test needs, so every
// conservativeness guarantee carries over.
//
// The last two are one word operation here. Algorithm 3.1 renders each
// boundary at half intensity, adds the two images and asks Minmax whether
// any pixel reached full intensity; since a rendered pixel holds either
// zero or the line color, "full intensity" is exactly "covered in both
// renderings". A rendering is therefore one bit per pixel (a Plane), and
// the accumulate-then-Minmax search is the AND of two planes being
// nonzero — the same verdict on every input, with no intensities, no
// buffer copies and no readback to simulate. The window is at most
// MaxResolution pixels a side, so a row of pixels is one machine word.
package raster

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/geom"
)

// MaxLineWidth is the widest anti-aliased line the simulated hardware
// rasterizes, in pixels. The paper's GeForce4 capped anti-aliased line
// width at 10 px, which is what forces the software fallback for large
// query distances (paper §4.4); we reproduce the same limit.
const MaxLineWidth = 10.0

// lineWidth is the anti-aliased line width DrawSegment renders at, in
// pixels: √2, the pixel diagonal (paper §2.2.2), the OpenGL default for
// the paper's algorithms. Distance tests pass their own width per
// primitive (DrawSegmentWidth, SegmentTouches).
const lineWidth = math.Sqrt2

// MaxResolution is the largest window width and height, in pixels: a
// plane keeps one row per uint64. The paper sweeps windows of 1 to 32
// pixels a side and settles on 8.
const MaxResolution = 64

// Plane is one rendering of the window, one bit per pixel: bit x of
// element y is pixel (x, y). Following the OpenGL convention, a pixel at
// integer coordinates (x, y) owns the unit square [x, x+1]×[y, y+1] and
// its center is at (x+0.5, y+0.5).
type Plane [MaxResolution]uint64

// At reports whether pixel (x, y) is covered.
func (p *Plane) At(x, y int) bool { return p[y]>>uint(x)&1 != 0 }

// Count returns the number of covered pixels.
func (p *Plane) Count() int {
	n := 0
	for _, row := range p {
		n += bits.OnesCount64(row)
	}
	return n
}

// Overlaps reports whether some pixel is covered in both p and q: the
// buffer search of Algorithm 3.1 (see the package's substitution note).
func (p *Plane) Overlaps(q *Plane) bool {
	for y, row := range p {
		if row&q[y] != 0 {
			return true
		}
	}
	return false
}

// Context is a rendering context: the simulated graphics card's state
// (line width, viewport projection) plus its two planes, one per polygon
// boundary of a pair test. Draw calls name the plane they render into. A
// Context is reusable across many renders; Clear and SetViewport reset it
// between tests without reallocating, which mirrors how the paper's
// implementation reuses one small rendering window for millions of pair
// tests.
//
// Context is not safe for concurrent use; give each worker its own, as one
// would with a GL context.
type Context struct {
	A, B Plane

	w, h int

	// Viewport transform: window = (data - offset) * scale, per axis.
	sx, sy, ox, oy float64

	// Hook, when non-nil, is called with a site name ("raster.draw") once
	// per rasterized primitive — stored or tested against a plane — before
	// any plane is touched. It exists for fault injection
	// (internal/faultinject installs it via core.Config.Faults) and may
	// panic or stall; the render path makes no attempt to recover —
	// isolation is the caller's job.
	Hook func(site string)
}

// NewContext creates a context with a w×h window and a unit viewport. It
// panics when w or h is outside 1..MaxResolution; callers taking a
// resolution from outside the program validate it first.
func NewContext(w, h int) *Context {
	if w < 1 || h < 1 || w > MaxResolution || h > MaxResolution {
		panic(fmt.Sprintf("raster: window %dx%d outside 1..%d", w, h, MaxResolution))
	}
	c := &Context{w: w, h: h}
	c.SetViewport(geom.R(0, 0, float64(w), float64(h)))
	return c
}

// Width returns the window width in pixels.
func (c *Context) Width() int { return c.w }

// SetViewport maps the data-space rectangle r onto the full window,
// scaling each axis independently to maximize resolution utilization
// (paper §3.2). Degenerate extents are widened to keep the transform
// finite.
func (c *Context) SetViewport(r geom.Rect) {
	w, h := r.Width(), r.Height()
	if w <= 0 {
		w = math.SmallestNonzeroFloat32
	}
	if h <= 0 {
		h = math.SmallestNonzeroFloat32
	}
	c.sx = float64(c.w) / w
	c.sy = float64(c.h) / h
	c.ox, c.oy = r.MinX, r.MinY
}

// SetViewportUniform maps r onto the window with a single scale factor on
// both axes (fitting the larger extent), as the distance test requires:
// widened lines realize a data-space disk of radius D/2, which must stay a
// disk after projection.
func (c *Context) SetViewportUniform(r geom.Rect) float64 {
	w, h := r.Width(), r.Height()
	ext := math.Max(w, h)
	if ext <= 0 {
		ext = math.SmallestNonzeroFloat32
	}
	s := float64(min(c.w, c.h)) / ext
	c.sx, c.sy = s, s
	c.ox, c.oy = r.MinX, r.MinY
	return s
}

// Project transforms a data-space point to window coordinates.
func (c *Context) Project(p geom.Point) geom.Point {
	return geom.Pt((p.X-c.ox)*c.sx, (p.Y-c.oy)*c.sy)
}

// Clear zeroes both planes.
func (c *Context) Clear() {
	clear(c.A[:c.h])
	clear(c.B[:c.h])
}
