// Package data provides the evaluation datasets. The paper uses five real
// GIS layers (Wyoming land cover and ownership, US state boundaries,
// precipitation, and water bodies) whose only properties the experiments
// depend on are the statistics published in Table 2 — object counts and
// vertex-count distributions — plus the tessellated spatial layout typical
// of land-coverage data. Since the original shapefiles are not available
// offline, this package generates seeded synthetic datasets calibrated to
// those statistics: star-shaped polygon "blobs" with smoothly varying
// radii placed on a jittered grid over a shared domain, with per-object
// vertex counts drawn from a truncated Pareto distribution whose shape
// parameter is solved numerically so the mean matches Table 2.
//
// A scale factor shrinks object counts (the paper's full joins take hours
// of CPU) while preserving per-object complexity, which is what the
// refinement-step experiments measure.
package data

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// Dataset is a named collection of polygon objects.
type Dataset struct {
	Name    string
	Objects []*geom.Polygon
}

// Stats summarizes a dataset the way the paper's Table 2 does.
type Stats struct {
	N                         int
	MinVerts, MaxVerts        int
	AvgVerts                  float64
	AvgMBRWidth, AvgMBRHeight float64
	TotalVerts                int
}

// Stats computes the Table 2 statistics of d.
func (d *Dataset) Stats() Stats {
	s := Stats{N: len(d.Objects), MinVerts: math.MaxInt, MaxVerts: 0}
	if s.N == 0 {
		s.MinVerts = 0
		return s
	}
	var sumW, sumH float64
	for _, p := range d.Objects {
		v := p.NumVerts()
		s.TotalVerts += v
		if v < s.MinVerts {
			s.MinVerts = v
		}
		if v > s.MaxVerts {
			s.MaxVerts = v
		}
		b := p.Bounds()
		sumW += b.Width()
		sumH += b.Height()
	}
	s.AvgVerts = float64(s.TotalVerts) / float64(s.N)
	s.AvgMBRWidth = sumW / float64(s.N)
	s.AvgMBRHeight = sumH / float64(s.N)
	return s
}

// Bounds returns the MBR of all objects.
func (d *Dataset) Bounds() geom.Rect {
	b := geom.EmptyRect()
	for _, p := range d.Objects {
		b = b.Union(p.Bounds())
	}
	return b
}

// BaseD computes the paper's Equation 2 base distance for a within-distance
// join between a and b: the mean of the two datasets' average MBR sizes
// (geometric mean of width and height each).
func BaseD(a, b *Dataset) float64 {
	sa, sb := a.Stats(), b.Stats()
	return (math.Sqrt(sa.AvgMBRWidth*sa.AvgMBRHeight) + math.Sqrt(sb.AvgMBRWidth*sb.AvgMBRHeight)) / 2
}

// Spec describes a synthetic dataset to generate.
type Spec struct {
	Name      string
	N         int       // object count
	MinVerts  int       // Table 2 minimum vertices per polygon
	MaxVerts  int       // Table 2 maximum
	MeanVerts float64   // Table 2 average
	Domain    geom.Rect // data-space extent shared by joinable layers
	// CoverFactor sets blob radius relative to the jittered-grid cell
	// size: ~0.7 gives a loose tessellation with moderate neighbor
	// overlap, >1 gives heavily overlapping layers.
	CoverFactor float64
	// MaxAspect is the largest elongation of generated shapes (sampled per
	// object in [1, MaxAspect], then randomly rotated). Real GIS layers
	// are full of elongated features — rivers, precipitation bands,
	// riparian parcels — whose MBRs are mostly empty space; that is what
	// makes MBR-overlapping-but-disjoint candidates common and
	// intermediate filtering worthwhile. 1 disables elongation.
	MaxAspect float64
	// WormFraction in [0, 1] is the share of objects generated as worms
	// (thickened meandering paths) rather than blobs. Worms are what make
	// deeply interleaved non-intersecting pairs possible — two nearby
	// rivers share most of their MBRs, put hundreds of edges into the
	// common region, and never touch — which is the pair population whose
	// refinement cost the paper's hardware filter eliminates.
	WormFraction float64
	Seed         int64
}

// Generate builds the dataset described by spec. Generation is
// deterministic in the seed.
func Generate(spec Spec) (*Dataset, error) {
	if spec.N <= 0 {
		return nil, fmt.Errorf("data: spec %q has N=%d", spec.Name, spec.N)
	}
	if spec.MinVerts < 3 {
		return nil, fmt.Errorf("data: spec %q has MinVerts=%d < 3", spec.Name, spec.MinVerts)
	}
	if spec.MaxVerts < spec.MinVerts || spec.MeanVerts < float64(spec.MinVerts) ||
		spec.MeanVerts > float64(spec.MaxVerts) {
		return nil, fmt.Errorf("data: spec %q has inconsistent vertex stats", spec.Name)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	vs := newVertexSampler(spec.MinVerts, spec.MaxVerts, spec.MeanVerts)

	// Jittered grid: about one cell per object, shaped to the domain.
	w, h := spec.Domain.Width(), spec.Domain.Height()
	cols := max(1, int(math.Round(math.Sqrt(float64(spec.N)*w/h))))
	rows := max(1, (spec.N+cols-1)/cols)
	cellW, cellH := w/float64(cols), h/float64(rows)
	radius := spec.CoverFactor * math.Sqrt(cellW*cellH) / 2

	maxAspect := spec.MaxAspect
	if maxAspect < 1 {
		maxAspect = 1
	}
	paths := buildGuidePaths(spec.Domain)
	d := &Dataset{Name: spec.Name, Objects: make([]*geom.Polygon, 0, spec.N)}
	for i := range spec.N {
		var (
			obj *geom.Polygon
			err error
		)
		n := vs.sample(rng)
		if n >= 8 && rng.Float64() < spec.WormFraction {
			// Worms follow the shared guide paths. Span grows with
			// complexity (big rivers meander far); the lateral offset
			// spreads parallel features a few thicknesses apart so that
			// gaps between same-path objects range from touching to a few
			// object widths.
			g := paths[rng.Intn(len(paths))]
			// Span is independent of the vertex count: in real GIS layers
			// complexity comes from digitization density, not extent, so a
			// 2000-vertex river reach covers the same few cells as a
			// 50-vertex one — just with a far more detailed boundary.
			span := radius * (2.5 + 3.5*rng.Float64())
			thickness := radius * (0.03 + 0.09*rng.Float64())
			// Offsets are quantized into lanes on either side of the
			// feature. Same-lane objects from different layers tend to
			// intersect (a river and the parcels it flows through);
			// different-lane objects run parallel for their whole shared
			// stretch separated by roughly half a lane — deeply
			// interleaved near misses whose gap is a constant fraction of
			// the pair's extent, so a moderate window resolution can
			// resolve it. This mirrors how features bank against each
			// other along rivers and roads in real layers.
			lane := float64(1 + rng.Intn(4))
			if rng.Intn(2) == 0 {
				lane = -lane
			}
			offset := lane*0.55*radius + (rng.Float64()-0.5)*0.06*radius
			obj, err = pathWorm(rng, g, span, offset, thickness, n)
		} else {
			cx := spec.Domain.MinX + (float64(i%cols)+0.2+0.6*rng.Float64())*cellW
			cy := spec.Domain.MinY + (float64(i/cols%rows)+0.2+0.6*rng.Float64())*cellH
			aspect := 1 + rng.Float64()*(maxAspect-1)
			obj, err = ShapedBlob(rng, geom.Pt(cx, cy), radius, n, aspect)
		}
		if err != nil {
			return nil, fmt.Errorf("data: spec %q object %d: %w", spec.Name, i, err)
		}
		d.Objects = append(d.Objects, obj)
	}
	return d, nil
}

// ShapedBlob builds a Blob stretched by aspect along a random axis while
// keeping its area roughly constant, producing the elongated features
// (rivers, bands, parcels along roads) that dominate real GIS layers. The
// affine image of a star-shaped polygon is star-shaped, so the result
// remains simple.
func ShapedBlob(rng *rand.Rand, center geom.Point, r float64, n int, aspect float64) (*geom.Polygon, error) {
	p, err := Blob(rng, geom.Pt(0, 0), r, n)
	if err != nil {
		return nil, err
	}
	if aspect <= 1 {
		return translate(p, center), nil
	}
	stretch := math.Sqrt(aspect)
	theta := rng.Float64() * math.Pi
	cos, sin := math.Cos(theta), math.Sin(theta)
	for i, v := range p.Verts {
		// Stretch along x, shrink along y, then rotate by theta.
		x, y := v.X*stretch, v.Y/stretch
		p.Verts[i] = geom.Pt(x*cos-y*sin, x*sin+y*cos)
	}
	return translate(p, center), nil
}

func translate(p *geom.Polygon, by geom.Point) *geom.Polygon {
	for i, v := range p.Verts {
		p.Verts[i] = geom.Pt(v.X+by.X, v.Y+by.Y)
	}
	p.Recompute()
	return p
}

// Blob builds a star-shaped polygon of n vertices around center with mean
// radius r and smoothly varying boundary (a few random harmonics), the
// synthetic stand-in for GIS land-coverage polygons: simple, frequently
// concave, with natural-looking wiggle that grows with vertex count. A
// non-nil error means the sampled parameters produced a degenerate vertex
// chain, reported instead of panicking.
func Blob(rng *rand.Rand, center geom.Point, r float64, n int) (*geom.Polygon, error) {
	// Low-frequency harmonics give lobes; amplitude keeps radius positive.
	type harmonic struct {
		k     float64
		amp   float64
		phase float64
	}
	nh := 2 + rng.Intn(4)
	hs := make([]harmonic, nh)
	total := 0.0
	for i := range hs {
		hs[i] = harmonic{
			k:     float64(1 + rng.Intn(7)),
			amp:   rng.Float64(),
			phase: rng.Float64() * 2 * math.Pi,
		}
		total += hs[i].amp
	}
	scale := 0.0
	if total > 0 {
		scale = 0.7 / total // max radial deviation ±70%
	}
	verts := make([]geom.Point, n)
	step := 2 * math.Pi / float64(n)
	for i := range n {
		theta := float64(i)*step + rng.Float64()*step*0.8
		rad := 1.0
		for _, hm := range hs {
			rad += scale * hm.amp * math.Sin(hm.k*theta+hm.phase)
		}
		// High-vertex polygons also get fine-grained jitter, mimicking
		// digitized natural boundaries.
		rad *= 1 + (rng.Float64()-0.5)*0.18
		verts[i] = geom.Pt(center.X+r*rad*math.Cos(theta), center.Y+r*rad*math.Sin(theta))
	}
	p, err := geom.NewPolygon(verts)
	if err != nil {
		return nil, fmt.Errorf("data: blob generation: %w", err)
	}
	return p, nil
}

// vertexSampler draws vertex counts from a Pareto distribution with
// density ∝ v^-(α+1) truncated to [min, max], with α calibrated so the
// distribution's mean equals the target. Real GIS layers are exactly this
// shape: mostly small polygons with a heavy tail of huge digitized
// features (Table 2's min 3 / avg 91 / max 39,360 profile), and the tail
// is what dominates refinement cost.
type vertexSampler struct {
	min, max int
	alpha    float64
}

func newVertexSampler(minV, maxV int, mean float64) vertexSampler {
	s := vertexSampler{min: minV, max: maxV}
	if minV == maxV {
		return s
	}
	// Solve truncatedParetoMean(alpha) == mean by bisection; the mean is
	// monotonically decreasing in alpha.
	lo, hi := 1e-6, 50.0
	for range 200 {
		mid := (lo + hi) / 2
		if truncatedParetoMean(float64(minV), float64(maxV), mid) > mean {
			lo = mid
		} else {
			hi = mid
		}
	}
	s.alpha = (lo + hi) / 2
	return s
}

// truncatedParetoMean returns the mean of a Pareto(alpha) truncated to
// [m, M].
func truncatedParetoMean(m, M, alpha float64) float64 {
	if alpha == 1 {
		alpha += 1e-9
	}
	// E[X] = ∫ x·f(x) with f(x) = C·x^-(α+1), C normalizing over [m, M].
	c := alpha / (math.Pow(m, -alpha) - math.Pow(M, -alpha))
	return c / (alpha - 1) * (math.Pow(m, 1-alpha) - math.Pow(M, 1-alpha))
}

// sample draws one vertex count by inverse-transform sampling.
func (s vertexSampler) sample(rng *rand.Rand) int {
	if s.min == s.max {
		return s.min
	}
	u := rng.Float64()
	m, M := float64(s.min), float64(s.max)
	// Inverse CDF of the truncated Pareto.
	pm, pM := math.Pow(m, -s.alpha), math.Pow(M, -s.alpha)
	x := math.Pow(pm-u*(pm-pM), -1/s.alpha)
	v := int(math.Round(x))
	if v < s.min {
		v = s.min
	}
	if v > s.max {
		v = s.max
	}
	return v
}
