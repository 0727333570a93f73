package geom

import "sort"

// ConvexHull returns the convex hull of pts as a CCW polygon, using
// Andrew's monotone chain. Collinear points on the hull boundary are
// dropped. At least three non-collinear points are required; otherwise nil
// is returned.
func ConvexHull(pts []Point) *Polygon {
	if len(pts) < 3 {
		return nil
	}
	sorted := make([]Point, len(pts))
	copy(sorted, pts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		return sorted[i].Y < sorted[j].Y
	})
	// Deduplicate.
	uniq := sorted[:1]
	for _, p := range sorted[1:] {
		if !p.Eq(uniq[len(uniq)-1]) {
			uniq = append(uniq, p)
		}
	}
	if len(uniq) < 3 {
		return nil
	}

	hull := make([]Point, 0, 2*len(uniq))
	// Lower chain.
	for _, p := range uniq {
		for len(hull) >= 2 && Orient(hull[len(hull)-2], hull[len(hull)-1], p) != CounterClockwise {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper chain.
	lower := len(hull) + 1
	for i := len(uniq) - 2; i >= 0; i-- {
		p := uniq[i]
		for len(hull) >= lower && Orient(hull[len(hull)-2], hull[len(hull)-1], p) != CounterClockwise {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	hull = hull[:len(hull)-1] // last point repeats the first
	if len(hull) < 3 {
		return nil
	}
	h, err := NewPolygon(hull)
	if err != nil {
		return nil
	}
	return h
}

// Hull returns the convex hull of the polygon's vertices. The hull is a
// superset of the polygon's region, so hull disjointness proves polygon
// disjointness — the basis of Brinkhoff's geometric filter. A nil result
// (degenerate polygon) means no hull is available.
func (p *Polygon) Hull() *Polygon {
	return ConvexHull(p.Verts)
}
