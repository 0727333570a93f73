package geom

// ClipConvex clips polygon p to the convex CCW polygon clip
// (Sutherland–Hodgman with an arbitrary convex window). For two convex
// polygons this computes their exact intersection; for a concave subject
// the pass may join disjoint pieces with zero-width bridges along the clip
// boundary — the ring is then non-simple, but its signed area still equals
// the true intersection area.
//
//reach:keep independent oracle of overlay's TestOverlayMatchesConvexClip
func ClipConvex(p, clip *Polygon) *Polygon {
	if p.NumVerts() < 3 || clip.NumVerts() < 3 {
		return nil
	}
	verts := append([]Point(nil), p.Verts...)
	if p.SignedArea() < 0 {
		for i, j := 0, len(verts)-1; i < j; i, j = i+1, j-1 {
			verts[i], verts[j] = verts[j], verts[i]
		}
	}
	n := clip.NumVerts()
	for i := range n {
		a := clip.Verts[i]
		b := clip.Verts[(i+1)%n]
		verts = clipHalfPlane(verts,
			func(q Point) bool { return Orient(a, b, q) != Clockwise },
			func(u, v Point) Point { return lineIntersection(a, b, u, v) })
		if len(verts) == 0 {
			return nil
		}
	}
	if len(verts) < 3 {
		return nil
	}
	out := &Polygon{Verts: verts}
	out.Recompute()
	if out.Area() == 0 {
		return nil
	}
	return out
}

// clipHalfPlane keeps the parts of the ring inside one half-plane,
// inserting boundary crossings computed by cross.
func clipHalfPlane(verts []Point, inside func(Point) bool, cross func(a, b Point) Point) []Point {
	if len(verts) == 0 {
		return verts
	}
	out := make([]Point, 0, len(verts)+4)
	prev := verts[len(verts)-1]
	prevIn := inside(prev)
	for _, cur := range verts {
		curIn := inside(cur)
		switch {
		case curIn && prevIn:
			out = append(out, cur)
		case curIn && !prevIn:
			out = append(out, cross(prev, cur), cur)
		case !curIn && prevIn:
			out = append(out, cross(prev, cur))
		}
		prev, prevIn = cur, curIn
	}
	return out
}

// lineIntersection returns the intersection of the infinite line through
// a-b with the segment u-v (u and v straddle the line by construction of
// the Sutherland–Hodgman pass).
func lineIntersection(a, b, u, v Point) Point {
	d := b.Sub(a)
	e := v.Sub(u)
	denom := e.Cross(d)
	if denom == 0 {
		return u // parallel grazing: either endpoint is on the line
	}
	// Points p on the line satisfy (p−a)×d = 0; with p = u + t·e this
	// gives t = (a−u)×d / (e×d).
	t := a.Sub(u).Cross(d) / denom
	return Point{X: u.X + t*e.X, Y: u.Y + t*e.Y}
}
