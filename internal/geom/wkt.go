package geom

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// WKT returns the polygon in Well-Known Text form, closing the ring by
// repeating the first vertex as WKT requires:
//
//	POLYGON ((x0 y0, x1 y1, ..., x0 y0))
func (p *Polygon) WKT() string {
	var b strings.Builder
	b.WriteString("POLYGON ((")
	for i, v := range p.Verts {
		if i > 0 {
			b.WriteString(", ")
		}
		writeCoord(&b, v)
	}
	if len(p.Verts) > 0 {
		b.WriteString(", ")
		writeCoord(&b, p.Verts[0])
	}
	b.WriteString("))")
	return b.String()
}

func writeCoord(b *strings.Builder, p Point) {
	b.WriteString(strconv.FormatFloat(p.X, 'g', -1, 64))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(p.Y, 'g', -1, 64))
}

// ParsePolygonWKT parses a single-ring POLYGON. Interior rings (holes) and
// MULTIPOLYGON are not part of this library's polygon model and are
// rejected with a descriptive error. The closing vertex (equal to the
// first) is accepted and dropped, per the library convention of implicit
// ring closure. The tag matches in any ASCII letter case, and white space
// is Unicode white space, as strings.TrimSpace and strings.Fields read it;
// the only allocations on success are the vertex slice and the polygon.
func ParsePolygonWKT(s string) (*Polygon, error) {
	body, err := wktBody(s, "POLYGON")
	if err != nil {
		return nil, err
	}
	ring, err := onlyRing(body)
	if err != nil {
		return nil, err
	}
	verts, err := parseCoordList(ring)
	if err != nil {
		return nil, err
	}
	if len(verts) >= 2 && verts[0].Eq(verts[len(verts)-1]) {
		verts = verts[:len(verts)-1] // drop the WKT closing vertex
	}
	return NewPolygon(verts)
}

// wktBody validates the geometry tag (upper-case ASCII) and strips the
// outermost parentheses.
func wktBody(s, tag string) (string, error) {
	t := strings.TrimSpace(s)
	if !hasTag(t, tag) {
		return "", fmt.Errorf("geom: expected %s, got %q", tag, truncateForError(t))
	}
	t = strings.TrimSpace(t[len(tag):])
	if !strings.HasPrefix(t, "(") || !strings.HasSuffix(t, ")") {
		return "", fmt.Errorf("geom: %s body must be parenthesized", tag)
	}
	return t[1 : len(t)-1], nil
}

// hasTag reports whether s begins with tag in any ASCII letter case. No
// non-ASCII rune upper-cases to a letter of POLYGON (TestTagRunes), so
// for that tag this is strings.HasPrefix(strings.ToUpper(s), tag)
// without the copy.
func hasTag(s, tag string) bool {
	if len(s) < len(tag) {
		return false
	}
	for i := range len(tag) {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != tag[i] {
			return false
		}
	}
	return true
}

// onlyRing returns the one top-level parenthesized part of "(...)",
// rejecting unbalanced parentheses, no ring, and more than one ring.
func onlyRing(body string) (string, error) {
	var ring string
	rings, depth, start := 0, 0, -1
	for i := range len(body) {
		switch body[i] {
		case '(':
			depth++
			if depth == 1 {
				start = i + 1
			}
		case ')':
			depth--
			if depth < 0 {
				return "", fmt.Errorf("geom: unbalanced parentheses in WKT")
			}
			if depth == 0 {
				if rings == 0 {
					ring = body[start:i]
				}
				rings++
			}
		}
	}
	switch {
	case depth != 0:
		return "", fmt.Errorf("geom: unbalanced parentheses in WKT")
	case rings == 0:
		return "", fmt.Errorf("geom: no coordinate ring found")
	case rings != 1:
		return "", fmt.Errorf("geom: POLYGON with %d rings: interior rings are not supported", rings)
	}
	return ring, nil
}

// parseCoordList parses the comma-separated coordinates of a ring.
func parseCoordList(s string) ([]Point, error) {
	verts := make([]Point, 0, strings.Count(s, ",")+1)
	for {
		part, rest, more := strings.Cut(s, ",")
		p, err := parseCoord(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		verts = append(verts, p)
		if !more {
			return verts, nil
		}
		s = rest
	}
}

// parseCoord parses one coordinate, s trimmed of white space: two numbers
// separated by white space.
func parseCoord(s string) (Point, error) {
	xs, ys, ok := twoFields(s)
	if !ok {
		return Point{}, fmt.Errorf("geom: coordinate %q must be two numbers", truncateForError(s))
	}
	x, err := strconv.ParseFloat(xs, 64)
	if err != nil {
		return Point{}, fmt.Errorf("geom: bad x coordinate %q: %w", xs, err)
	}
	y, err := strconv.ParseFloat(ys, 64)
	if err != nil {
		return Point{}, fmt.Errorf("geom: bad y coordinate %q: %w", ys, err)
	}
	p := Point{X: x, Y: y}
	if !p.IsFinite() {
		// ParseFloat accepts "NaN" and "Inf" spellings; geometry does not.
		return Point{}, fmt.Errorf("geom: non-finite coordinate %q", truncateForError(s))
	}
	return p, nil
}

// twoFields splits s, trimmed of white space, into its two fields; ok is
// false unless strings.Fields(s) would return exactly two.
func twoFields(s string) (x, y string, ok bool) {
	i := strings.IndexFunc(s, unicode.IsSpace)
	if i < 0 {
		return "", "", false
	}
	y = strings.TrimLeftFunc(s[i:], unicode.IsSpace)
	return s[:i], y, y != "" && strings.IndexFunc(y, unicode.IsSpace) < 0
}

func truncateForError(s string) string {
	if len(s) > 32 {
		return s[:32] + "..."
	}
	return s
}
