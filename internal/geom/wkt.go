package geom

import (
	"fmt"
	"strconv"
	"strings"
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
// ring closure.
func ParsePolygonWKT(s string) (*Polygon, error) {
	body, err := wktBody(s, "POLYGON")
	if err != nil {
		return nil, err
	}
	rings, err := splitRings(body)
	if err != nil {
		return nil, err
	}
	if len(rings) != 1 {
		return nil, fmt.Errorf("geom: POLYGON with %d rings: interior rings are not supported", len(rings))
	}
	verts, err := parseCoordList(rings[0])
	if err != nil {
		return nil, err
	}
	if len(verts) >= 2 && verts[0].Eq(verts[len(verts)-1]) {
		verts = verts[:len(verts)-1] // drop the WKT closing vertex
	}
	return NewPolygon(verts)
}

// wktBody validates the geometry tag and strips the outermost parentheses.
func wktBody(s, tag string) (string, error) {
	t := strings.TrimSpace(s)
	upper := strings.ToUpper(t)
	if !strings.HasPrefix(upper, tag) {
		return "", fmt.Errorf("geom: expected %s, got %q", tag, truncateForError(t))
	}
	t = strings.TrimSpace(t[len(tag):])
	if !strings.HasPrefix(t, "(") || !strings.HasSuffix(t, ")") {
		return "", fmt.Errorf("geom: %s body must be parenthesized", tag)
	}
	return t[1 : len(t)-1], nil
}

// splitRings splits "(...), (...)" into its top-level parenthesized parts.
func splitRings(body string) ([]string, error) {
	var rings []string
	depth := 0
	start := -1
	for i, r := range body {
		switch r {
		case '(':
			depth++
			if depth == 1 {
				start = i + 1
			}
		case ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("geom: unbalanced parentheses in WKT")
			}
			if depth == 0 {
				rings = append(rings, body[start:i])
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("geom: unbalanced parentheses in WKT")
	}
	if len(rings) == 0 {
		return nil, fmt.Errorf("geom: no coordinate ring found")
	}
	return rings, nil
}

func parseCoordList(s string) ([]Point, error) {
	parts := strings.Split(s, ",")
	verts := make([]Point, 0, len(parts))
	for _, part := range parts {
		p, err := parseCoord(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		verts = append(verts, p)
	}
	return verts, nil
}

func parseCoord(s string) (Point, error) {
	fields := strings.Fields(s)
	if len(fields) != 2 {
		return Point{}, fmt.Errorf("geom: coordinate %q must be two numbers", truncateForError(s))
	}
	x, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return Point{}, fmt.Errorf("geom: bad x coordinate %q: %w", fields[0], err)
	}
	y, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return Point{}, fmt.Errorf("geom: bad y coordinate %q: %w", fields[1], err)
	}
	p := Point{X: x, Y: y}
	if !p.IsFinite() {
		// ParseFloat accepts "NaN" and "Inf" spellings; geometry does not.
		return Point{}, fmt.Errorf("geom: non-finite coordinate %q", truncateForError(s))
	}
	return p, nil
}

func truncateForError(s string) string {
	if len(s) > 32 {
		return s[:32] + "..."
	}
	return s
}
