package geom

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// oracleParsePolygonWKT is the parser ParsePolygonWKT replaced, kept as
// the differential oracle: the whole string upper-cased to match the tag,
// the rings split into a slice, the coordinates by strings.Split and
// strings.Fields.
func oracleParsePolygonWKT(s string) (*Polygon, error) {
	const tag = "POLYGON"
	t := strings.TrimSpace(s)
	if !strings.HasPrefix(strings.ToUpper(t), tag) {
		return nil, fmt.Errorf("geom: expected %s, got %q", tag, truncateForError(t))
	}
	t = strings.TrimSpace(t[len(tag):])
	if !strings.HasPrefix(t, "(") || !strings.HasSuffix(t, ")") {
		return nil, fmt.Errorf("geom: %s body must be parenthesized", tag)
	}
	body := t[1 : len(t)-1]
	var rings []string
	depth, start := 0, -1
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
	if len(rings) != 1 {
		return nil, fmt.Errorf("geom: POLYGON with %d rings: interior rings are not supported", len(rings))
	}
	parts := strings.Split(rings[0], ",")
	verts := make([]Point, 0, len(parts))
	for _, part := range parts {
		c := strings.TrimSpace(part)
		fields := strings.Fields(c)
		if len(fields) != 2 {
			return nil, fmt.Errorf("geom: coordinate %q must be two numbers", truncateForError(c))
		}
		x, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("geom: bad x coordinate %q: %w", fields[0], err)
		}
		y, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("geom: bad y coordinate %q: %w", fields[1], err)
		}
		p := Point{X: x, Y: y}
		if !p.IsFinite() {
			return nil, fmt.Errorf("geom: non-finite coordinate %q", truncateForError(c))
		}
		verts = append(verts, p)
	}
	if len(verts) >= 2 && verts[0].Eq(verts[len(verts)-1]) {
		verts = verts[:len(verts)-1]
	}
	return NewPolygon(verts)
}

// FuzzParsePolygonWKT: ParsePolygonWKT accepts exactly what the oracle
// accepts, with the same vertices bit for bit, and rejects the rest with
// the same error text.
func FuzzParsePolygonWKT(f *testing.F) {
	for _, s := range []string{
		"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
		"  polygon((0 0,1 0 , 1 1 ))  ",
		"PoLyGoN((1e2 0, 2.5e2 0, 1.5e2 1.5e1))",
		"POLYGON ((0 0, 1 0, 1\u00851))",
		"\u0085POLYGON ((0 0, 1 0, 1 1)) ",
		"ſPOLYGON ((0 0, 1 0, 1 1))",
		"POLYGONE ((0 0, 1 0, 1 1))",
		"POLYGO",
		"LINESTRING (0 0, 1 1)",
		"POLYGON 0 0, 1 1",
		"POLYGON ((0 0, 1 1, 2 2), (5 5, 6 6, 7 7))",
		"POLYGON ((0 0, 1 1)",
		"POLYGON ((0 0, 1 1)))",
		"POLYGON (())",
		"POLYGON ()",
		"POLYGON ((0 0, 1, 2 2))",
		"POLYGON ((0 0, 1 2 3, 2 2))",
		"POLYGON ((0 0, x 1, 2 2))",
		"POLYGON ((0 0, 1 y, 2 2))",
		"POLYGON ((0 0, NaN 1, 2 2))",
		"POLYGON ((0 0, 1 Inf, 2 2))",
		"POLYGON ((0 0, 1 1))",
		"POLYGON ((0 0, 1 0, 1 1,))",
		"POLYGON (((0 0, 1 0, 1 1)))",
		"POLYGON ((0 0, 1 0, 1 1) x)",
		"POLYGON ((-0 0, 1 0, 1 1, -0 0))",
		"POLYGON ((0 0, 1e400 0, 1 1))",
		"POLYGON ((0 0, 1 0, 1 \xff))",
		"POLYGON ((0 0, 1 0\xc2\x85, 1 1))",
		"POLYGON ((0 0, 1 0, 1 1, 0 0, 0 0, 0 0, 0 0, 0 0, 0 0, 0 0, 0 0, 0 0, 0 0))",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, gotErr := ParsePolygonWKT(s)
		want, wantErr := oracleParsePolygonWKT(s)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("%q: err %v, oracle %v", s, gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%q: error %q, oracle %q", s, gotErr, wantErr)
			}
		case len(got.Verts) != len(want.Verts):
			t.Fatalf("%q: %d vertices, oracle %d", s, len(got.Verts), len(want.Verts))
		default:
			for i, v := range got.Verts {
				w := want.Verts[i]
				if math.Float64bits(v.X) != math.Float64bits(w.X) || math.Float64bits(v.Y) != math.Float64bits(w.Y) {
					t.Fatalf("%q: vertex %d is %v, oracle %v", s, i, v, w)
				}
			}
		}
	})
}

// TestTagRunes: no rune outside ASCII upper-cases to a letter of the
// POLYGON tag, which is what lets hasTag compare bytes where the oracle
// upper-cased the whole string.
func TestTagRunes(t *testing.T) {
	for r := rune(0x80); r <= unicode.MaxRune; r++ {
		if u := unicode.ToUpper(r); u < 0x80 && strings.ContainsRune("POLYGON", u) {
			t.Errorf("%U upper-cases to %q", r, u)
		}
	}
}

// BenchmarkParsePolygonWKT parses a select window of the load benchmark
// (five vertices, closing one included, in the form Polygon.WKT writes)
// and a 64-vertex ring. One op is one parse.
func BenchmarkParsePolygonWKT(b *testing.B) {
	ring := make([]Point, 64)
	for i := range ring {
		a := 2 * math.Pi * float64(i) / float64(len(ring))
		ring[i] = Pt(512.25+40*math.Cos(a), 300.125+40*math.Sin(a))
	}
	for _, tc := range []struct{ name, wkt string }{
		{"window", MustPolygon(Pt(405.90149009308124, 4.8268655811573815), Pt(410.90149009308124, 4.8268655811573815),
			Pt(410.90149009308124, 9.826865581157382), Pt(405.90149009308124, 9.826865581157382)).WKT()},
		{"ring64", MustPolygon(ring...).WKT()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := ParsePolygonWKT(tc.wkt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
