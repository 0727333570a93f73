package geom

import (
	"math/rand"
	"strings"
	"testing"
)

func TestPolygonWKTRoundTrip(t *testing.T) {
	p := MustPolygon(Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4))
	wkt := p.WKT()
	want := "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"
	if wkt != want {
		t.Errorf("WKT = %q, want %q", wkt, want)
	}
	q, err := ParsePolygonWKT(wkt)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumVerts() != p.NumVerts() {
		t.Fatalf("round trip changed vertex count: %d", q.NumVerts())
	}
	for i := range p.Verts {
		if !p.Verts[i].Eq(q.Verts[i]) {
			t.Fatalf("vertex %d changed: %v vs %v", i, p.Verts[i], q.Verts[i])
		}
	}
}

func TestPolygonWKTRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for range 100 {
		n := 3 + rng.Intn(40)
		verts := make([]Point, n)
		for i := range verts {
			verts[i] = Pt(rng.Float64()*1000-500, rng.Float64()*1000-500)
		}
		p, err := NewPolygon(verts)
		if err != nil {
			t.Fatal(err)
		}
		q, err := ParsePolygonWKT(p.WKT())
		if err != nil {
			t.Fatalf("parse own WKT: %v", err)
		}
		if q.Bounds() != p.Bounds() {
			t.Fatal("round trip changed bounds")
		}
	}
}

func TestParsePolygonWKTVariants(t *testing.T) {
	// Case-insensitive tag, uneven whitespace, no closing vertex.
	p, err := ParsePolygonWKT("  polygon((0 0,1 0 , 1 1 ))  ")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVerts() != 3 {
		t.Errorf("verts = %d", p.NumVerts())
	}
	// Scientific notation.
	p, err = ParsePolygonWKT("POLYGON ((1e2 0, 2.5e2 0, 1.5e2 1.5e1))")
	if err != nil {
		t.Fatal(err)
	}
	if p.Verts[0].X != 100 || p.Verts[2].Y != 15 {
		t.Errorf("scientific parse wrong: %v", p.Verts)
	}
}

func TestParsePolygonWKTErrors(t *testing.T) {
	cases := []struct {
		wkt, wantSub string
	}{
		{"LINESTRING (0 0, 1 1)", "expected POLYGON"},
		{"POLYGON 0 0, 1 1", "parenthesized"},
		{"POLYGON ((0 0, 1 1, 2 2), (5 5, 6 6, 7 7))", "interior rings"},
		{"POLYGON ((0 0, 1 1)", "unbalanced"},
		{"POLYGON (())", "two numbers"},
		{"POLYGON ((0 0, 1, 2 2))", "two numbers"},
		{"POLYGON ((0 0, x 1, 2 2))", "bad x"},
		{"POLYGON ((0 0, 1 y, 2 2))", "bad y"},
		{"POLYGON ((0 0, 1 1))", "at least 3"},
		{"POLYGON ()", "no coordinate ring"},
	}
	for _, tc := range cases {
		_, err := ParsePolygonWKT(tc.wkt)
		if err == nil {
			t.Errorf("%q accepted", tc.wkt)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%q: error %q does not mention %q", tc.wkt, err, tc.wantSub)
		}
	}
}
