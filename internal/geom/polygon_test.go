package geom

import "testing"

// unitSquare is CCW.
func unitSquare() *Polygon {
	return MustPolygon(Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1))
}

// concaveL is an L-shaped (concave) hexagon.
func concaveL() *Polygon {
	return MustPolygon(Pt(0, 0), Pt(3, 0), Pt(3, 1), Pt(1, 1), Pt(1, 3), Pt(0, 3))
}

func TestNewPolygonErrors(t *testing.T) {
	if _, err := NewPolygon([]Point{Pt(0, 0), Pt(1, 1)}); err == nil {
		t.Error("expected error for 2-vertex polygon")
	}
	if _, err := NewPolygon([]Point{Pt(0, 0), Pt(1, 0), Pt(0, 1)}); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestPolygonArea(t *testing.T) {
	sq := unitSquare()
	if got := sq.Area(); got != 1 {
		t.Errorf("Area = %v", got)
	}
	if got := sq.SignedArea(); got != 1 {
		t.Errorf("SignedArea = %v (CCW should be positive)", got)
	}
	l := concaveL()
	if got := l.Area(); got != 5 {
		t.Errorf("L Area = %v, want 5", got)
	}
	// Clockwise ordering flips the sign only.
	cw := MustPolygon(Pt(0, 1), Pt(1, 1), Pt(1, 0), Pt(0, 0))
	if got := cw.SignedArea(); got != -1 {
		t.Errorf("CW SignedArea = %v", got)
	}
}

func TestPolygonBounds(t *testing.T) {
	l := concaveL()
	if got := l.Bounds(); got != R(0, 0, 3, 3) {
		t.Errorf("Bounds = %v", got)
	}
	l.Verts[0] = Pt(-1, -1)
	l.Recompute()
	if got := l.Bounds(); got != R(-1, -1, 3, 3) {
		t.Errorf("Bounds after Recompute = %v", got)
	}
}

func TestContainsPoint(t *testing.T) {
	l := concaveL()
	inside := []Point{Pt(0.5, 0.5), Pt(2.5, 0.5), Pt(0.5, 2.5), Pt(0.9, 0.9)}
	outside := []Point{Pt(2, 2), Pt(1.5, 1.5), Pt(-0.5, 0.5), Pt(3.5, 0.5), Pt(2, 1.01)}
	boundary := []Point{Pt(0, 0), Pt(1.5, 0), Pt(3, 0.5), Pt(1, 2), Pt(2, 1)}
	for _, p := range inside {
		if !l.ContainsPoint(p) {
			t.Errorf("ContainsPoint(%v) = false, want true", p)
		}
	}
	for _, p := range outside {
		if l.ContainsPoint(p) {
			t.Errorf("ContainsPoint(%v) = true, want false", p)
		}
	}
	for _, p := range boundary {
		if !l.ContainsPoint(p) {
			t.Errorf("ContainsPoint(boundary %v) = false, want true", p)
		}
	}
}

func TestContainsPointVertexRay(t *testing.T) {
	// A ray through a vertex must not double count. Diamond with vertices
	// on the query's horizontal line.
	d := MustPolygon(Pt(0, 0), Pt(2, 2), Pt(4, 0), Pt(2, -2))
	if !d.ContainsPoint(Pt(2, 0)) {
		t.Error("center of diamond not contained")
	}
	if d.ContainsPoint(Pt(-1, 0)) {
		t.Error("point left of diamond on vertex line contained")
	}
	if d.ContainsPoint(Pt(5, 0)) {
		t.Error("point right of diamond contained")
	}
	if !d.ContainsPoint(Pt(2, 2)) {
		t.Error("vertex itself not contained")
	}
}

func TestIsSimple(t *testing.T) {
	if !unitSquare().IsSimple() {
		t.Error("square should be simple")
	}
	if !concaveL().IsSimple() {
		t.Error("L should be simple")
	}
	bowtie := MustPolygon(Pt(0, 0), Pt(2, 2), Pt(2, 0), Pt(0, 2))
	if bowtie.IsSimple() {
		t.Error("bowtie should not be simple")
	}
	spike := MustPolygon(Pt(0, 0), Pt(2, 0), Pt(1, 0), Pt(1, 2))
	if spike.IsSimple() {
		t.Error("spike with collinear backtrack should not be simple")
	}
	degenerate := MustPolygon(Pt(0, 0), Pt(0, 0), Pt(1, 1))
	if degenerate.IsSimple() {
		t.Error("zero-length edge should not be simple")
	}
}

func TestEdgeIteration(t *testing.T) {
	sq := unitSquare()
	if sq.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d", sq.NumEdges())
	}
	last := sq.Edge(3)
	if last.A != Pt(0, 1) || last.B != Pt(0, 0) {
		t.Errorf("closing edge = %v", last)
	}
}

func TestValidate(t *testing.T) {
	if err := unitSquare().Validate(); err != nil {
		t.Errorf("valid polygon rejected: %v", err)
	}
	flat := &Polygon{Verts: []Point{Pt(0, 0), Pt(1, 0), Pt(2, 0)}}
	flat.Recompute()
	if err := flat.Validate(); err == nil {
		t.Error("zero-area polygon accepted")
	}
}
