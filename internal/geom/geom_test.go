package geom

import (
	"math"
	"testing"
)

func TestPointBasics(t *testing.T) {
	p := Point{3, 4}
	if p.IsEmpty() {
		t.Fatal("point should not be empty")
	}
	if got := p.DistanceTo(Point{0, 0}); got != 5 {
		t.Fatalf("distance = %v, want 5", got)
	}
	e := p.Envelope()
	if e.MinX != 3 || e.MaxX != 3 || e.MinY != 4 || e.MaxY != 4 {
		t.Fatalf("envelope = %v", e)
	}
	if !EmptyPoint().IsEmpty() {
		t.Fatal("EmptyPoint should be empty")
	}
}

func TestLineStringLength(t *testing.T) {
	l := LineString{Points: []Point{{0, 0}, {3, 0}, {3, 4}}}
	if got := l.Length(); got != 7 {
		t.Fatalf("length = %v, want 7", got)
	}
}

func TestRingSignedArea(t *testing.T) {
	ccw := Ring{Points: []Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}}}
	if got := ccw.SignedArea(); got != 4 {
		t.Fatalf("ccw area = %v, want 4", got)
	}
	cw := Ring{Points: []Point{{0, 0}, {0, 2}, {2, 2}, {2, 0}}}
	if got := cw.SignedArea(); got != -4 {
		t.Fatalf("cw area = %v, want -4", got)
	}
}

func TestPolygonAreaWithHole(t *testing.T) {
	p := Polygon{
		Shell: Ring{Points: []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}},
		Holes: []Ring{{Points: []Point{{2, 2}, {4, 2}, {4, 4}, {2, 4}}}},
	}
	if got := p.Area(); got != 96 {
		t.Fatalf("area = %v, want 96", got)
	}
}

func TestMultiPolygonArea(t *testing.T) {
	m := MultiPolygon{Polygons: []Polygon{
		{Shell: Ring{Points: []Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}}}},
		{Shell: Ring{Points: []Point{{5, 5}, {7, 5}, {7, 7}, {5, 7}}}},
	}}
	if got := m.Area(); got != 5 {
		t.Fatalf("area = %v, want 5", got)
	}
	e := m.Envelope()
	if e.MinX != 0 || e.MaxX != 7 {
		t.Fatalf("envelope = %v", e)
	}
}

func TestMultiLineStringLength(t *testing.T) {
	m := MultiLineString{Lines: []LineString{
		{Points: []Point{{0, 0}, {1, 0}}},
		{Points: []Point{{0, 0}, {0, 2}}},
	}}
	if got := m.Length(); got != 3 {
		t.Fatalf("length = %v, want 3", got)
	}
}

func TestCollectionEnvelope(t *testing.T) {
	c := Collection{Geometries: []Geometry{
		Point{1, 1},
		LineString{Points: []Point{{-5, 0}, {0, 9}}},
	}}
	e := c.Envelope()
	if e.MinX != -5 || e.MaxY != 9 || e.MaxX != 1 {
		t.Fatalf("envelope = %v", e)
	}
	if c.IsEmpty() {
		t.Fatal("collection not empty")
	}
	if (Collection{}).IsEmpty() != true {
		t.Fatal("empty collection should be empty")
	}
}

func TestEnvelopeBasics(t *testing.T) {
	e := NewEnvelope(5, 7, 1, 2)
	if e.MinX != 1 || e.MinY != 2 || e.MaxX != 5 || e.MaxY != 7 {
		t.Fatalf("normalised envelope = %v", e)
	}
	if e.Width() != 4 || e.Height() != 5 || e.Area() != 20 {
		t.Fatalf("dims: w=%v h=%v a=%v", e.Width(), e.Height(), e.Area())
	}
	c := e.Center()
	if c.X != 3 || c.Y != 4.5 {
		t.Fatalf("center = %v", c)
	}
	if !e.ContainsPoint(1, 2) || !e.ContainsPoint(5, 7) || e.ContainsPoint(0, 0) {
		t.Fatal("ContainsPoint boundary semantics wrong")
	}
}

func TestEmptyEnvelope(t *testing.T) {
	e := EmptyEnvelope()
	if !e.IsEmpty() {
		t.Fatal("EmptyEnvelope not empty")
	}
	if e.Width() != 0 || e.Height() != 0 || e.Area() != 0 {
		t.Fatal("empty envelope should have zero dims")
	}
	if e.ContainsEnvelope(NewEnvelope(0, 0, 1, 1)) {
		t.Fatal("empty contains nothing")
	}
	e.ExpandToPoint(3, 4)
	if e.IsEmpty() || e.MinX != 3 || e.MaxY != 4 {
		t.Fatalf("expand from empty = %v", e)
	}
}

func TestEnvelopeSetOps(t *testing.T) {
	a := NewEnvelope(0, 0, 10, 10)
	b := NewEnvelope(5, 5, 15, 15)
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("overlap not detected")
	}
	i := a.Intersection(b)
	if i.MinX != 5 || i.MinY != 5 || i.MaxX != 10 || i.MaxY != 10 {
		t.Fatalf("intersection = %v", i)
	}
	u := a
	u.ExpandToEnvelope(b)
	if u.MinX != 0 || u.MaxX != 15 {
		t.Fatalf("union = %v", u)
	}
	far := NewEnvelope(100, 100, 101, 101)
	if a.Intersects(far) {
		t.Fatal("disjoint boxes intersect")
	}
	if !a.Intersection(far).IsEmpty() {
		t.Fatal("disjoint intersection should be empty")
	}
	// Touching edges count as intersecting (closed boxes).
	touch := NewEnvelope(10, 0, 20, 10)
	if !a.Intersects(touch) {
		t.Fatal("touching boxes should intersect")
	}
	if !a.ContainsEnvelope(NewEnvelope(2, 2, 8, 8)) {
		t.Fatal("containment failed")
	}
	if a.ContainsEnvelope(b) {
		t.Fatal("partial overlap is not containment")
	}
	if !a.ContainsEnvelope(EmptyEnvelope()) {
		t.Fatal("non-empty should contain empty")
	}
}

func TestEnvelopeUnionWithEmpty(t *testing.T) {
	a := NewEnvelope(0, 0, 1, 1)
	got := a
	if got.ExpandToEnvelope(EmptyEnvelope()); got != a {
		t.Fatalf("union with empty = %v", got)
	}
	got = EmptyEnvelope()
	if got.ExpandToEnvelope(a); got != a {
		t.Fatalf("empty union a = %v", got)
	}
}

func TestEnvelopeBuffer(t *testing.T) {
	e := NewEnvelope(0, 0, 2, 2).Buffer(1)
	if e.MinX != -1 || e.MaxY != 3 {
		t.Fatalf("buffered = %v", e)
	}
	if !EmptyEnvelope().Buffer(5).IsEmpty() {
		t.Fatal("buffering empty stays empty")
	}
	shrunk := NewEnvelope(0, 0, 2, 2).Buffer(-2)
	if !shrunk.IsEmpty() {
		t.Fatalf("over-shrunk box should be empty: %v", shrunk)
	}
}

func TestEnvelopeDistanceToPoint(t *testing.T) {
	e := NewEnvelope(0, 0, 10, 10)
	if d := e.DistanceToPoint(5, 5); d != 0 {
		t.Fatalf("inside distance = %v", d)
	}
	if d := e.DistanceToPoint(13, 14); d != 5 {
		t.Fatalf("corner distance = %v, want 5", d)
	}
	if d := e.DistanceToPoint(-3, 5); d != 3 {
		t.Fatalf("edge distance = %v, want 3", d)
	}
}

func TestEnvelopeToPolygon(t *testing.T) {
	e := NewEnvelope(0, 0, 4, 2)
	p := e.ToPolygon()
	if got := p.Area(); got != 8 {
		t.Fatalf("area = %v, want 8", got)
	}
	if !PolygonContainsPoint(p, 2, 1) {
		t.Fatal("polygonised box should contain its center")
	}
}

func TestEnvelopeString(t *testing.T) {
	got := NewEnvelope(1, 2, 3, 4).String()
	if got != "BOX(1 2, 3 4)" {
		t.Fatalf("String = %q", got)
	}
}

func TestMultiPointEnvelope(t *testing.T) {
	m := MultiPoint{Points: []Point{{1, 5}, {-2, 3}}}
	e := m.Envelope()
	if e.MinX != -2 || e.MaxY != 5 {
		t.Fatalf("envelope = %v", e)
	}
	if m.IsEmpty() || !(MultiPoint{}).IsEmpty() {
		t.Fatal("IsEmpty wrong")
	}
}

func TestRingEnvelopeAndClosure(t *testing.T) {
	r := Ring{Points: []Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}}}
	pts := r.closedPoints()
	if len(pts) != 5 || !pts[0].Equals(pts[4]) {
		t.Fatalf("closedPoints = %v", pts)
	}
	// Already closed input is returned as-is.
	r2 := Ring{Points: []Point{{0, 0}, {4, 0}, {4, 4}, {0, 0}}}
	if len(r2.closedPoints()) != 4 {
		t.Fatal("already-closed ring should not grow")
	}
	if (Ring{}).closedPoints() != nil {
		t.Fatal("empty ring closedPoints should be nil")
	}
	if !math.IsInf((Ring{}).Envelope().MinX, 1) {
		t.Fatal("empty ring envelope should be empty")
	}
}
