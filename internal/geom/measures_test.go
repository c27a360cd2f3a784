package geom

import (
	"math"
	"testing"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestCentroidPointForms(t *testing.T) {
	if c := Centroid(Point{3, 4}); c != (Point{3, 4}) {
		t.Fatalf("point centroid = %v", c)
	}
	mp := MultiPoint{Points: []Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}}}
	if c := Centroid(mp); c != (Point{1, 1}) {
		t.Fatalf("multipoint centroid = %v", c)
	}
	if !Centroid(MultiPoint{}).IsEmpty() {
		t.Fatal("empty multipoint centroid should be empty")
	}
}

func TestCentroidLine(t *testing.T) {
	// A straight segment's centroid is its midpoint.
	l := LineString{Points: []Point{{0, 0}, {10, 0}}}
	if c := Centroid(l); c != (Point{5, 0}) {
		t.Fatalf("line centroid = %v", c)
	}
	// Length weighting: a long leg pulls the centroid.
	bent := LineString{Points: []Point{{0, 0}, {10, 0}, {10, 1}}}
	c := Centroid(bent)
	if !(c.X > 4.5 && c.Y < 0.2) {
		t.Fatalf("bent centroid = %v", c)
	}
	// Degenerate line (all same point).
	deg := LineString{Points: []Point{{5, 5}, {5, 5}}}
	if c := Centroid(deg); c != (Point{5, 5}) {
		t.Fatalf("degenerate line centroid = %v", c)
	}
}

func TestCentroidPolygon(t *testing.T) {
	sq := NewEnvelope(0, 0, 10, 10).ToPolygon()
	if c := Centroid(sq); !almostEq(c.X, 5, 1e-9) || !almostEq(c.Y, 5, 1e-9) {
		t.Fatalf("square centroid = %v", c)
	}
	// Orientation independence.
	cw := Polygon{Shell: Ring{Points: []Point{{0, 0}, {0, 10}, {10, 10}, {10, 0}}}}
	if c := Centroid(cw); !almostEq(c.X, 5, 1e-9) || !almostEq(c.Y, 5, 1e-9) {
		t.Fatalf("cw square centroid = %v", c)
	}
	// A hole shifts the centroid away from it.
	holed := Polygon{
		Shell: Ring{Points: []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}},
		Holes: []Ring{{Points: []Point{{6, 4}, {9, 4}, {9, 7}, {6, 7}}}},
	}
	c := Centroid(holed)
	if c.X >= 5 {
		t.Fatalf("hole on the right should pull centroid left: %v", c)
	}
	// Degenerate polygon falls back to vertex mean.
	flat := Polygon{Shell: Ring{Points: []Point{{0, 0}, {10, 0}, {5, 0}}}}
	if c := Centroid(flat); c.IsEmpty() {
		t.Fatal("degenerate polygon centroid should fall back, not be empty")
	}
}

func TestCentroidMultiPolygonWeighted(t *testing.T) {
	// A big square and a tiny one: centroid lands near the big square.
	m := MultiPolygon{Polygons: []Polygon{
		NewEnvelope(0, 0, 10, 10).ToPolygon(),
		NewEnvelope(100, 100, 101, 101).ToPolygon(),
	}}
	c := Centroid(m)
	if c.X > 10 {
		t.Fatalf("small polygon dominated: %v", c)
	}
}

func TestCentroidCollectionDimensionPriority(t *testing.T) {
	col := Collection{Geometries: []Geometry{
		Point{100, 100},
		LineString{Points: []Point{{50, 50}, {60, 50}}},
		NewEnvelope(0, 0, 10, 10).ToPolygon(),
	}}
	c := Centroid(col)
	// The polygon (highest dimension) decides.
	if !almostEq(c.X, 5, 1e-9) || !almostEq(c.Y, 5, 1e-9) {
		t.Fatalf("collection centroid = %v", c)
	}
	linesOnly := Collection{Geometries: []Geometry{
		LineString{Points: []Point{{0, 0}, {10, 0}}},
	}}
	if c := Centroid(linesOnly); c != (Point{5, 0}) {
		t.Fatalf("line collection centroid = %v", c)
	}
	if !Centroid(Collection{}).IsEmpty() {
		t.Fatal("empty collection centroid should be empty")
	}
}

func TestLengthAndArea(t *testing.T) {
	l := LineString{Points: []Point{{0, 0}, {3, 4}}}
	if Length(l) != 5 {
		t.Fatal("line length wrong")
	}
	sq := NewEnvelope(0, 0, 10, 10).ToPolygon()
	if Length(sq) != 40 {
		t.Fatalf("perimeter = %v", Length(sq))
	}
	if Area(sq) != 100 {
		t.Fatalf("area = %v", Area(sq))
	}
	if Length(Point{1, 1}) != 0 || Area(Point{1, 1}) != 0 {
		t.Fatal("point measures should be zero")
	}
	col := Collection{Geometries: []Geometry{l, sq}}
	if Length(col) != 45 || Area(col) != 100 {
		t.Fatal("collection measures wrong")
	}
	holed := Polygon{
		Shell: Ring{Points: []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}},
		Holes: []Ring{{Points: []Point{{2, 2}, {4, 2}, {4, 4}, {2, 4}}}},
	}
	if Length(holed) != 48 {
		t.Fatalf("holed perimeter = %v", Length(holed))
	}
	mp := MultiPolygon{Polygons: []Polygon{sq, sq}}
	if Area(mp) != 200 || Length(mp) != 80 {
		t.Fatal("multipolygon measures wrong")
	}
}
