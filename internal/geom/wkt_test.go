package geom

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestWKTPointRoundTrip(t *testing.T) {
	p := Point{1.5, -2.25}
	got := p.WKT()
	if got != "POINT (1.5 -2.25)" {
		t.Fatalf("WKT = %q", got)
	}
	g, err := ParseWKT(got)
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := g.(Point); !ok || !q.Equals(p) {
		t.Fatalf("roundtrip = %#v", g)
	}
}

func TestWKTEmptyForms(t *testing.T) {
	for _, src := range []string{
		"POINT EMPTY", "LINESTRING EMPTY", "POLYGON EMPTY",
		"MULTIPOINT EMPTY", "MULTILINESTRING EMPTY", "MULTIPOLYGON EMPTY",
		"GEOMETRYCOLLECTION EMPTY",
	} {
		g, err := ParseWKT(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !g.IsEmpty() {
			t.Fatalf("%s parsed non-empty: %#v", src, g)
		}
		// Empty geometries print back as their EMPTY form.
		if !strings.HasSuffix(g.WKT(), "EMPTY") {
			t.Fatalf("%s reprints as %q", src, g.WKT())
		}
	}
}

func TestWKTLineString(t *testing.T) {
	g, err := ParseWKT("LINESTRING(0 0, 10 0, 10 10)")
	if err != nil {
		t.Fatal(err)
	}
	l, ok := g.(LineString)
	if !ok || len(l.Points) != 3 {
		t.Fatalf("parsed %#v", g)
	}
	if l.Points[2] != (Point{10, 10}) {
		t.Fatalf("points = %v", l.Points)
	}
}

func TestWKTPolygonWithHole(t *testing.T) {
	src := "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))"
	g, err := ParseWKT(src)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := g.(Polygon)
	if !ok || len(p.Holes) != 1 {
		t.Fatalf("parsed %#v", g)
	}
	if got := p.Area(); got != 96 {
		t.Fatalf("area = %v", got)
	}
	// Round trip.
	g2, err := ParseWKT(p.WKT())
	if err != nil {
		t.Fatal(err)
	}
	if g2.(Polygon).Area() != 96 {
		t.Fatal("roundtrip lost area")
	}
}

func TestWKTMultiPointBothForms(t *testing.T) {
	flat, err := ParseWKT("MULTIPOINT (1 2, 3 4)")
	if err != nil {
		t.Fatal(err)
	}
	nested, err := ParseWKT("MULTIPOINT ((1 2), (3 4))")
	if err != nil {
		t.Fatal(err)
	}
	f := flat.(MultiPoint)
	n := nested.(MultiPoint)
	if len(f.Points) != 2 || len(n.Points) != 2 || f.Points[1] != n.Points[1] {
		t.Fatalf("flat=%v nested=%v", f, n)
	}
}

func TestWKTMultiLineString(t *testing.T) {
	g, err := ParseWKT("MULTILINESTRING ((0 0, 1 1), (2 2, 3 3, 4 4))")
	if err != nil {
		t.Fatal(err)
	}
	ml := g.(MultiLineString)
	if len(ml.Lines) != 2 || len(ml.Lines[1].Points) != 3 {
		t.Fatalf("parsed %#v", ml)
	}
}

func TestWKTMultiPolygon(t *testing.T) {
	src := "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 7 5, 7 7, 5 7, 5 5), (5.5 5.5, 6 5.5, 6 6, 5.5 6, 5.5 5.5)))"
	g, err := ParseWKT(src)
	if err != nil {
		t.Fatal(err)
	}
	mp := g.(MultiPolygon)
	if len(mp.Polygons) != 2 || len(mp.Polygons[1].Holes) != 1 {
		t.Fatalf("parsed %#v", mp)
	}
	g2, err := ParseWKT(mp.WKT())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(g2.(MultiPolygon).Polygons) != 2 {
		t.Fatal("roundtrip lost polygons")
	}
}

func TestWKTGeometryCollection(t *testing.T) {
	src := "GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, 1 1))"
	g, err := ParseWKT(src)
	if err != nil {
		t.Fatal(err)
	}
	c := g.(Collection)
	if len(c.Geometries) != 2 {
		t.Fatalf("parsed %#v", c)
	}
	if _, err := ParseWKT(c.WKT()); err != nil {
		t.Fatalf("reparse: %v", err)
	}
}

func TestWKTZMOrdinatesDropped(t *testing.T) {
	g, err := ParseWKT("POINT Z (1 2 3)")
	if err != nil {
		t.Fatal(err)
	}
	if g.(Point) != (Point{1, 2}) {
		t.Fatalf("parsed %#v", g)
	}
	g, err = ParseWKT("LINESTRING ZM (0 0 5 6, 1 1 7 8)")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.(LineString).Points) != 2 {
		t.Fatalf("parsed %#v", g)
	}
}

func TestWKTCaseAndWhitespaceInsensitive(t *testing.T) {
	g, err := ParseWKT("  point( 3   4 )  ")
	if err != nil {
		t.Fatal(err)
	}
	if g.(Point) != (Point{3, 4}) {
		t.Fatalf("parsed %#v", g)
	}
}

func TestWKTScientificNotation(t *testing.T) {
	g, err := ParseWKT("POINT (1e3 -2.5E-2)")
	if err != nil {
		t.Fatal(err)
	}
	p := g.(Point)
	if p.X != 1000 || p.Y != -0.025 {
		t.Fatalf("parsed %#v", p)
	}
}

func TestWKTErrors(t *testing.T) {
	bad := []string{
		"",
		"CIRCLE (0 0, 5)",
		"POINT (1)",
		"POINT (1 2",
		"POINT (1 2) trailing",
		"POLYGON ((0 0, 1 1)",
		"LINESTRING (a b)",
		"MULTIPOINT ((1 2 3 4 5",
	}
	for _, src := range bad {
		if _, err := ParseWKT(src); err == nil {
			t.Errorf("ParseWKT(%q) should fail", src)
		}
	}
}

func TestMustParseWKTPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseWKT should panic on bad input")
		}
	}()
	MustParseWKT("NOT A GEOMETRY")
}

// Property: WKT round-trips points exactly for finite coordinates.
func TestQuickWKTPointRoundTrip(t *testing.T) {
	f := func(x, y float64) bool {
		if x != x || y != y { // skip NaN inputs
			return true
		}
		p := Point{x, y}
		g, err := ParseWKT(p.WKT())
		if err != nil {
			return false
		}
		q, ok := g.(Point)
		return ok && q.Equals(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Property: WKT round-trips line strings exactly.
func TestQuickWKTLineRoundTrip(t *testing.T) {
	f := func(coords []float64) bool {
		if len(coords) < 4 {
			return true
		}
		var pts []Point
		for i := 0; i+1 < len(coords); i += 2 {
			x, y := coords[i], coords[i+1]
			if x != x || y != y {
				return true
			}
			pts = append(pts, Point{x, y})
		}
		l := LineString{Points: pts}
		g, err := ParseWKT(l.WKT())
		if err != nil {
			return false
		}
		l2, ok := g.(LineString)
		if !ok || len(l2.Points) != len(pts) {
			return false
		}
		for i := range pts {
			if !pts[i].Equals(l2.Points[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// A random polygon shell survives a WKT round trip vertex for vertex (the
// text closes the ring explicitly) and renders to the same text again.
func TestQuickWKTPolygonRoundTrip(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		n := min(len(xs), len(ys))
		if n < 3 {
			return true
		}
		var pts []Point
		for i := 0; i < n; i++ {
			pts = append(pts, Point{float64(xs[i]), float64(ys[i])})
		}
		p := Polygon{Shell: Ring{Points: pts}}
		g, err := ParseWKT(p.WKT())
		if err != nil {
			return false
		}
		closed := p.Shell.closedPoints()
		p2, ok := g.(Polygon)
		if !ok || len(p2.Holes) != 0 || len(p2.Shell.Points) != len(closed) || p2.WKT() != p.WKT() {
			return false
		}
		for i := range closed {
			if !closed[i].Equals(p2.Shell.Points[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
