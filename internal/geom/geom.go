// Package geom implements the subset of the OGC Simple Features Access
// geometry model needed by a spatially-enabled column store: points, line
// strings, polygons (with holes), their Multi* collections, 2-D envelopes,
// WKT encoding, and the spatial predicates used by the filter–refine query
// pipeline (containment, intersection, within-distance).
//
// All coordinates are planar (projected) float64 values; the package has no
// notion of geodesy. This mirrors the paper's setting, where AHN2 points are
// stored in the Dutch national projection (RD New / EPSG:28992).
package geom

import "math"

// Geometry is the common interface of all geometry values.
type Geometry interface {
	// Envelope returns the minimal axis-aligned bounding box.
	Envelope() Envelope
	// IsEmpty reports whether the geometry has no coordinates.
	IsEmpty() bool
	// WKT renders the geometry in Well-Known Text.
	WKT() string
}

// Point is a single 2-D position. Point implements Geometry.
type Point struct {
	X, Y float64
}

// Envelope implements Geometry; a point's envelope is degenerate.
func (p Point) Envelope() Envelope { return Envelope{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y} }

// IsEmpty implements Geometry. A Point with NaN coordinates is empty
// (the WKT form "POINT EMPTY" parses to it).
func (p Point) IsEmpty() bool { return math.IsNaN(p.X) || math.IsNaN(p.Y) }

// EmptyPoint returns the canonical empty point.
func EmptyPoint() Point { return Point{X: math.NaN(), Y: math.NaN()} }

// Equals reports exact coordinate equality with q.
func (p Point) Equals(q Point) bool { return p.X == q.X && p.Y == q.Y }

// DistanceTo returns the Euclidean distance between p and q.
func (p Point) DistanceTo(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// MultiPoint is an unordered collection of points.
type MultiPoint struct {
	Points []Point
}

// Envelope implements Geometry.
func (m MultiPoint) Envelope() Envelope {
	e := EmptyEnvelope()
	for _, p := range m.Points {
		e.ExpandToPoint(p.X, p.Y)
	}
	return e
}

// IsEmpty implements Geometry.
func (m MultiPoint) IsEmpty() bool { return len(m.Points) == 0 }

// LineString is an ordered sequence of at least two positions joined by
// straight segments.
type LineString struct {
	Points []Point
}

// Envelope implements Geometry.
func (l LineString) Envelope() Envelope {
	e := EmptyEnvelope()
	for _, p := range l.Points {
		e.ExpandToPoint(p.X, p.Y)
	}
	return e
}

// IsEmpty implements Geometry.
func (l LineString) IsEmpty() bool { return len(l.Points) == 0 }

// Length returns the sum of segment lengths.
func (l LineString) Length() float64 {
	var sum float64
	for i := 1; i < len(l.Points); i++ {
		sum += l.Points[i-1].DistanceTo(l.Points[i])
	}
	return sum
}

// MultiLineString is a collection of line strings.
type MultiLineString struct {
	Lines []LineString
}

// Envelope implements Geometry.
func (m MultiLineString) Envelope() Envelope {
	e := EmptyEnvelope()
	for _, l := range m.Lines {
		e.ExpandToEnvelope(l.Envelope())
	}
	return e
}

// IsEmpty implements Geometry.
func (m MultiLineString) IsEmpty() bool { return len(m.Lines) == 0 }

// Length returns the total length of all member line strings.
func (m MultiLineString) Length() float64 {
	var sum float64
	for _, l := range m.Lines {
		sum += l.Length()
	}
	return sum
}

// Ring is a closed LineString used as a polygon boundary. The closing
// segment from the last to the first point is implicit if absent.
type Ring struct {
	Points []Point
}

// closedPoints returns the ring vertices with an explicit closing vertex.
func (r Ring) closedPoints() []Point {
	n := len(r.Points)
	if n == 0 {
		return nil
	}
	if r.Points[0].Equals(r.Points[n-1]) {
		return r.Points
	}
	out := make([]Point, n+1)
	copy(out, r.Points)
	out[n] = r.Points[0]
	return out
}

// SignedArea returns the signed area of the ring: positive for
// counter-clockwise orientation, negative for clockwise.
func (r Ring) SignedArea() float64 {
	pts := r.closedPoints()
	var sum float64
	for i := 1; i < len(pts); i++ {
		sum += pts[i-1].X*pts[i].Y - pts[i].X*pts[i-1].Y
	}
	return sum / 2
}

// Envelope returns the bounding box of the ring.
func (r Ring) Envelope() Envelope {
	e := EmptyEnvelope()
	for _, p := range r.Points {
		e.ExpandToPoint(p.X, p.Y)
	}
	return e
}

// Polygon is a shell ring with zero or more hole rings.
type Polygon struct {
	Shell Ring
	Holes []Ring
}

// Envelope implements Geometry. Holes cannot extend the shell.
func (p Polygon) Envelope() Envelope { return p.Shell.Envelope() }

// IsEmpty implements Geometry.
func (p Polygon) IsEmpty() bool { return len(p.Shell.Points) == 0 }

// Area returns the area of the polygon: |shell| minus the hole areas.
func (p Polygon) Area() float64 {
	a := math.Abs(p.Shell.SignedArea())
	for _, h := range p.Holes {
		a -= math.Abs(h.SignedArea())
	}
	return a
}

// MultiPolygon is a collection of polygons.
type MultiPolygon struct {
	Polygons []Polygon
}

// Envelope implements Geometry.
func (m MultiPolygon) Envelope() Envelope {
	e := EmptyEnvelope()
	for _, p := range m.Polygons {
		e.ExpandToEnvelope(p.Envelope())
	}
	return e
}

// IsEmpty implements Geometry.
func (m MultiPolygon) IsEmpty() bool { return len(m.Polygons) == 0 }

// Area returns the total area of all member polygons.
func (m MultiPolygon) Area() float64 {
	var sum float64
	for _, p := range m.Polygons {
		sum += p.Area()
	}
	return sum
}

// Collection is a heterogeneous geometry collection.
type Collection struct {
	Geometries []Geometry
}

// Envelope implements Geometry.
func (c Collection) Envelope() Envelope {
	e := EmptyEnvelope()
	for _, g := range c.Geometries {
		e.ExpandToEnvelope(g.Envelope())
	}
	return e
}

// IsEmpty implements Geometry.
func (c Collection) IsEmpty() bool { return len(c.Geometries) == 0 }
