package geom

import (
	"fmt"
	"math"
)

// Envelope is a closed axis-aligned 2-D bounding box. The zero Envelope is
// NOT empty (it is the degenerate box at the origin); use EmptyEnvelope to
// start an accumulation.
type Envelope struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyEnvelope returns an envelope that contains nothing; expanding it with
// any point yields that point's degenerate box.
func EmptyEnvelope() Envelope {
	return Envelope{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// NewEnvelope builds an envelope from two corner points in any order.
func NewEnvelope(x1, y1, x2, y2 float64) Envelope {
	return Envelope{
		MinX: math.Min(x1, x2), MinY: math.Min(y1, y2),
		MaxX: math.Max(x1, x2), MaxY: math.Max(y1, y2),
	}
}

// IsEmpty reports whether the envelope contains no points.
func (e Envelope) IsEmpty() bool { return e.MinX > e.MaxX || e.MinY > e.MaxY }

// Finite reports whether every bound is a finite number.
func (e Envelope) Finite() bool {
	for _, v := range [4]float64{e.MinX, e.MinY, e.MaxX, e.MaxY} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// Width returns the X extent (0 for empty envelopes).
func (e Envelope) Width() float64 {
	if e.IsEmpty() {
		return 0
	}
	return e.MaxX - e.MinX
}

// Height returns the Y extent (0 for empty envelopes).
func (e Envelope) Height() float64 {
	if e.IsEmpty() {
		return 0
	}
	return e.MaxY - e.MinY
}

// Area returns the area of the envelope.
func (e Envelope) Area() float64 { return e.Width() * e.Height() }

// Center returns the midpoint of the envelope.
func (e Envelope) Center() Point { return Point{X: (e.MinX + e.MaxX) / 2, Y: (e.MinY + e.MaxY) / 2} }

// ContainsPoint reports whether (x, y) lies inside or on the boundary.
func (e Envelope) ContainsPoint(x, y float64) bool {
	return x >= e.MinX && x <= e.MaxX && y >= e.MinY && y <= e.MaxY
}

// ContainsEnvelope reports whether o lies fully within e (boundaries touch
// counts as contained). An empty o is contained in everything non-empty.
func (e Envelope) ContainsEnvelope(o Envelope) bool {
	if e.IsEmpty() {
		return false
	}
	if o.IsEmpty() {
		return true
	}
	return o.MinX >= e.MinX && o.MaxX <= e.MaxX && o.MinY >= e.MinY && o.MaxY <= e.MaxY
}

// Intersects reports whether the closed boxes share at least one point.
func (e Envelope) Intersects(o Envelope) bool {
	if e.IsEmpty() || o.IsEmpty() {
		return false
	}
	return e.MinX <= o.MaxX && o.MinX <= e.MaxX && e.MinY <= o.MaxY && o.MinY <= e.MaxY
}

// Intersection returns the overlapping box of e and o (empty if disjoint).
func (e Envelope) Intersection(o Envelope) Envelope {
	if !e.Intersects(o) {
		return EmptyEnvelope()
	}
	return Envelope{
		MinX: math.Max(e.MinX, o.MinX), MinY: math.Max(e.MinY, o.MinY),
		MaxX: math.Min(e.MaxX, o.MaxX), MaxY: math.Min(e.MaxY, o.MaxY),
	}
}

// ExpandToPoint grows the envelope in place to cover (x, y).
func (e *Envelope) ExpandToPoint(x, y float64) {
	if x < e.MinX {
		e.MinX = x
	}
	if x > e.MaxX {
		e.MaxX = x
	}
	if y < e.MinY {
		e.MinY = y
	}
	if y > e.MaxY {
		e.MaxY = y
	}
}

// ExpandToEnvelope grows the envelope in place to cover o.
func (e *Envelope) ExpandToEnvelope(o Envelope) {
	if o.IsEmpty() {
		return
	}
	e.ExpandToPoint(o.MinX, o.MinY)
	e.ExpandToPoint(o.MaxX, o.MaxY)
}

// Buffer returns the envelope grown by d on every side. A negative d shrinks
// the box and may empty it.
func (e Envelope) Buffer(d float64) Envelope {
	if e.IsEmpty() {
		return e
	}
	return Envelope{MinX: e.MinX - d, MinY: e.MinY - d, MaxX: e.MaxX + d, MaxY: e.MaxY + d}
}

// DistanceToPoint returns the minimum distance from the box to (x, y); zero
// when the point lies inside.
func (e Envelope) DistanceToPoint(x, y float64) float64 {
	dx := math.Max(0, math.Max(e.MinX-x, x-e.MaxX))
	dy := math.Max(0, math.Max(e.MinY-y, y-e.MaxY))
	return math.Hypot(dx, dy)
}

// ToPolygon converts the envelope to an equivalent polygon (CCW shell).
func (e Envelope) ToPolygon() Polygon {
	return Polygon{Shell: Ring{Points: []Point{
		{e.MinX, e.MinY}, {e.MaxX, e.MinY}, {e.MaxX, e.MaxY}, {e.MinX, e.MaxY}, {e.MinX, e.MinY},
	}}}
}

// RectOf reports whether g is exactly an axis-parallel rectangle and returns
// its envelope: a hole-free Polygon whose shell is the four distinct
// corners of a finite envelope of positive width and height, in cyclic
// order (either orientation, any start vertex, closing vertex optional).
// For such a g, ContainsPoint(g, x, y) is exactly env.ContainsPoint(x, y):
// ringContains is boundary-inclusive, NaN compares false, and a finite
// extent keeps the ray cast's edge arithmetic from overflowing. Everything
// else reports false — degenerate or non-finite corners, holes, an extra
// collinear vertex, a revisited corner.
func RectOf(g Geometry) (Envelope, bool) {
	p, ok := g.(Polygon)
	if !ok || len(p.Holes) != 0 {
		return Envelope{}, false
	}
	pts := p.Shell.Points
	if len(pts) == 5 && pts[4].Equals(pts[0]) {
		pts = pts[:4]
	}
	if len(pts) != 4 {
		return Envelope{}, false
	}
	e := EmptyEnvelope()
	for _, q := range pts {
		e.ExpandToPoint(q.X, q.Y)
	}
	w, h := e.MaxX-e.MinX, e.MaxY-e.MinY
	if !(w > 0 && h > 0) || math.IsInf(w, 0) || math.IsInf(h, 0) {
		return Envelope{}, false
	}
	// Every vertex is a corner (NaN is none), the four are distinct, and
	// every edge moves along exactly one axis — which, for four distinct
	// corners, is the cyclic order.
	seen := 0
	for i, q := range pts {
		onX, onY := q.X == e.MinX || q.X == e.MaxX, q.Y == e.MinY || q.Y == e.MaxY
		next := pts[(i+1)%4]
		if !onX || !onY || (q.X == next.X) == (q.Y == next.Y) {
			return Envelope{}, false
		}
		corner := 0
		if q.X == e.MaxX {
			corner |= 1
		}
		if q.Y == e.MaxY {
			corner |= 2
		}
		seen |= 1 << corner
	}
	if seen != 0xF {
		return Envelope{}, false
	}
	return e, true
}

// String renders the envelope as "BOX(minx miny, maxx maxy)".
func (e Envelope) String() string {
	return fmt.Sprintf("BOX(%g %g, %g %g)", e.MinX, e.MinY, e.MaxX, e.MaxY)
}
