package geom

import "math"

// orientation classifies the turn p→q→r: +1 counter-clockwise, -1 clockwise,
// 0 collinear. It is the sign of the cross product (q-p)×(r-p).
func orientation(p, q, r Point) int {
	v := (q.X-p.X)*(r.Y-p.Y) - (q.Y-p.Y)*(r.X-p.X)
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// onSegment reports whether collinear point r lies on segment pq.
func onSegment(p, q, r Point) bool {
	return math.Min(p.X, q.X) <= r.X && r.X <= math.Max(p.X, q.X) &&
		math.Min(p.Y, q.Y) <= r.Y && r.Y <= math.Max(p.Y, q.Y)
}

// SegmentsIntersect reports whether closed segments ab and cd share a point.
func SegmentsIntersect(a, b, c, d Point) bool {
	o1 := orientation(a, b, c)
	o2 := orientation(a, b, d)
	o3 := orientation(c, d, a)
	o4 := orientation(c, d, b)
	if o1 != o2 && o3 != o4 {
		return true
	}
	// Collinear touching cases.
	if o1 == 0 && onSegment(a, b, c) {
		return true
	}
	if o2 == 0 && onSegment(a, b, d) {
		return true
	}
	if o3 == 0 && onSegment(c, d, a) {
		return true
	}
	if o4 == 0 && onSegment(c, d, b) {
		return true
	}
	return false
}

// ringContains reports whether (x, y) is inside the ring using the even–odd
// (ray casting) rule. Points exactly on the boundary are reported as inside,
// which matches the closed-region semantics the refinement step needs.
func ringContains(r Ring, x, y float64) bool {
	pts := r.closedPoints()
	if len(pts) < 4 {
		return false
	}
	inside := false
	for i := 1; i < len(pts); i++ {
		p1, p2 := pts[i-1], pts[i]
		// Boundary check: point on segment p1p2.
		if orientation(p1, p2, Point{x, y}) == 0 && onSegment(p1, p2, Point{x, y}) {
			return true
		}
		// Cast a ray towards +X: count edges crossing the horizontal line at y.
		if (p1.Y > y) != (p2.Y > y) {
			xCross := p1.X + (y-p1.Y)*(p2.X-p1.X)/(p2.Y-p1.Y)
			if x < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

// PolygonContainsPoint reports whether (x, y) lies inside the polygon
// (boundary inclusive), honouring holes.
func PolygonContainsPoint(p Polygon, x, y float64) bool {
	if !ringContains(p.Shell, x, y) {
		return false
	}
	for _, h := range p.Holes {
		if ringContainsExclusive(h, x, y) {
			return false
		}
	}
	return true
}

// ringContainsExclusive is ringContains with boundary points treated as
// outside. Hole boundaries belong to the polygon, so a point on a hole's rim
// is still contained in the polygon.
func ringContainsExclusive(r Ring, x, y float64) bool {
	pts := r.closedPoints()
	if len(pts) < 4 {
		return false
	}
	inside := false
	for i := 1; i < len(pts); i++ {
		p1, p2 := pts[i-1], pts[i]
		if orientation(p1, p2, Point{x, y}) == 0 && onSegment(p1, p2, Point{x, y}) {
			return false // on the hole rim: not strictly inside the hole
		}
		if (p1.Y > y) != (p2.Y > y) {
			xCross := p1.X + (y-p1.Y)*(p2.X-p1.X)/(p2.Y-p1.Y)
			if x < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

// MultiPolygonContainsPoint reports whether any member polygon contains (x, y).
func MultiPolygonContainsPoint(m MultiPolygon, x, y float64) bool {
	for _, p := range m.Polygons {
		if PolygonContainsPoint(p, x, y) {
			return true
		}
	}
	return false
}

// ContainsPoint evaluates point containment for any geometry type. Lines and
// points use exact coordinate matching, areal types use interior+boundary.
func ContainsPoint(g Geometry, x, y float64) bool {
	switch t := g.(type) {
	case Point:
		return t.X == x && t.Y == y
	case MultiPoint:
		for _, p := range t.Points {
			if p.X == x && p.Y == y {
				return true
			}
		}
		return false
	case LineString:
		q := Point{x, y}
		for i := 1; i < len(t.Points); i++ {
			if orientation(t.Points[i-1], t.Points[i], q) == 0 && onSegment(t.Points[i-1], t.Points[i], q) {
				return true
			}
		}
		return false
	case MultiLineString:
		for _, l := range t.Lines {
			if ContainsPoint(l, x, y) {
				return true
			}
		}
		return false
	case Polygon:
		return PolygonContainsPoint(t, x, y)
	case MultiPolygon:
		return MultiPolygonContainsPoint(t, x, y)
	case Collection:
		for _, sub := range t.Geometries {
			if ContainsPoint(sub, x, y) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// BoxRelation classifies a box against an areal geometry, the primitive the
// regular-grid refinement step relies on (paper §3.3): a cell fully inside
// accepts all its points in one step, a cell fully outside rejects them, and
// only boundary cells require exhaustive per-point tests.
type BoxRelation uint8

// Box–geometry relations.
const (
	BoxOutside  BoxRelation = iota // box and geometry are disjoint
	BoxInside                      // box lies entirely within the geometry
	BoxBoundary                    // box straddles the geometry boundary
)

// String names the relation for diagnostics.
func (r BoxRelation) String() string {
	switch r {
	case BoxOutside:
		return "outside"
	case BoxInside:
		return "inside"
	default:
		return "boundary"
	}
}

// ringIntersectsBox reports whether any ring edge touches the box.
func ringIntersectsBox(r Ring, e Envelope) bool {
	pts := r.closedPoints()
	corners := [4]Point{
		{e.MinX, e.MinY}, {e.MaxX, e.MinY}, {e.MaxX, e.MaxY}, {e.MinX, e.MaxY},
	}
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		// A NaN or infinite vertex defeats the crossing tests, so the box
		// counts as crossed and each point goes to the exact test (c-c is
		// 0 only when the sum is finite).
		if c := a.X + a.Y + b.X + b.Y; c-c != 0 {
			return true
		}
		// Quick reject on the segment's own bbox.
		if math.Max(a.X, b.X) < e.MinX || math.Min(a.X, b.X) > e.MaxX ||
			math.Max(a.Y, b.Y) < e.MinY || math.Min(a.Y, b.Y) > e.MaxY {
			continue
		}
		// Endpoint inside the box.
		if e.ContainsPoint(a.X, a.Y) || e.ContainsPoint(b.X, b.Y) {
			return true
		}
		for j := 0; j < 4; j++ {
			if SegmentsIntersect(a, b, corners[j], corners[(j+1)%4]) {
				return true
			}
		}
	}
	return false
}

// ClassifyBoxPolygon classifies box e against polygon p.
func ClassifyBoxPolygon(p Polygon, e Envelope) BoxRelation {
	if e.IsEmpty() || p.IsEmpty() {
		return BoxOutside
	}
	if !e.Intersects(p.Envelope()) {
		return BoxOutside
	}
	// Any boundary edge (shell or hole) crossing the box makes it a
	// boundary cell.
	if ringIntersectsBox(p.Shell, e) {
		return BoxBoundary
	}
	for _, h := range p.Holes {
		if ringIntersectsBox(h, e) {
			return BoxBoundary
		}
	}
	// No edges cross: the box is wholly inside or wholly outside, decided by
	// any single interior point — the centre.
	c := e.Center()
	if PolygonContainsPoint(p, c.X, c.Y) {
		return BoxInside
	}
	return BoxOutside
}

// ClassifyBoxMultiPolygon classifies e against a multipolygon. The box is
// inside when it is inside any member; boundary when it touches any member
// boundary without being inside another member.
func ClassifyBoxMultiPolygon(m MultiPolygon, e Envelope) BoxRelation {
	rel := BoxOutside
	for _, p := range m.Polygons {
		switch ClassifyBoxPolygon(p, e) {
		case BoxInside:
			return BoxInside
		case BoxBoundary:
			rel = BoxBoundary
		}
	}
	return rel
}

// ClassifyBox classifies a box against any geometry. For non-areal types the
// result is never BoxInside: boxes touching a line/point are boundary cells.
func ClassifyBox(g Geometry, e Envelope) BoxRelation {
	switch t := g.(type) {
	case Polygon:
		return ClassifyBoxPolygon(t, e)
	case MultiPolygon:
		return ClassifyBoxMultiPolygon(t, e)
	case Point:
		if e.ContainsPoint(t.X, t.Y) {
			return BoxBoundary
		}
		return BoxOutside
	case MultiPoint:
		for _, p := range t.Points {
			if e.ContainsPoint(p.X, p.Y) {
				return BoxBoundary
			}
		}
		return BoxOutside
	case LineString:
		if lineIntersectsBox(t, e) {
			return BoxBoundary
		}
		return BoxOutside
	case MultiLineString:
		for _, l := range t.Lines {
			if lineIntersectsBox(l, e) {
				return BoxBoundary
			}
		}
		return BoxOutside
	case Collection:
		rel := BoxOutside
		for _, sub := range t.Geometries {
			switch ClassifyBox(sub, e) {
			case BoxInside:
				return BoxInside
			case BoxBoundary:
				rel = BoxBoundary
			}
		}
		return rel
	default:
		return BoxOutside
	}
}

// lineIntersectsBox reports whether any segment of l touches the box.
func lineIntersectsBox(l LineString, e Envelope) bool {
	if len(l.Points) == 1 {
		return e.ContainsPoint(l.Points[0].X, l.Points[0].Y)
	}
	corners := [4]Point{
		{e.MinX, e.MinY}, {e.MaxX, e.MinY}, {e.MaxX, e.MaxY}, {e.MinX, e.MaxY},
	}
	for i := 1; i < len(l.Points); i++ {
		a, b := l.Points[i-1], l.Points[i]
		if e.ContainsPoint(a.X, a.Y) || e.ContainsPoint(b.X, b.Y) {
			return true
		}
		for j := 0; j < 4; j++ {
			if SegmentsIntersect(a, b, corners[j], corners[(j+1)%4]) {
				return true
			}
		}
	}
	return false
}

// Intersects reports whether geometries a and b share at least one point.
// It covers the type pairs used by the demo queries (point, line, polygon and
// their Multi* forms). Envelope pre-filtering is applied throughout.
func Intersects(a, b Geometry) bool {
	if a.IsEmpty() || b.IsEmpty() {
		return false
	}
	if !a.Envelope().Intersects(b.Envelope()) {
		return false
	}
	// Normalise: handle by the "simpler" operand where possible.
	switch t := a.(type) {
	case Point:
		return ContainsPoint(b, t.X, t.Y)
	case MultiPoint:
		for _, p := range t.Points {
			if ContainsPoint(b, p.X, p.Y) {
				return true
			}
		}
		return false
	case LineString:
		return lineIntersectsGeometry(t, b)
	case MultiLineString:
		for _, l := range t.Lines {
			if lineIntersectsGeometry(l, b) {
				return true
			}
		}
		return false
	case Polygon:
		return polygonIntersectsGeometry(t, b)
	case MultiPolygon:
		for _, p := range t.Polygons {
			if polygonIntersectsGeometry(p, b) {
				return true
			}
		}
		return false
	case Collection:
		for _, sub := range t.Geometries {
			if Intersects(sub, b) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

func lineIntersectsGeometry(l LineString, g Geometry) bool {
	switch t := g.(type) {
	case Point:
		return ContainsPoint(l, t.X, t.Y)
	case MultiPoint:
		for _, p := range t.Points {
			if ContainsPoint(l, p.X, p.Y) {
				return true
			}
		}
		return false
	case LineString:
		for i := 1; i < len(l.Points); i++ {
			for j := 1; j < len(t.Points); j++ {
				if SegmentsIntersect(l.Points[i-1], l.Points[i], t.Points[j-1], t.Points[j]) {
					return true
				}
			}
		}
		return false
	case MultiLineString:
		for _, o := range t.Lines {
			if lineIntersectsGeometry(l, o) {
				return true
			}
		}
		return false
	case Polygon:
		return linePolygonIntersect(l, t)
	case MultiPolygon:
		for _, p := range t.Polygons {
			if linePolygonIntersect(l, p) {
				return true
			}
		}
		return false
	case Collection:
		for _, sub := range t.Geometries {
			if lineIntersectsGeometry(l, sub) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

func linePolygonIntersect(l LineString, p Polygon) bool {
	// Any vertex inside the polygon.
	for _, pt := range l.Points {
		if PolygonContainsPoint(p, pt.X, pt.Y) {
			return true
		}
	}
	// Any segment crossing the shell or a hole boundary.
	rings := append([]Ring{p.Shell}, p.Holes...)
	for _, r := range rings {
		pts := r.closedPoints()
		for i := 1; i < len(l.Points); i++ {
			for j := 1; j < len(pts); j++ {
				if SegmentsIntersect(l.Points[i-1], l.Points[i], pts[j-1], pts[j]) {
					return true
				}
			}
		}
	}
	return false
}

func polygonIntersectsGeometry(p Polygon, g Geometry) bool {
	switch t := g.(type) {
	case Point:
		return PolygonContainsPoint(p, t.X, t.Y)
	case MultiPoint:
		for _, q := range t.Points {
			if PolygonContainsPoint(p, q.X, q.Y) {
				return true
			}
		}
		return false
	case LineString:
		return linePolygonIntersect(t, p)
	case MultiLineString:
		for _, l := range t.Lines {
			if linePolygonIntersect(l, p) {
				return true
			}
		}
		return false
	case Polygon:
		return polygonsIntersect(p, t)
	case MultiPolygon:
		for _, q := range t.Polygons {
			if polygonsIntersect(p, q) {
				return true
			}
		}
		return false
	case Collection:
		for _, sub := range t.Geometries {
			if polygonIntersectsGeometry(p, sub) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

func polygonsIntersect(a, b Polygon) bool {
	// A vertex of one inside the other.
	for _, pt := range a.Shell.Points {
		if PolygonContainsPoint(b, pt.X, pt.Y) {
			return true
		}
	}
	for _, pt := range b.Shell.Points {
		if PolygonContainsPoint(a, pt.X, pt.Y) {
			return true
		}
	}
	// Shell edges crossing.
	ap := a.Shell.closedPoints()
	bp := b.Shell.closedPoints()
	for i := 1; i < len(ap); i++ {
		for j := 1; j < len(bp); j++ {
			if SegmentsIntersect(ap[i-1], ap[i], bp[j-1], bp[j]) {
				return true
			}
		}
	}
	return false
}
