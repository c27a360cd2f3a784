package geom

// Centroid returns the centroid of g following the OGC semantics for the
// highest-dimension component: area centroid for polygons, length-weighted
// midpoint for lines, arithmetic mean for points. Empty geometries yield
// the empty point.
func Centroid(g Geometry) Point {
	switch t := g.(type) {
	case Point:
		return t
	case MultiPoint:
		if len(t.Points) == 0 {
			return EmptyPoint()
		}
		var sx, sy float64
		for _, p := range t.Points {
			sx += p.X
			sy += p.Y
		}
		n := float64(len(t.Points))
		return Point{X: sx / n, Y: sy / n}
	case LineString:
		return lineCentroid(t)
	case MultiLineString:
		var sx, sy, sw float64
		for _, l := range t.Lines {
			c := lineCentroid(l)
			w := l.Length()
			if c.IsEmpty() {
				continue
			}
			sx += c.X * w
			sy += c.Y * w
			sw += w
		}
		if sw == 0 {
			return EmptyPoint()
		}
		return Point{X: sx / sw, Y: sy / sw}
	case Polygon:
		return polygonCentroid(t)
	case MultiPolygon:
		var sx, sy, sw float64
		for _, p := range t.Polygons {
			c := polygonCentroid(p)
			w := p.Area()
			if c.IsEmpty() {
				continue
			}
			sx += c.X * w
			sy += c.Y * w
			sw += w
		}
		if sw == 0 {
			return EmptyPoint()
		}
		return Point{X: sx / sw, Y: sy / sw}
	case Collection:
		// Highest dimension wins: polygons, then lines, then points.
		var polys MultiPolygon
		var lines MultiLineString
		var pts MultiPoint
		for _, sub := range t.Geometries {
			switch s := sub.(type) {
			case Polygon:
				polys.Polygons = append(polys.Polygons, s)
			case MultiPolygon:
				polys.Polygons = append(polys.Polygons, s.Polygons...)
			case LineString:
				lines.Lines = append(lines.Lines, s)
			case MultiLineString:
				lines.Lines = append(lines.Lines, s.Lines...)
			case Point:
				pts.Points = append(pts.Points, s)
			case MultiPoint:
				pts.Points = append(pts.Points, s.Points...)
			}
		}
		if len(polys.Polygons) > 0 {
			return Centroid(polys)
		}
		if len(lines.Lines) > 0 {
			return Centroid(lines)
		}
		return Centroid(pts)
	default:
		return EmptyPoint()
	}
}

func lineCentroid(l LineString) Point {
	if len(l.Points) == 0 {
		return EmptyPoint()
	}
	if len(l.Points) == 1 {
		return l.Points[0]
	}
	var sx, sy, sw float64
	for i := 1; i < len(l.Points); i++ {
		a, b := l.Points[i-1], l.Points[i]
		w := a.DistanceTo(b)
		sx += (a.X + b.X) / 2 * w
		sy += (a.Y + b.Y) / 2 * w
		sw += w
	}
	if sw == 0 {
		return l.Points[0] // degenerate: all points coincide
	}
	return Point{X: sx / sw, Y: sy / sw}
}

// polygonCentroid uses the shoelace-weighted formula over the shell and
// subtracts hole contributions.
func polygonCentroid(p Polygon) Point {
	if p.IsEmpty() {
		return EmptyPoint()
	}
	cx, cy, area := ringCentroidArea(p.Shell)
	for _, h := range p.Holes {
		hx, hy, ha := ringCentroidArea(h)
		cx -= hx
		cy -= hy
		area -= ha
	}
	if area == 0 {
		// Degenerate polygon: fall back to its vertex mean.
		return Centroid(MultiPoint{Points: p.Shell.Points})
	}
	// Standard shoelace centroid: C = Σ(v_i + v_{i+1})·cross_i / (6A),
	// with area = Σcross/2 the divisor is 6·area.
	return Point{X: cx / (6 * area), Y: cy / (6 * area)}
}

// ringCentroidArea returns the unnormalised centroid sums and the signed
// area magnitude of a ring.
func ringCentroidArea(r Ring) (cx, cy, area float64) {
	pts := r.closedPoints()
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		cross := a.X*b.Y - b.X*a.Y
		cx += (a.X + b.X) * cross
		cy += (a.Y + b.Y) * cross
		area += cross
	}
	area /= 2
	if area < 0 {
		return -cx, -cy, -area
	}
	return cx, cy, area
}

// Length returns the 1-D measure of g: total segment length for lines,
// perimeter for polygons, 0 for points.
func Length(g Geometry) float64 {
	switch t := g.(type) {
	case LineString:
		return t.Length()
	case MultiLineString:
		return t.Length()
	case Polygon:
		total := ringLength(t.Shell)
		for _, h := range t.Holes {
			total += ringLength(h)
		}
		return total
	case MultiPolygon:
		var total float64
		for _, p := range t.Polygons {
			total += Length(p)
		}
		return total
	case Collection:
		var total float64
		for _, sub := range t.Geometries {
			total += Length(sub)
		}
		return total
	default:
		return 0
	}
}

func ringLength(r Ring) float64 {
	pts := r.closedPoints()
	var sum float64
	for i := 1; i < len(pts); i++ {
		sum += pts[i-1].DistanceTo(pts[i])
	}
	return sum
}

// Area returns the 2-D measure of g: polygon area (holes subtracted),
// 0 for lower-dimension geometries.
func Area(g Geometry) float64 {
	switch t := g.(type) {
	case Polygon:
		return t.Area()
	case MultiPolygon:
		return t.Area()
	case Collection:
		var total float64
		for _, sub := range t.Geometries {
			total += Area(sub)
		}
		return total
	default:
		return 0
	}
}
