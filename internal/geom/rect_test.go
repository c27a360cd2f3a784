package geom

import (
	"math"
	"testing"
)

// rectShell lists env's four corners counter-clockwise from (MinX, MinY),
// reversed when cw, rotated to begin at corner start, with the closing
// vertex appended when closed.
func rectShell(env Envelope, start int, cw, closed bool) []Point {
	ccw := []Point{{env.MinX, env.MinY}, {env.MaxX, env.MinY}, {env.MaxX, env.MaxY}, {env.MinX, env.MaxY}}
	pts := make([]Point, 0, 5)
	for i := range 4 {
		k := start + i
		if cw {
			k = start - i + 4
		}
		pts = append(pts, ccw[k%4])
	}
	if closed {
		pts = append(pts, pts[0])
	}
	return pts
}

// rectProbes are the coordinates worth testing against [lo, hi]: the
// bounds, their one-ulp neighbours, the midpoint, ±0, NaN and ±Inf.
func rectProbes(lo, hi float64) []float64 {
	return []float64{
		lo, hi, lo + (hi-lo)/2,
		math.Nextafter(lo, math.Inf(-1)), math.Nextafter(lo, math.Inf(1)),
		math.Nextafter(hi, math.Inf(-1)), math.Nextafter(hi, math.Inf(1)),
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	}
}

// acceptedRects are envelopes RectOf must recognise in every vertex order.
var acceptedRects = map[string]Envelope{
	"unit":          {0, 0, 1, 1},
	"viewport":      {85000.25, 446000.5, 85093.75, 446062.5},
	"negative":      {-7, -300, -2, -1},
	"straddles 0":   {-1, math.Copysign(0, -1), 1, 2},
	"subnormal":     {0, 0, 5e-324, 1e-310},
	"huge finite":   {-1e300, -8e307, 1e300, 8e307},
	"thin sliver":   {10, 10, math.Nextafter(10, 11), 1e6},
	"max magnitude": {math.MaxFloat64 / 2, -1, math.MaxFloat64, 1},
}

func TestRectOfAccepts(t *testing.T) {
	for name, env := range acceptedRects {
		for start := range 4 {
			for _, cw := range []bool{false, true} {
				for _, closed := range []bool{false, true} {
					g := Polygon{Shell: Ring{Points: rectShell(env, start, cw, closed)}}
					got, ok := RectOf(g)
					if !ok || got != env {
						t.Fatalf("%s start %d cw %v closed %v: RectOf = %v, %v; want %v", name, start, cw, closed, got, ok, env)
					}
				}
			}
		}
	}
	if _, ok := RectOf(NewEnvelope(3, 4, 1, 2).ToPolygon()); !ok {
		t.Fatal("ToPolygon's shell is not recognised")
	}
}

func TestRectOfRejects(t *testing.T) {
	sq := func(pts ...Point) Geometry { return Polygon{Shell: Ring{Points: pts}} }
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]Geometry{
		"hole": Polygon{
			Shell: Ring{Points: rectShell(Envelope{0, 0, 10, 10}, 0, false, true)},
			Holes: []Ring{{Points: rectShell(Envelope{2, 2, 3, 3}, 0, true, true)}},
		},
		"zero width":        Polygon{Shell: Ring{Points: rectShell(Envelope{1, 0, 1, 1}, 0, false, true)}},
		"zero height":       Polygon{Shell: Ring{Points: rectShell(Envelope{0, 2, 1, 2}, 1, true, false)}},
		"NaN corner":        sq(Point{0, 0}, Point{1, 0}, Point{1, nan}, Point{0, 1}),
		"NaN corner (all)":  Polygon{Shell: Ring{Points: rectShell(Envelope{nan, 0, 1, 1}, 0, false, true)}},
		"+Inf corner":       Polygon{Shell: Ring{Points: rectShell(Envelope{0, 0, inf, 1}, 0, false, true)}},
		"-Inf corner":       Polygon{Shell: Ring{Points: rectShell(Envelope{0, -inf, 1, 1}, 2, true, false)}},
		"overflowing width": Polygon{Shell: Ring{Points: rectShell(Envelope{-math.MaxFloat64, 0, math.MaxFloat64, 1}, 0, false, true)}},
		"collinear vertex":  sq(Point{0, 0}, Point{0.5, 0}, Point{1, 0}, Point{1, 1}, Point{0, 1}, Point{0, 0}),
		"revisited corner":  sq(Point{0, 0}, Point{1, 0}, Point{1, 1}, Point{1, 0}),
		"revisited, closed": sq(Point{0, 0}, Point{1, 0}, Point{0, 0}, Point{0, 1}, Point{0, 0}),
		"crossed (bowtie)":  sq(Point{0, 0}, Point{1, 1}, Point{1, 0}, Point{0, 1}),
		"non-axis quad":     sq(Point{0, 0}, Point{2, 1}, Point{3, 3}, Point{1, 2}),
		"rotated square":    sq(Point{1, 0}, Point{2, 1}, Point{1, 2}, Point{0, 1}),
		"triangle":          sq(Point{0, 0}, Point{1, 0}, Point{1, 1}),
		"triangle, closed":  sq(Point{0, 0}, Point{1, 0}, Point{1, 1}, Point{0, 0}),
		"open fifth vertex": sq(Point{0, 0}, Point{1, 0}, Point{1, 1}, Point{0, 1}, Point{0, 0.5}),
		"empty polygon":     Polygon{},
		"multipolygon":      MultiPolygon{Polygons: []Polygon{NewEnvelope(0, 0, 1, 1).ToPolygon()}},
		"point":             Point{1, 1},
		"linestring":        LineString{Points: rectShell(Envelope{0, 0, 1, 1}, 0, false, true)},
	}
	for name, g := range cases {
		if env, ok := RectOf(g); ok {
			t.Errorf("%s: RectOf accepted it as %v", name, env)
		}
	}
}

// TestRectOfContainsPointIsCompare is the recogniser's contract: for every
// accepted shape, ContainsPoint is exactly the closed envelope compare at
// the corners, on the edges, one ulp either side of every bound, and at
// ±0, NaN and ±Inf.
func TestRectOfContainsPointIsCompare(t *testing.T) {
	for name, env := range acceptedRects {
		xs, ys := rectProbes(env.MinX, env.MaxX), rectProbes(env.MinY, env.MaxY)
		for start := range 4 {
			for _, cw := range []bool{false, true} {
				for _, closed := range []bool{false, true} {
					g := Polygon{Shell: Ring{Points: rectShell(env, start, cw, closed)}}
					rect, ok := RectOf(g)
					if !ok {
						t.Fatalf("%s: not recognised", name)
					}
					for _, x := range xs {
						for _, y := range ys {
							want := rect.MinX <= x && x <= rect.MaxX && rect.MinY <= y && y <= rect.MaxY
							if got := ContainsPoint(g, x, y); got != want {
								t.Fatalf("%s start %d cw %v closed %v: ContainsPoint(%v, %v) = %v, compare %v",
									name, start, cw, closed, x, y, got, want)
							}
						}
					}
				}
			}
		}
	}
}
