package geom

import (
	"math"
	"math/rand"
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

// FuzzRectPolygonContains holds the ray cast over a rectangle's polygon
// to the envelope's closed compare: for every envelope with non-NaN bounds
// and positive width and height — ±Inf sides included, where a vertical
// edge's interpolated crossing would be Inf − Inf — and every finite point.
func FuzzRectPolygonContains(f *testing.F) {
	inf := math.Inf(1)
	f.Add(0.0, 0.0, inf, 2000.0, 5.0, 5.0)
	f.Add(-inf, 0.0, 0.0, 2000.0, -5.0, 5.0)
	f.Add(0.0, -inf, 2000.0, 0.0, 5.0, -5.0)
	f.Add(-inf, -inf, inf, inf, 0.0, 0.0)
	f.Add(-1e308, -1e308, 1e308, 1e308, 1.0, -1.0)
	f.Add(0.0, 0.0, 1.0, 1.0, 1.0, 0.5)
	f.Fuzz(func(t *testing.T, minX, minY, maxX, maxY, x, y float64) {
		e := Envelope{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
		if !(e.Width() > 0 && e.Height() > 0) || math.IsInf(x, 0) || math.IsNaN(x) || math.IsInf(y, 0) || math.IsNaN(y) {
			t.Skip()
		}
		if got, want := PolygonContainsPoint(e.ToPolygon(), x, y), e.ContainsPoint(x, y); got != want {
			t.Fatalf("%v: polygon contains (%v, %v) = %v, envelope %v", e, x, y, got, want)
		}
	})
}

// TestIntersectionWithFiniteExtent pins why a viewport clipped to a finite
// extent never carries a non-finite bound: for envelopes with NaN or ±Inf
// in any bound, the intersection with a finite extent is empty or has four
// finite bounds.
func TestIntersectionWithFiniteExtent(t *testing.T) {
	extent := Envelope{MinX: -10, MinY: 5, MaxX: 1000, MaxY: 2000}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 500, -1e308, 1e308}
	for _, minX := range specials {
		for _, minY := range specials {
			for _, maxX := range specials {
				for _, maxY := range specials {
					e := Envelope{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
					c := e.Intersection(extent)
					if c.IsEmpty() {
						continue
					}
					for _, v := range []float64{c.MinX, c.MinY, c.MaxX, c.MaxY} {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("%v ∩ %v = %v: a non-finite bound", e, extent, c)
						}
					}
				}
			}
		}
	}
}

// TestClassifyBoxRectMatchesPolygon holds the rectangle classifier to the
// polygon classifier over the rectangle's polygon, in every vertex order:
// boxes built from each axis's probes (shared edges and corners, one-ulp
// neighbours, zero-width and zero-height boxes, ±0, NaN and ±Inf bounds),
// the empty envelope, and random boxes around the rectangle. Two of
// acceptedRects are left out: at the largest and the subnormal magnitudes
// the polygon classifier's orientation products overflow or underflow
// and misjudge a box the compares get right.
func TestClassifyBoxRectMatchesPolygon(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var rects []Envelope
	for name, r := range acceptedRects {
		if name != "max magnitude" && name != "subnormal" {
			rects = append(rects, r)
		}
	}
	for range 4 {
		x, y := rng.Float64()*2000-1000, rng.Float64()*2000-1000
		rects = append(rects, Envelope{x, y, x + rng.Float64()*300 + 1e-3, y + rng.Float64()*300 + 1e-3})
	}
	for _, r := range rects {
		xs, ys := rectProbes(r.MinX, r.MaxX), rectProbes(r.MinY, r.MaxY)
		boxes := []Envelope{EmptyEnvelope()}
		for _, x0 := range xs {
			for _, x1 := range xs {
				for _, y0 := range ys {
					for _, y1 := range ys {
						boxes = append(boxes, Envelope{x0, y0, x1, y1})
					}
				}
			}
		}
		// A coordinate within a quarter of the rectangle's size of it, as a
		// blend of two finite ends, so huge rectangles keep finite boxes.
		near := func(lo, hi float64) float64 {
			a, b, t := lo-(hi-lo)/4, hi+(hi-lo)/4, rng.Float64()
			return (1-t)*a + t*b
		}
		for range 2000 {
			boxes = append(boxes, NewEnvelope(near(r.MinX, r.MaxX), near(r.MinY, r.MaxY), near(r.MinX, r.MaxX), near(r.MinY, r.MaxY)))
		}
		for start := range 4 {
			for _, cw := range []bool{false, true} {
				for _, closed := range []bool{false, true} {
					g := Polygon{Shell: Ring{Points: rectShell(r, start, cw, closed)}}
					if got, ok := RectOf(g); !ok || got != r {
						t.Fatalf("%v: RectOf = %v, %v", r, got, ok)
					}
					for _, e := range boxes {
						if got, want := ClassifyBoxRect(r, e), ClassifyBoxPolygon(g, e); got != want {
							t.Fatalf("%v start %d cw %v closed %v: box %v: ClassifyBoxRect %v, ClassifyBoxPolygon %v",
								r, start, cw, closed, e, got, want)
						}
					}
				}
			}
		}
	}
}

// TestClassifyBoxPolygonInfiniteBox: a box spanning a whole axis crosses
// any polygon it meets, so it is a boundary box where it meets the
// polygon and an outside box where it passes by. Its centre is NaN and
// its edges run through ±Inf, so the edge and centre tests decide it on
// its part within the polygon's envelope.
func TestClassifyBoxPolygonInfiniteBox(t *testing.T) {
	inf := math.Inf(1)
	sq := Polygon{Shell: Ring{Points: []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}}}
	tri := Polygon{Shell: Ring{Points: []Point{{0, 0}, {10, 0}, {0, 10}}}}
	cases := []struct {
		p    Polygon
		e    Envelope
		want BoxRelation
	}{
		{sq, Envelope{-inf, 3, inf, 7}, BoxBoundary},
		{sq, Envelope{3, -inf, 7, inf}, BoxBoundary},
		{sq, Envelope{-inf, 5, inf, 5}, BoxBoundary},
		{sq, Envelope{-inf, -inf, inf, inf}, BoxBoundary},
		{sq, Envelope{2, -inf, 8, 5}, BoxBoundary},
		{sq, Envelope{-inf, 11, inf, 12}, BoxOutside},
		{tri, Envelope{8, 8, inf, inf}, BoxOutside},
		{tri, Envelope{4, 4, inf, inf}, BoxBoundary},
		{tri, Envelope{6, -inf, 9, inf}, BoxBoundary},
	}
	for i, c := range cases {
		if got := ClassifyBoxPolygon(c.p, c.e); got != c.want {
			t.Errorf("case %d: ClassifyBoxPolygon(%v) = %v, want %v", i, c.e, got, c.want)
		}
	}
}
