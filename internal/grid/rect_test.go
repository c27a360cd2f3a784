package grid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
	"gisnav/internal/geom"
)

// gridTwin is env's rectangle with one extra collinear vertex on its lower
// edge: the same point set, which RectOf does not recognise, so refinement
// over it takes the cell grid. It is the rectangle path's differential
// reference.
func gridTwin(env geom.Envelope) GeometryRegion {
	return GeometryRegion{G: geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: env.MinX, Y: env.MinY}, {X: (env.MinX + env.MaxX) / 2, Y: env.MinY}, {X: env.MaxX, Y: env.MinY},
		{X: env.MaxX, Y: env.MaxY}, {X: env.MinX, Y: env.MaxY}, {X: env.MinX, Y: env.MinY},
	}}}}
}

// rectCands are the candidate-list shapes the rectangle path is held to:
// full, fragmented, single-range, one-row and empty lists, and lists cut at
// refineBlock-1, refineBlock and refineBlock+1 rows (alone and repeated),
// so every cancellation-block seam is crossed.
func rectCands(n int, rng *rand.Rand) map[string][]colstore.Range {
	var fragmented []colstore.Range
	for at := rng.Intn(50); at < n; at += 1 + rng.Intn(700) {
		end := min(at+1+rng.Intn(400), n)
		fragmented = append(fragmented, colstore.Range{Start: at, End: end})
		at = end
	}
	cands := map[string][]colstore.Range{
		"full":       colstore.FullRange(n),
		"fragmented": fragmented,
		"single":     {{Start: n / 3, End: 2 * n / 3}},
		"one-row":    {{Start: 17, End: 18}},
		"empty":      nil,
	}
	for _, d := range []int{-1, 0, 1} {
		l := refineBlock + d
		cands[fmt.Sprintf("block%+d", d)] = []colstore.Range{{Start: 5, End: 5 + l}}
		cands[fmt.Sprintf("3xblock%+d", d)] = []colstore.Range{
			{Start: 0, End: l}, {Start: l + 3, End: 2*l + 3}, {Start: 2*l + 9, End: 3*l + 9},
		}
	}
	return cands
}

// rectCloud is randomCloud with a share of the points snapped exactly onto
// the bounds and corners of env, where the closed compare decides.
func rectCloud(n int, env geom.Envelope, seed int64) (xs, ys []float64) {
	xs, ys = randomCloud(n, geom.NewEnvelope(0, 0, 1000, 1000), seed)
	for i := 0; i < n; i += 7 {
		switch i % 4 {
		case 0:
			xs[i] = env.MinX
		case 1:
			xs[i] = env.MaxX
		case 2:
			ys[i] = env.MinY
		default:
			xs[i], ys[i] = env.MaxX, env.MaxY
		}
	}
	return xs, ys
}

var testRects = map[string]geom.Envelope{
	"small":    geom.NewEnvelope(437.25, 512.5, 488.75, 563),
	"large":    geom.NewEnvelope(100, 150, 820, 700),
	"all":      geom.NewEnvelope(-1, -1, 1001, 1001),
	"outside":  geom.NewEnvelope(2000, 2000, 2100, 2100),
	"sliver":   geom.NewEnvelope(500, 0, math.Nextafter(500, 501), 1000),
	"negative": geom.NewEnvelope(-50, -50, 10, 10),
}

// TestRefineRectMatchesGridAndExhaustive pins the rectangle path row for
// row (order included) to the cell grid over the same rectangle's
// extra-vertex twin and to the exhaustive reference, over every candidate
// shape, with the caller's existing matches preserved.
func TestRefineRectMatchesGridAndExhaustive(t *testing.T) {
	const n = 3*refineBlock + 500
	rng := rand.New(rand.NewSource(41))
	for rname, env := range testRects {
		xs, ys := rectCloud(n, env, 42)
		region := GeometryRegion{G: env.ToPolygon()}
		if _, ok := RectOf(region); !ok {
			t.Fatalf("%s: rectangle not recognised", rname)
		}
		twin := gridTwin(env)
		if _, ok := RectOf(twin); ok {
			t.Fatalf("%s: extra-vertex twin recognised as a rectangle", rname)
		}
		for cname, cand := range rectCands(n, rng) {
			prefix := []int{-7, -3}
			want, _ := RefineExhaustiveInto(xs, ys, cand, region, slices.Clone(prefix))
			got, st := RefineInto(xs, ys, cand, region, Options{}, slices.Clone(prefix))
			viaGrid, gst := RefineInto(xs, ys, cand, twin, Options{}, slices.Clone(prefix))
			if !slices.Equal(got, want) || !slices.Equal(viaGrid, want) {
				t.Fatalf("%s %s: rect %d rows, grid %d, exhaustive %d", rname, cname, len(got), len(viaGrid), len(want))
			}
			if st.Matches != gst.Matches || st.CandidateRows != gst.CandidateRows {
				t.Fatalf("%s %s: rect stats %+v, grid %+v", rname, cname, st, gst)
			}
		}
	}
}

// TestRefineRectStats states what the rectangle path reports: no grid, no
// cells, no exact tests — every match is a bulk accept.
func TestRefineRectStats(t *testing.T) {
	env := geom.NewEnvelope(10, 10, 90, 90)
	xs, ys := randomCloud(4096, geom.NewEnvelope(0, 0, 100, 100), 10)
	_, st := RefineInto(xs, ys, colstore.FullRange(len(xs)), GeometryRegion{G: env.ToPolygon()}, Options{}, nil)
	want := Stats{CandidateRows: len(xs), BulkAccepted: st.Matches, Matches: st.Matches}
	if st != want || st.Matches == 0 {
		t.Fatalf("rect stats %+v, want %+v", st, want)
	}
}

// TestRefineRectCancelAtBlockBoundary: the token is polled once per
// refineBlock slice, before the slice's first row, so a fired token stops
// the pass on a block boundary having appended nothing — exactly as the
// cell grid and the exhaustive arm of a non-finite envelope stop — and
// leaves the caller's matches intact.
func TestRefineRectCancelAtBlockBoundary(t *testing.T) {
	env := geom.NewEnvelope(-1, -1, 1001, 1001)
	const n = 3*refineBlock + 500
	xs, ys := randomCloud(n, env, 43)
	done := make(chan struct{})
	close(done)
	var fired cancel.Token
	fired.Reset(done)
	region := GeometryRegion{G: env.ToPolygon()}
	// A vertex at +Inf: the envelope cannot be gridded, so RefineInto takes
	// the exhaustive per-point test.
	nonFinite := GeometryRegion{G: geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: -1, Y: -1}, {X: 1001, Y: -1}, {X: math.Inf(1), Y: 1001}, {X: -1, Y: -1},
	}}}}
	for cname, cand := range rectCands(n, rand.New(rand.NewSource(44))) {
		prefix := []int{1, 2, 3}
		got, st := RefineInto(xs, ys, cand, region, Options{Cancel: &fired}, slices.Clone(prefix))
		viaGrid, gst := RefineInto(xs, ys, cand, gridTwin(env), Options{Cancel: &fired}, slices.Clone(prefix))
		exh, est := RefineInto(xs, ys, cand, nonFinite, Options{Cancel: &fired}, slices.Clone(prefix))
		if !slices.Equal(got, prefix) || !slices.Equal(viaGrid, prefix) || st.Matches != 0 || gst.Matches != 0 {
			t.Fatalf("%s: cancelled rect appended %d rows (%+v), grid %d (%+v)", cname, len(got)-len(prefix), st, len(viaGrid)-len(prefix), gst)
		}
		if !slices.Equal(exh, prefix) || est.Matches != 0 || est.ExactTests != 0 {
			t.Fatalf("%s: cancelled non-finite region appended %d rows (%+v)", cname, len(exh)-len(prefix), est)
		}
		if full, _ := RefineInto(xs, ys, cand, region, Options{}, nil); len(full) != colstore.RangesLen(cand) {
			t.Fatalf("%s: uncancelled pass over the whole extent kept %d of %d", cname, len(full), colstore.RangesLen(cand))
		}
		want, wst := RefineExhaustiveInto(xs, ys, cand, nonFinite, nil)
		if full, fst := RefineInto(xs, ys, cand, nonFinite, Options{}, nil); !slices.Equal(full, want) || fst != wst || fst.ExactTests != colstore.RangesLen(cand) {
			t.Fatalf("%s: uncancelled non-finite region %d rows (%+v), exhaustive %d (%+v)", cname, len(full), fst, len(want), wst)
		}
	}

	// A token firing at the first exact test stops the exhaustive arm at
	// the end of that block.
	live := make(chan struct{})
	var tok cancel.Token
	tok.Reset(live)
	firing := firingRegion{Region: nonFinite, fire: func() { close(live) }}
	got, st := RefineInto(xs, ys, colstore.FullRange(n), &firing, Options{Cancel: &tok}, nil)
	if st.ExactTests != refineBlock || len(got) > refineBlock {
		t.Fatalf("token fired in the first block: %d matches, %+v; want one block of %d exact tests", len(got), st, refineBlock)
	}
}

// firingRegion calls fire on its first Contains test.
type firingRegion struct {
	Region
	fire func()
}

func (r *firingRegion) Contains(x, y float64) bool {
	if r.fire != nil {
		r.fire()
		r.fire = nil
	}
	return r.Region.Contains(x, y)
}

// FuzzRectRegion drives the recogniser and both rectangle loops with
// raw-bit corners, a vertex order and a probe point. order's low bits pick
// the start vertex (0-3), the orientation (4) and the closing vertex (8);
// bits 4-5 pick a shape: the rectangle itself, a revisited corner, an extra
// collinear vertex, or one vertex moved onto the probe point. Whenever
// RectOf accepts, ContainsPoint must be the closed compare and RefineInto
// must equal RefineExhaustiveInto; a finite, non-degenerate rectangle must
// be accepted, and the two mutations that keep its envelope must not.
func FuzzRectRegion(f *testing.F) {
	b := math.Float64bits
	f.Add(b(0), b(0), b(1), b(1), uint8(0), b(0.5), b(1))
	f.Add(b(85000.25), b(446000.5), b(85093.75), b(446062.5), uint8(0x0D), b(85000.25), b(446062.5))
	f.Add(b(1), b(1), b(0), b(0), uint8(0x17), b(1), b(0))
	f.Add(b(0), b(0), b(1), b(1), uint8(0x26), b(0.25), b(0))
	f.Add(b(0), b(0), b(1), b(1), uint8(0x31), b(1), b(1))
	f.Add(b(-1e300), b(-8e307), b(1e300), b(8e307), uint8(0x03), b(0), b(math.Copysign(0, -1)))
	f.Add(b(0), b(math.NaN()), b(1), b(1), uint8(0), b(math.Inf(1)), b(0.5))
	f.Fuzz(func(t *testing.T, x0b, y0b, x1b, y1b uint64, order uint8, pxb, pyb uint64) {
		x0, y0, x1, y1 := math.Float64frombits(x0b), math.Float64frombits(y0b), math.Float64frombits(x1b), math.Float64frombits(y1b)
		px, py := math.Float64frombits(pxb), math.Float64frombits(pyb)
		ccw := []geom.Point{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}}
		var pts []geom.Point
		for i := range 4 {
			k := int(order&3) + i
			if order&4 != 0 {
				k = int(order&3) - i + 4
			}
			pts = append(pts, ccw[k%4])
		}
		shape := (order >> 4) & 3
		switch shape {
		case 1: // revisit a corner: the envelope survives, the shape does not
			pts[3] = pts[1]
		case 2: // an extra collinear vertex on the first edge
			mid := geom.Point{X: (pts[0].X + pts[1].X) / 2, Y: (pts[0].Y + pts[1].Y) / 2}
			pts = slices.Insert(pts, 1, mid)
		case 3:
			pts[2] = geom.Point{X: px, Y: py}
		}
		if order&8 != 0 {
			pts = append(pts, pts[0])
		}
		g := geom.Polygon{Shell: geom.Ring{Points: pts}}
		rect, ok := geom.RectOf(g)

		finite := func(v ...float64) bool {
			for _, f := range v {
				if math.IsNaN(f) || math.IsInf(f, 0) {
					return false
				}
			}
			return true
		}
		w, h := math.Abs(x1-x0), math.Abs(y1-y0)
		proper := finite(x0, y0, x1, y1, w, h) && w > 0 && h > 0
		if shape == 0 && proper && !ok {
			t.Fatalf("rectangle %v not recognised", pts)
		}
		if (shape == 1 || shape == 2) && ok {
			t.Fatalf("mutated shape %v recognised as %v", pts, rect)
		}
		if !ok {
			return
		}

		var xs, ys []float64
		for _, x := range []float64{px, rect.MinX, rect.MaxX, math.Nextafter(px, math.Inf(1)), math.Nextafter(rect.MaxX, math.Inf(1)), math.NaN(), math.Inf(-1)} {
			for _, y := range []float64{py, rect.MinY, rect.MaxY, math.Nextafter(py, math.Inf(-1)), math.Nextafter(rect.MinY, math.Inf(-1)), math.Inf(1), math.Copysign(0, -1)} {
				xs, ys = append(xs, x), append(ys, y)
			}
		}
		rows := make([]int, 0, len(xs))
		for i := range xs {
			want := rect.MinX <= xs[i] && xs[i] <= rect.MaxX && rect.MinY <= ys[i] && ys[i] <= rect.MaxY
			if got := geom.ContainsPoint(g, xs[i], ys[i]); got != want {
				t.Fatalf("%v: ContainsPoint(%v, %v) = %v, compare %v", pts, xs[i], ys[i], got, want)
			}
			rows = append(rows, len(xs)-1-i)
		}
		region := GeometryRegion{G: g}
		cand := colstore.FullRange(len(xs))
		want, _ := RefineExhaustiveInto(xs, ys, cand, region, nil)
		got, _ := RefineInto(xs, ys, cand, region, Options{}, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("%v: RefineInto %v, exhaustive %v", pts, got, want)
		}
		slices.Reverse(want)
		if got := RectRowsInto(xs, ys, rows, rect, nil); !slices.Equal(got, want) {
			t.Fatalf("%v: RectRowsInto %v, exhaustive (reversed) %v", pts, got, want)
		}
	})
}

// TestAxisRowsIntoMatchesRectRows holds the one-axis row loop to the
// four-compare loop on rows whose other coordinate lies inside the
// rectangle (its bounds, ±0 at a zero bound, the midpoint): the compared
// coordinate runs over the bounds, their one-ulp neighbours, ±0 at a zero
// bound, NaN and ±Inf. Both axes are compared in turn, in a scrambled row
// order, appending after rows already in out.
func TestAxisRowsIntoMatchesRectRows(t *testing.T) {
	negz := math.Copysign(0, -1)
	probes := func(lo, hi float64) []float64 {
		return []float64{lo, hi, (lo + hi) / 2, 0, negz,
			math.Nextafter(lo, math.Inf(-1)), math.Nextafter(lo, math.Inf(1)),
			math.Nextafter(hi, math.Inf(-1)), math.Nextafter(hi, math.Inf(1)),
			math.NaN(), math.Inf(1), math.Inf(-1)}
	}
	inside := func(lo, hi float64) []float64 {
		vs := []float64{lo, hi, (lo + hi) / 2}
		if lo == 0 || hi == 0 {
			vs = append(vs, 0, negz)
		}
		return vs
	}
	rng := rand.New(rand.NewSource(46))
	for _, rect := range []geom.Envelope{{MinX: 0, MinY: 0, MaxX: 10, MaxY: 5}, {MinX: -3, MinY: negz, MaxX: negz, MaxY: 7}, {MinX: 85000.25, MinY: 446000.5, MaxX: 85093.75, MaxY: 446062.5}} {
		for _, alongX := range []bool{true, false} {
			// x inside, y compared; or the other way round.
			lo, hi, olo, ohi := rect.MinY, rect.MaxY, rect.MinX, rect.MaxX
			if !alongX {
				lo, hi, olo, ohi = olo, ohi, lo, hi
			}
			var xs, ys []float64
			for _, in := range inside(olo, ohi) {
				for _, v := range probes(lo, hi) {
					if alongX {
						xs, ys = append(xs, in), append(ys, v)
					} else {
						xs, ys = append(xs, v), append(ys, in)
					}
				}
			}
			rows := make([]int32, len(xs))
			for i := range rows {
				rows[i] = int32(i)
			}
			rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
			vs := xs
			if alongX {
				vs = ys
			}
			got := AxisRowsInto(vs, rows, lo, hi, []int{-1})
			want := RectRowsInto(xs, ys, rows, rect, []int{-1})
			if !slices.Equal(got, want) || len(want) < 2 {
				t.Fatalf("%v (x inside: %v): AxisRowsInto %v, RectRowsInto %v", rect, alongX, got, want)
			}
		}
	}
}

// BenchmarkRefine times refinement per candidate row over 1M tile-ordered
// rows (32x32 tiles, each tile's rows contiguous, as a LAS tile sort lays
// them out), with the candidates being the rows of every tile the viewport
// touches — the imprint filter's granularity. Three arms per viewport
// size: the rectangle path, the cell grid over the same rectangle's
// extra-vertex twin, and the exhaustive per-point reference.
func BenchmarkRefine(b *testing.B) {
	const side, tiles, perTile = 1000.0, 32, 1 << 20 / (32 * 32)
	rng := rand.New(rand.NewSource(46))
	xs := make([]float64, 0, tiles*tiles*perTile)
	ys := make([]float64, 0, tiles*tiles*perTile)
	tw := side / tiles
	for ty := range tiles {
		for tx := range tiles {
			for range perTile {
				xs = append(xs, (float64(tx)+rng.Float64())*tw)
				ys = append(ys, (float64(ty)+rng.Float64())*tw)
			}
		}
	}
	for _, v := range []struct {
		name string
		frac float64
	}{{"0.25pct", 0.0025}, {"2pct", 0.02}, {"16pct", 0.16}} {
		half := side * math.Sqrt(v.frac) / 2
		env := geom.NewEnvelope(437-half, 563-half, 437+half, 563+half)
		var cand []colstore.Range
		for ty := range tiles {
			for tx := range tiles {
				box := geom.NewEnvelope(float64(tx)*tw, float64(ty)*tw, float64(tx+1)*tw, float64(ty+1)*tw)
				if box.Intersects(env) {
					t := (ty*tiles + tx) * perTile
					cand = append(cand, colstore.Range{Start: t, End: t + perTile})
				}
			}
		}
		rows := colstore.RangesLen(cand)
		var rect Region = GeometryRegion{G: env.ToPolygon()}
		var twin Region = gridTwin(env)
		buf := make([]int, 0, rows)
		for _, arm := range []struct {
			name   string
			refine func() ([]int, Stats)
		}{
			{"rect", func() ([]int, Stats) { return RefineInto(xs, ys, cand, rect, Options{}, buf[:0]) }},
			{"grid", func() ([]int, Stats) { return RefineInto(xs, ys, cand, twin, Options{}, buf[:0]) }},
			{"exhaustive", func() ([]int, Stats) { return RefineExhaustiveInto(xs, ys, cand, rect, buf[:0]) }},
		} {
			b.Run(v.name+"/"+arm.name, func(b *testing.B) {
				arm.refine()
				b.ReportAllocs()
				for b.Loop() {
					arm.refine()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
		}
	}
}
