package pyramid

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/las"
)

// refCover is the cover by its definition, tile by tile: a tile with rows
// folds when its data box classifies inside and no proper ancestor's does;
// a base tile with rows refines when its data box classifies boundary and
// no proper ancestor's classifies inside. Inside tiles come back packed
// like cover's, both lists ascending.
func refCover(p *Pyramid, region grid.Region) (inside, edge []int) {
	rel := func(o uint, t int) geom.BoxRelation { return region.Classify(p.levels[o].tiles[t].Box) }
	ancestorInside := func(o uint, t int) bool {
		cx, cy := t&(1<<o-1), t>>o
		for a := uint(1); a <= o; a++ {
			if rel(o-a, (cy>>a)<<(o-a)|cx>>a) == geom.BoxInside {
				return true
			}
		}
		return false
	}
	for o := uint(0); o <= p.base; o++ {
		for t, tb := range p.levels[o].tiles {
			if tb.Rows == 0 || ancestorInside(o, t) {
				continue
			}
			switch r := rel(o, t); {
			case r == geom.BoxInside:
				inside = append(inside, t<<orderBits|int(o))
			case r == geom.BoxBoundary && o == p.base:
				edge = append(edge, t)
			}
		}
	}
	slices.Sort(inside)
	return inside, edge
}

// coverViewports adds polygon viewports to testViewports: a triangle and
// an L-shape at random places, each half inside the data.
func coverViewports(p *Pyramid, pc *engine.PointCloud) []grid.Region {
	var out []grid.Region
	for _, env := range testViewports(p, pc) {
		out = append(out, grid.GeometryRegion{G: env.ToPolygon()})
	}
	ext := pc.Extent()
	rng := rand.New(rand.NewSource(11))
	pt := func() geom.Point {
		return geom.Point{X: ext.MinX + (1.5*rng.Float64()-0.25)*ext.Width(), Y: ext.MinY + (1.5*rng.Float64()-0.25)*ext.Height()}
	}
	for i := 0; i < 12; i++ {
		a, b, c := pt(), pt(), pt()
		out = append(out, grid.GeometryRegion{G: geom.Polygon{Shell: geom.Ring{Points: []geom.Point{a, b, c}}}})
		x0, y0, x1, y1 := math.Min(a.X, b.X), math.Min(a.Y, b.Y), math.Max(a.X, b.X), math.Max(a.Y, b.Y)
		mx, my := (x0+x1)/2, (y0+y1)/2
		out = append(out, grid.GeometryRegion{G: geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
			{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: my}, {X: mx, Y: my}, {X: mx, Y: y1}, {X: x0, Y: y1},
		}}}})
	}
	return out
}

// TestPyramidCoverProperty holds cover to its definition (refCover) over
// tables whose row counts straddle the base-order steps and over random,
// tile-aligned, sliver, containing, disjoint and polygon viewports, and
// every answer to the exact arm. A viewport containing the data folds the
// root alone and refines nothing.
func TestPyramidCoverProperty(t *testing.T) {
	specs := testSpecs()
	for _, n := range []int{4 << 14, 4<<14 - 1, 16 << 14, 16<<14 - 1} {
		pc := testCloud(n, int64(n))
		p := freshPyramid(t, pc, specs)
		if want := baseOrderFor(n); p.base != want {
			t.Fatalf("n=%d: base order %d, want %d", n, p.base, want)
		}
		run := new(engine.Run)
		var res engine.GroupedResult
		for i, region := range coverViewports(p, pc) {
			inside, edge := p.cover(region, nil, nil)
			wantInside, wantEdge := refCover(p, region)
			gotInside := slices.Sorted(slices.Values(inside))
			gotEdge := slices.Sorted(slices.Values(edge))
			if !slices.Equal(gotInside, wantInside) || !slices.Equal(gotEdge, wantEdge) {
				t.Fatalf("n=%d viewport %d: cover folds %v and refines %v; want %v and %v",
					n, i, gotInside, gotEdge, wantInside, wantEdge)
			}
			qs, ok, err := p.QueryRegionRun(run, region, specs, &res)
			if err != nil || !ok {
				t.Fatalf("n=%d viewport %d: ok=%v err=%v", n, i, ok, err)
			}
			if qs.Interior != len(inside) || qs.Boundary != len(edge) {
				t.Fatalf("n=%d viewport %d: stats %+v for %d inside and %d edge tiles", n, i, qs, len(inside), len(edge))
			}
			sameGrouped(t, "cover", &res, exactGrouped(t, pc, region, specs))
		}
		ext := pc.Extent()
		whole := grid.GeometryRegion{G: geom.NewEnvelope(ext.MinX-1, ext.MinY-1, ext.MaxX+1, ext.MaxY+1).ToPolygon()}
		if qs, ok, err := p.QueryRegionRun(run, whole, specs, &res); err != nil || !ok || qs.Interior != 1 || qs.Boundary != 0 || qs.BoundaryRows != 0 {
			t.Fatalf("n=%d: containing viewport: stats %+v, ok=%v err=%v; want the root alone", n, qs, ok, err)
		}
		run.Drain()
	}
}

// TestPyramidAppendNewClass appends rows of a class the build never saw:
// the entry extends, and the class is answered, since the classes a fold
// visits are read from the refolded root.
func TestPyramidAppendNewClass(t *testing.T) {
	dropResident()
	defer dropResident()
	pc := testCloud(30_000, 23)
	specs := testSpecs()
	p, run := buildPyramid(t, pc, specs)
	p.Release()
	run.Drain()

	extra := insideBatch(rand.New(rand.NewSource(24)), pc.Extent(), 500)
	for i := range extra {
		extra[i].Classification = 200
	}
	before := Snapshot()
	pc.AppendLAS(extra)
	p, run = buildPyramid(t, pc, specs)
	defer p.Release()
	defer run.Drain()
	if s := Snapshot(); s.Extensions != before.Extensions+1 {
		t.Fatalf("the append rebuilt the pyramid (%d extensions)", s.Extensions-before.Extensions)
	}
	var res engine.GroupedResult
	ext := pc.Extent()
	for _, env := range []geom.Envelope{geom.NewEnvelope(ext.MinX-1, ext.MinY-1, ext.MaxX+1, ext.MaxY+1), geom.NewEnvelope(100, 150, 700, 820)} {
		region := grid.GeometryRegion{G: env.ToPolygon()}
		if _, ok, err := p.QueryRegionRun(run, region, specs, &res); err != nil || !ok {
			t.Fatalf("viewport %v: ok=%v err=%v", env, ok, err)
		}
		if !slices.Contains(res.Keys, 200) {
			t.Fatalf("viewport %v: class 200 missing from %v", env, res.Keys)
		}
		sameGrouped(t, "new class", &res, exactGrouped(t, pc, region, specs))
	}
}

// TestPyramidNaNCoordinates: rows with a NaN x or y sit in their tile's
// counts but in no data box, and Contains rejects them, so no fold may
// count them. 20,000 rows, 40 of them with a NaN coordinate, spread over
// the tiles; the whole-table viewport would otherwise fold them from the
// root.
func TestPyramidNaNCoordinates(t *testing.T) {
	pts := insideBatch(rand.New(rand.NewSource(31)), geom.NewEnvelope(0, 0, 1000, 1000), 20_000)
	pts[0].X, pts[0].Y, pts[1].X, pts[1].Y = 0, 0, 1000, 1000
	for i := 0; i < 40; i++ {
		r := 2 + i*499
		if i%2 == 0 {
			pts[r].X = math.NaN()
		} else {
			pts[r].Y = math.NaN()
		}
	}
	pc := engine.NewPointCloud()
	pc.AppendLAS(pts)
	specs := testSpecs()
	p := freshPyramid(t, pc, specs)
	run := new(engine.Run)
	defer run.Drain()
	var res engine.GroupedResult
	for _, env := range append(testViewports(p, pc), geom.NewEnvelope(0, 0, 1000, 1000), geom.NewEnvelope(-1e300, -1e300, 1e300, 1e300)) {
		region := grid.GeometryRegion{G: env.ToPolygon()}
		if _, ok, err := p.QueryRegionRun(run, region, specs, &res); err != nil || !ok {
			t.Fatalf("viewport %v: ok=%v err=%v", env, ok, err)
		}
		sameGrouped(t, "NaN coordinates", &res, exactGrouped(t, pc, region, specs))
	}
}

// TestPyramidSignedZeroTies: a −0 and a +0 tie under min and max, and the
// exact arm keeps whichever of them comes first in row order. Over a z
// column of −0, +0 and 5 only, most class minima are a tie the cover's
// fold order would settle differently.
func TestPyramidSignedZeroTies(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := make([]las.Point, 20_000)
	for i := range pts {
		pts[i] = las.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000,
			Z: []float64{math.Copysign(0, -1), 0, 5}[rng.Intn(3)], Classification: uint8(rng.Intn(3))}
	}
	pc := engine.NewPointCloud()
	pc.AppendLAS(pts)
	specs := testSpecs()
	p := freshPyramid(t, pc, specs)
	run := new(engine.Run)
	defer run.Drain()
	var res engine.GroupedResult
	for _, env := range testViewports(p, pc) {
		region := grid.GeometryRegion{G: env.ToPolygon()}
		if _, ok, err := p.QueryRegionRun(run, region, specs, &res); err != nil || !ok {
			t.Fatalf("viewport %v: ok=%v err=%v", env, ok, err)
		}
		sameGrouped(t, "signed zeros", &res, exactGrouped(t, pc, region, specs))
	}
}

// FuzzPyramidQuery answers a fuzzed viewport from pyramids over fuzzed
// coordinate bits (NaN, ±Inf and −0 included, row 0 too): one built over
// rows [0, m), then the same after the rest are appended — extended in
// place when the append allows it, rebuilt otherwise. Every answer must
// either decline or equal the exact arm bit for bit. The low bit of shape
// picks a rectangle or its 5-vertex twin (the per-point Contains path);
// when bit 1 is set the fuzzed rows repeat past 2^16, so the base order is
// 3 rather than 2.
func FuzzPyramidQuery(f *testing.F) {
	coords := func(v ...float64) []byte {
		var b []byte
		for _, c := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
		}
		return b
	}
	negz := math.Copysign(0, -1)
	f.Add(coords(0, 0, 10, 10, 5, 5, negz, 3, 0, 3, 10, 1), 0.0, 0.0, 10.0, 10.0, uint16(30000), uint8(0))
	f.Add(coords(math.NaN(), 4, 0, 0, 10, 10, 4, math.NaN(), 7, 7), -1.0, -1.0, 11.0, 11.0, uint16(0), uint8(1))
	f.Add(coords(0, 0, 8, 8, 3, 3, 5, 5, math.NaN(), math.NaN(), 2, 6), 2.5, 0.0, 8.0, 4.0, uint16(50000), uint8(2))
	f.Add(coords(-1, -1, 1, 1, math.Inf(1), 0, 0, negz), -0.5, -0.5, 0.5, 0.5, uint16(65535), uint8(3))
	f.Add(coords(0, 0, 1, 1, 0.5, 0.5), math.Inf(-1), math.NaN(), math.Inf(1), 0.5, uint16(20000), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, x0, y0, x1, y1 float64, split uint16, shape uint8) {
		k := min(len(raw)/16, 256)
		if k == 0 {
			return
		}
		n := k
		if shape&2 != 0 {
			n = 1<<16 + k
		}
		pts := make([]las.Point, n)
		for i := range pts {
			j := i % k
			pts[i] = las.Point{
				X:              math.Float64frombits(binary.LittleEndian.Uint64(raw[16*j:])),
				Y:              math.Float64frombits(binary.LittleEndian.Uint64(raw[16*j+8:])),
				Z:              float64(i % 97),
				Intensity:      uint16(i % 13),
				Classification: uint8(i % 11),
			}
		}
		var region grid.Region = grid.GeometryRegion{G: geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
			{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1},
		}}}}
		if shape&1 != 0 {
			region = grid.GeometryRegion{G: geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
				{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: (y0 + y1) / 2}, {X: x1, Y: y1}, {X: x0, Y: y1},
			}}}}
		}
		specs := testSpecs()
		run := new(engine.Run)
		defer run.Drain()
		var res engine.GroupedResult
		check := func(label string, pc *engine.PointCloud, p *Pyramid) {
			if _, ok, err := p.QueryRegionRun(run, region, specs, &res); err != nil {
				t.Fatalf("%s: %v", label, err)
			} else if ok {
				sameGrouped(t, label, &res, exactGrouped(t, pc, region, specs))
			}
		}

		m := int(split) * n / math.MaxUint16
		pc := engine.NewPointCloud()
		pc.AppendLAS(pts[:m])
		prefix := newPyramid(pc, pc.Epoch(), engine.ColClassification, specs)
		if prefix != nil {
			if err := prefix.build(run, nil); err != nil {
				t.Fatal(err)
			}
			check("prefix", pc, prefix)
		}
		pc.AppendLAS(pts[m:])
		if prefix != nil && prefix.extendable() {
			if err := prefix.extend(run, pc.Epoch(), nil); err != nil {
				t.Fatal(err)
			}
			check("extension", pc, prefix)
		}
		if whole := newPyramid(pc, pc.Epoch(), engine.ColClassification, specs); whole != nil {
			if err := whole.build(run, nil); err != nil {
				t.Fatal(err)
			}
			check("build", pc, whole)
		}
	})
}
