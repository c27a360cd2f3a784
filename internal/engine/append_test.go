package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/imprints"
	"gisnav/internal/las"
	"gisnav/internal/morsel"
)

// appendPoints returns k points over [0, 1000)², some with a NaN
// coordinate and some outside the square.
func appendPoints(rng *rand.Rand, k int) []las.Point {
	pts := make([]las.Point, k)
	for i := range pts {
		pts[i] = las.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, Z: rng.Float64() * 50,
			Classification: uint8(rng.Intn(6))}
		switch rng.Intn(60) {
		case 0:
			pts[i].X = math.NaN()
		case 1:
			pts[i].Y = 1e6 * float64(1-2*rng.Intn(2))
		}
	}
	return pts
}

// TestAppendExtendsImprints appends random batches — sizes straddling
// cache-line and zone edges, NaN and out-of-bin coordinates included — to
// a table whose coordinate imprints are built. Each append must extend
// them while the rows appended since the last full build stay within the
// rows it sampled, and drop them for a rebuild past that; every selection
// must return exactly the rows a freshly loaded table returns, at degree
// 1 and 2.
func TestAppendExtendsImprints(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	all := appendPoints(rng, 5_000)
	pc := NewPointCloud()
	pc.AppendLAS(all)
	RecycleRows(pc.SelectRegionRows(boxRegion(geom.NewEnvelope(0, 0, 10, 10))))
	built := pc.Len()
	vpl := 8
	sizes := []int{0, 1, vpl - 1, vpl, 64*vpl - 1, 64*vpl + 1, 3000}
	boxes := []geom.Envelope{
		geom.NewEnvelope(100, 100, 420, 380),
		geom.NewEnvelope(0, 0, 1000, 1000),
		geom.NewEnvelope(990, 990, 1e7, 1e7),
		geom.NewEnvelope(-1e7, -1e7, 1e7, 1e7),
	}
	for step := 0; step < 40; step++ {
		before := pc.IndexStats()
		batch := appendPoints(rng, sizes[rng.Intn(len(sizes))])
		all = append(all, batch...)
		epoch := pc.Epoch()
		pc.AppendLAS(batch)
		if pc.Epoch() == epoch || !pc.AppendOnlySince(epoch) {
			t.Fatalf("step %d: append moved the epoch %d -> %d, append-only %v", step, epoch, pc.Epoch(), pc.AppendOnlySince(epoch))
		}
		after := pc.IndexStats()
		rebuilt := 0 // the first selection after a drop builds afresh
		if outgrown := pc.Len() > 2*built; outgrown {
			rebuilt = 1
			if pc.HasImprints() || after.ImprintExtensions != before.ImprintExtensions {
				t.Fatalf("step %d: %d rows over a %d-row build must drop the imprints", step, pc.Len(), built)
			}
			built = pc.Len()
		} else if !pc.HasImprints() || after.ImprintExtensions != before.ImprintExtensions+1 {
			t.Fatalf("step %d: %d rows over a %d-row build must extend the imprints", step, pc.Len(), built)
		}

		fresh := NewPointCloud()
		fresh.AppendLAS(all)
		for _, box := range boxes {
			for _, deg := range []int{1, 2} {
				got := pc.SelectRegionRowsRun(parRun(deg), boxRegion(box), -1, nil)
				want := fresh.SelectRegionRowsRun(parRun(deg), boxRegion(box), -1, nil)
				if !equalRows(got, want) {
					t.Fatalf("step %d box %v degree %d: %d rows, fresh table %d", step, box, deg, len(got), len(want))
				}
			}
		}
		if s := pc.IndexStats(); s.ImprintBuilds != after.ImprintBuilds+uint64(rebuilt) {
			t.Fatalf("step %d: imprint builds %d -> %d, want %d more", step, after.ImprintBuilds, s.ImprintBuilds, rebuilt)
		}
	}
	if s := pc.IndexStats(); s.ImprintBuilds < 2 || s.ImprintExtensions == 0 {
		t.Fatalf("the sequence never crossed both paths: %+v", s)
	}

	epoch := pc.Epoch()
	pc.InvalidateIndexes()
	if pc.AppendOnlySince(epoch) || pc.HasImprints() {
		t.Fatal("InvalidateIndexes must be a rewrite that drops the imprints")
	}
}

// coordPoints returns k points over [0, 1000)² with finite coordinates,
// so the imprints' sampled bin bounds compare with reflect.DeepEqual.
func coordPoints(rng *rand.Rand, k int) []las.Point {
	pts := make([]las.Point, k)
	for i := range pts {
		pts[i] = las.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, Classification: uint8(rng.Intn(6))}
	}
	return pts
}

// TestImprintPassMatchesSerial holds the coordinate imprints that one
// imprintPass builds, and then extends over an append, to two serial
// imprints.Build calls and two imprints.Extend calls, field for field: the
// pass driven directly at degrees 1 and 2, and the table's own build and
// append path on a serial table, on a parallel one large enough to fan
// out and under a run capped at 1, whose EXPLAIN reports the degree.
func TestImprintPassMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base, grow := coordPoints(rng, 2*morselMinRows+37), coordPoints(rng, 2*morselMinRows+11)
	pc := NewPointCloud()
	pc.AppendLAS(base)
	wantX, _ := imprints.Build(pc.X(), pc.ImprintOpts)
	wantY, _ := imprints.Build(pc.Y(), pc.ImprintOpts)
	pc.AppendLAS(grow)
	extX, extY := imprints.Extend(wantX, pc.X()), imprints.Extend(wantY, pc.Y())
	same := func(label string, x, y, wx, wy *imprints.Imprints) {
		t.Helper()
		if !reflect.DeepEqual(x, wx) || !reflect.DeepEqual(y, wy) {
			t.Fatalf("%s: the pass's imprints differ from the serial calls'", label)
		}
	}

	n := len(base)
	for _, deg := range []int{1, 2} {
		ip := &imprintPass{deg: deg, cols: [2][]float64{pc.X()[:n], pc.Y()[:n]}, opts: pc.ImprintOpts}
		if p := ip.pass.Run(deg, ip); p != nil {
			t.Fatal(p)
		}
		same(fmt.Sprintf("build at degree %d", deg), ip.ims[0], ip.ims[1], wantX, wantY)
		ip.cols = [2][]float64{pc.X(), pc.Y()}
		if p := ip.pass.Run(deg, ip); p != nil {
			t.Fatal(p)
		}
		same(fmt.Sprintf("extension at degree %d", deg), ip.ims[0], ip.ims[1], extX, extY)
	}

	for _, c := range []struct {
		parallel bool
		run      *Run
		deg      int
	}{{false, nil, 1}, {true, nil, min(2, morsel.Workers())}, {true, parRun(1), 1}} {
		label := fmt.Sprintf("parallel %v, cap %d", c.parallel, c.run.MaxParallel())
		pc := NewPointCloud()
		pc.Parallel = c.parallel
		pc.AppendLAS(base)
		var ex Explain
		RecycleRows(pc.SelectRegionRowsRun(c.run, boxRegion(geom.NewEnvelope(10, 10, 20, 20)), -1, &ex))
		if d := ex.Steps[0]; d.Op != opImprintsBuild || d.Detail != fmt.Sprintf("x+y coordinate imprints [par %d]", c.deg) {
			t.Fatalf("%s: first step %s %q, want the build at degree %d", label, d.Op, d.Detail, c.deg)
		}
		x, y, _, _ := pc.imprintsXY(nil)
		same(label+": build", x, y, wantX, wantY)
		pc.AppendLAS(grow)
		x, y, built, _ := pc.imprintsXY(nil)
		if built != 0 {
			t.Fatalf("%s: the append dropped the imprints", label)
		}
		same(label+": extension", x, y, extX, extY)
		if s := pc.IndexStats(); s != (IndexStats{ImprintBuilds: 1, ImprintExtensions: 1}) {
			t.Fatalf("%s: index stats %+v, want one build and one extension", label, s)
		}
	}
}
