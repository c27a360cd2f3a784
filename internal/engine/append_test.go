package engine

import (
	"math"
	"math/rand"
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/las"
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
