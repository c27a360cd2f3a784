package pyramid

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/las"
)

// insideBatch returns k points strictly inside ext, in testCloud's style.
func insideBatch(rng *rand.Rand, ext geom.Envelope, k int) []las.Point {
	pts := make([]las.Point, k)
	for i := range pts {
		z := rng.Float64()*200 - 50
		if rng.Intn(37) == 0 {
			z = math.NaN()
		}
		pts[i] = las.Point{
			X:              ext.MinX + (0.001+0.998*rng.Float64())*ext.Width(),
			Y:              ext.MinY + (0.001+0.998*rng.Float64())*ext.Height(),
			Z:              z,
			Intensity:      uint16(rng.Intn(1000)),
			Classification: uint8(rng.Intn(9)),
			GPSTime:        []float64{math.Inf(1), math.Copysign(0, -1), 0, 3.25}[rng.Intn(4)],
		}
	}
	return pts
}

// sameBitsSlice fails unless a and b hold the same float64 bit patterns.
func sameBitsSlice(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d slots, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: slot %d = %v (%x), want %v (%x)", label, i, got[i], math.Float64bits(got[i]),
				want[i], math.Float64bits(want[i]))
		}
	}
}

// sameTiles requires got and want to hold the same row and NaN-coordinate
// counts and the same data bounding boxes bit for bit.
func sameTiles(t *testing.T, label string, got, want []engine.TileBox) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tiles, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		gb, wb := [4]float64{g.Box.MinX, g.Box.MinY, g.Box.MaxX, g.Box.MaxY}, [4]float64{w.Box.MinX, w.Box.MinY, w.Box.MaxX, w.Box.MaxY}
		for k := range wb {
			if g.Rows != w.Rows || g.NaN != w.NaN || math.Float64bits(gb[k]) != math.Float64bits(wb[k]) {
				t.Fatalf("%s: tile %d = %d rows (%d NaN) in %v, want %d rows (%d NaN) in %v", label, i, g.Rows, g.NaN, g.Box, w.Rows, w.NaN, w.Box)
			}
		}
	}
}

// samePyramid requires got and want to be the same pyramid bit for bit:
// every level's counts, banks, tile row counts and data bounding boxes,
// and the base postings.
func samePyramid(t *testing.T, label string, got, want *Pyramid) {
	t.Helper()
	if got.base != want.base || got.ext != want.ext || len(got.levels) != len(want.levels) {
		t.Fatalf("%s: base %d ext %v, want base %d ext %v", label, got.base, got.ext, want.base, want.ext)
	}
	for o := range want.levels {
		g, w := &got.levels[o], &want.levels[o]
		sameBitsSlice(t, label+": cnt", g.cnt, w.cnt)
		for j := range w.banks {
			sameBitsSlice(t, label+": "+want.specs[j].Fn.String()+" bank", g.banks[j], w.banks[j])
		}
		sameTiles(t, label, g.tiles, w.tiles)
	}
	if !slices.Equal(got.offs, want.offs) || !slices.Equal(got.rows, want.rows) {
		t.Fatalf("%s: postings differ", label)
	}
}

// freshPyramid builds a pyramid over the table's current rows outside the
// cache: the reference an extended one must equal.
func freshPyramid(t *testing.T, pc *engine.PointCloud, specs []engine.GroupedAggSpec) *Pyramid {
	t.Helper()
	q := newPyramid(pc, pc.Epoch(), engine.ColClassification, specs)
	if err := q.build(nil, nil); err != nil {
		t.Fatal(err)
	}
	return q
}

// TestPyramidExtendMatchesBuild appends random batch sequences and holds
// the cached pyramid to a fresh build over the grown table after every
// append. Batch sizes straddle imprint line and zone edges (0, 1, 7, 8,
// 511, 513 rows at 8 values per line); batches inside the extent must
// extend the entry, batches with a NaN coordinate, batches outside the
// extent and batches that cross a base-order step must rebuild it. The
// spec sets cover sum banks (degree 1, ascending-row sums) and the
// merge-exact shape on a parallel table; a viewport query after every
// append is also held to the exact arm.
func TestPyramidExtendMatchesBuild(t *testing.T) {
	dropResident()
	defer dropResident()
	withSums := append(testSpecs(), engine.GroupedAggSpec{Fn: engine.AggSum, Column: engine.ColZ},
		engine.GroupedAggSpec{Fn: engine.AggSum, Column: engine.ColIntensity})
	for trial, specs := range [][]engine.GroupedAggSpec{withSums, testSpecs()} {
		rng := rand.New(rand.NewSource(int64(11 + trial)))
		pc := testCloud(60_000, int64(trial))
		pc.Parallel = trial == 1
		sig := sigFor(engine.ColClassification, specs)
		region := grid.GeometryRegion{G: geom.NewEnvelope(210, 90, 930, 640).ToPolygon()}
		run := new(engine.Run)
		p, err := For(run, pc, engine.ColClassification, specs, sig, nil)
		if err != nil || p == nil {
			t.Fatalf("For: %v, %v", p, err)
		}
		p.Release()
		for step := 0; step < 14; step++ {
			ext := pc.Extent()
			var batch []las.Point
			extends := true
			switch kind := step % 7; kind {
			case 4: // a NaN coordinate
				batch = insideBatch(rng, ext, 9)
				batch[rng.Intn(len(batch))].X = math.NaN()
				extends = false
			case 5: // leaves the extent
				batch = insideBatch(rng, ext, 40)
				batch[rng.Intn(len(batch))].Y = ext.MaxY + 1
				extends = false
			case 6: // crosses the next base-order step
				next := 1 << (2 * (baseOrderFor(pc.Len()) + 1)) * targetRowsPerTile
				batch = insideBatch(rng, ext, max(next-pc.Len(), 1))
				extends = baseOrderFor(pc.Len()+len(batch)) == baseOrderFor(pc.Len())
			default:
				batch = insideBatch(rng, ext, []int{0, 1, 7, 8, 511, 513}[rng.Intn(6)])
			}
			before := Snapshot()
			pc.AppendLAS(batch)
			got, err := For(run, pc, engine.ColClassification, specs, sig, nil)
			if err != nil || got == nil {
				t.Fatalf("step %d: For: %v, %v", step, got, err)
			}
			s := Snapshot()
			if ext, built := s.Extensions-before.Extensions, s.Builds-before.Builds; extends && (ext != 1 || built != 0) ||
				!extends && (ext != 0 || built != 1) {
				t.Fatalf("step %d (%d rows): %d extensions, %d builds; want extension = %v", step, len(batch), ext, built, extends)
			}
			if extends && got != p {
				t.Fatalf("step %d: an extension replaced the entry", step)
			}
			samePyramid(t, "after append", got, freshPyramid(t, pc, specs))
			var res engine.GroupedResult
			if _, ok, err := got.QueryRegionRun(run, region, testSpecs(), &res); err != nil || !ok {
				t.Fatalf("step %d: query: ok=%v err=%v", step, ok, err)
			}
			sameGrouped(t, "query after append", &res, exactGrouped(t, pc, region, testSpecs()))
			p = got
			p.Release()
		}
		run.Drain()
	}
}

// TestPinnedPyramidIsRebuiltNotMutated holds a stale entry pinned by
// concurrent queries across an append inside the extent: the lookup must
// rebuild, never extend the pinned pyramid, which keeps answering over the
// rows it was built on. Run under -race this also catches a write into
// the pinned entry.
func TestPinnedPyramidIsRebuiltNotMutated(t *testing.T) {
	dropResident()
	defer dropResident()
	pc := testCloud(40_000, 31)
	specs := testSpecs()
	pinned, run := buildPyramid(t, pc, specs)
	defer run.Drain()
	region := grid.GeometryRegion{G: geom.NewEnvelope(120, 80, 870, 910).ToPolygon()}
	var want engine.GroupedResult
	if _, ok, err := pinned.QueryRegionRun(run, region, specs, &want); err != nil || !ok {
		t.Fatalf("query: ok=%v err=%v", ok, err)
	}
	snapshot := freshPyramid(t, pc, specs)

	pc.AppendLAS(insideBatch(rand.New(rand.NewSource(8)), pc.Extent(), 2500))
	before := Snapshot()
	var (
		wg      sync.WaitGroup
		results [2][20]engine.GroupedResult
	)
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qrun := new(engine.Run)
			defer qrun.Drain()
			for i := range results[g] {
				if _, ok, err := pinned.QueryRegionRun(qrun, region, specs, &results[g][i]); err != nil || !ok {
					t.Errorf("pinned query: ok=%v err=%v", ok, err)
					return
				}
			}
		}()
	}
	fresh, err := For(run, pc, engine.ColClassification, specs, sigFor(engine.ColClassification, specs), nil)
	wg.Wait()
	for g := range results {
		for i := range results[g] {
			sameGrouped(t, "pinned while the cache moved on", &results[g][i], &want)
		}
	}
	if err != nil || fresh == nil {
		t.Fatalf("For: %v, %v", fresh, err)
	}
	defer fresh.Release()
	if fresh == pinned {
		t.Fatal("the pinned stale entry was extended in place")
	}
	if s := Snapshot(); s.Extensions != before.Extensions || s.Builds != before.Builds+1 || s.Drops != before.Drops+1 {
		t.Fatalf("extensions/builds/drops moved by %d/%d/%d, want 0/1/1", s.Extensions-before.Extensions,
			s.Builds-before.Builds, s.Drops-before.Drops)
	}
	samePyramid(t, "pinned entry", pinned, snapshot)
	samePyramid(t, "rebuilt entry", fresh, freshPyramid(t, pc, specs))
	pinned.Release()
}
