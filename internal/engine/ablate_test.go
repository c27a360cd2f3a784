package engine_test

import (
	"math/rand"
	"testing"

	"gisnav/internal/ablate"
	"gisnav/internal/colstore"
	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/imprints"
)

// The ablation arms (internal/ablate) answer what the engine answers: the
// thematic range arms against the naive reference and the engine's
// FilterRows, the spatial arms against the production selector.

// columnImprint builds the arm's column imprint or fails the test.
func columnImprint(t *testing.T, pc *engine.PointCloud, name string) *imprints.Imprints {
	t.Helper()
	im, err := ablate.EnsureColumnImprint(pc, name)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// rangeArms runs both thematic arms over [lo, hi] and fails unless they
// agree with each other and with FilterRows; it returns the rows.
func rangeArms(t *testing.T, pc *engine.PointCloud, im *imprints.Imprints, name string, lo, hi float64) []int {
	t.Helper()
	indexed, err := ablate.FilterRangeIndexed(pc, im, name, lo, hi)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	scanned, err := ablate.FilterRangeScan(pc, name, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := pc.FilterRows(nil, []engine.ColumnPred{{Column: name, Op: engine.CmpBetween, Value: lo, Value2: hi}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.RecycleRows(prod)
	if !engine.EqualRows(indexed, scanned) || !engine.EqualRows(scanned, prod) {
		t.Fatalf("%s in [%g,%g]: indexed %d rows, scan %d, FilterRows %d",
			name, lo, hi, len(indexed), len(scanned), len(prod))
	}
	return indexed
}

func TestFilterRangeIndexedMatchesScan(t *testing.T) {
	pc, _ := engine.BuildCloud(t, 0.05)
	cases := []struct {
		col    string
		lo, hi float64
	}{
		{engine.ColZ, 0, 5},
		{engine.ColZ, -10, 0},
		{engine.ColIntensity, 800, 1100},
		{engine.ColClassification, 6, 6},
		{engine.ColGPSTime, 0, 1e12},
		{engine.ColZ, 1e6, 2e6}, // empty result
	}
	for _, c := range cases {
		rangeArms(t, pc, columnImprint(t, pc, c.col), c.col, c.lo, c.hi)
	}
}

func TestColumnImprintUnknownColumn(t *testing.T) {
	pc, _ := engine.BuildCloud(t, 0.01)
	if _, err := ablate.EnsureColumnImprint(pc, "bogus"); err == nil {
		t.Fatal("unknown column should error")
	}
	im := columnImprint(t, pc, engine.ColZ)
	if _, err := ablate.FilterRangeIndexed(pc, im, "bogus", 0, 1); err == nil {
		t.Fatal("unknown column should error")
	}
	if _, err := ablate.FilterRangeScan(pc, "bogus", 0, 1); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestFilterRangeIndexedPrunes(t *testing.T) {
	pc, _ := engine.BuildCloud(t, 0.1)
	// A narrow GPS-time window: monotone column, so the imprint should
	// estimate it narrow (the arm then walks candidates) and prune hard.
	col := pc.Column(engine.ColGPSTime)
	lo, hi, _ := col.MinMax()
	window := lo + (hi-lo)*0.01
	im := columnImprint(t, pc, engine.ColGPSTime)
	if est := im.EstimateRows(lo, window); 2*est >= pc.Len() {
		t.Fatalf("imprint estimates %d of %d rows for a 1%% window", est, pc.Len())
	}
	candidates := colstore.RangesLen(im.CandidateRangesInto(lo, window, nil))
	if candidates == 0 || candidates > pc.Len()/2 {
		t.Fatalf("imprint passed %d of %d rows — no pruning on a monotone column",
			candidates, pc.Len())
	}
	if rows := rangeArms(t, pc, im, engine.ColGPSTime, lo, window); len(rows) == 0 {
		t.Fatal("window selected nothing; the pruning check is vacuous")
	}
}

// TestFilterRangeIndexedMatchesNaive covers the whole indexed arm —
// imprint candidates + block kernels — against the kernel full scan,
// FilterRows and the naive reference, over random ranges on every
// imprintable type.
func TestFilterRangeIndexedMatchesNaive(t *testing.T) {
	pc := engine.RandomTestCloud(4000, 5)
	rng := rand.New(rand.NewSource(6))
	for _, name := range []string{engine.ColZ, engine.ColIntensity, engine.ColClassification, engine.ColScanAngle} {
		im := columnImprint(t, pc, name)
		for trial := 0; trial < 60; trial++ {
			lo := (rng.Float64() - 0.5) * 150000
			hi := lo + rng.Float64()*80000
			indexed := rangeArms(t, pc, im, name, lo, hi)
			naive := engine.NaiveFilterAll(pc.Column(name), engine.ColumnPred{Column: name, Op: engine.CmpBetween, Value: lo, Value2: hi})
			if !engine.EqualRows(indexed, naive) {
				t.Fatalf("%s in [%g,%g]: indexed %d rows, naive %d", name, lo, hi, len(indexed), len(naive))
			}
		}
	}
}

// TestWideSelectivitySkipsCandidates: a predicate matching most of the
// table takes the arm's full-column path and must produce the same rows
// as the narrow path, the plain scan and FilterRows.
func TestWideSelectivitySkipsCandidates(t *testing.T) {
	pc := engine.GroupTestCloud(t, 4<<16)
	im := columnImprint(t, pc, engine.ColZ)
	for _, bounds := range [][2]float64{{-60, 160}, {0, 10}} {
		rangeArms(t, pc, im, engine.ColZ, bounds[0], bounds[1])
	}
	if est := im.EstimateRows(-60, 160); 2*est < pc.Len() {
		t.Fatalf("wide bounds estimate %d of %d rows: the wide path is not exercised", est, pc.Len())
	}
}

// TestAblationSpatialArmsMatchSelector holds the no-index and
// imprints-only arms to the production selector over boxes, polygons and
// buffers.
func TestAblationSpatialArmsMatchSelector(t *testing.T) {
	pc, _ := engine.BuildCloud(t, 0.05)
	imX, err := imprints.Build(pc.X(), pc.ImprintOpts)
	if err != nil {
		t.Fatal(err)
	}
	imY, err := imprints.Build(pc.Y(), pc.ImprintOpts)
	if err != nil {
		t.Fatal(err)
	}
	poly := geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: 100, Y: 150}, {X: 700, Y: 100}, {X: 850, Y: 700}, {X: 300, Y: 880},
	}}}
	road := geom.LineString{Points: []geom.Point{{X: 0, Y: 480}, {X: 1000, Y: 520}}}
	for _, region := range []grid.Region{
		engine.BoxRegion(geom.NewEnvelope(100, 100, 300, 250)),
		engine.BoxRegion(geom.NewEnvelope(-50, -50, -10, -10)),
		grid.GeometryRegion{G: poly},
		grid.BufferRegion{G: road, D: 40},
		grid.GeometryRegion{G: geom.MultiPolygon{}},
	} {
		want := pc.SelectRegionRows(region)
		scan, sst := ablate.SelectRegionScan(pc, region)
		only, ost := ablate.SelectRegionImprintsOnly(pc, imX, imY, region)
		if !engine.EqualRows(scan, want) || !engine.EqualRows(only, want) {
			t.Fatalf("%v: selector %d rows, scan %d, imprints-only %d", region, len(want), len(scan), len(only))
		}
		if scan == nil || only == nil {
			t.Fatalf("%v: an arm returned nil rows (\"all rows\" downstream)", region)
		}
		if sst.Matches != len(want) || ost.Matches != len(want) || ost.CandidateRows > sst.CandidateRows {
			t.Fatalf("%v: stats scan %+v, imprints-only %+v", region, sst, ost)
		}
		engine.RecycleRows(want)
	}
}
