// Package gisnav's root benchmark suite: one testing.B benchmark per
// experiment in the paper's index (E1–E10, README.md "Benchmarks") plus the
// E11 kernel-vs-legacy microbenchmarks, runnable with
//
//	go test -bench=. -benchmem
//
// The fixtures are generated once per process at a laptop-friendly scale;
// cmd/pcbench prints E1–E10 as the paper's tables, arms cross-checked.
package gisnav

import (
	"context"
	"math/rand"
	"os"
	"sync"
	"testing"

	"gisnav/internal/ablate"
	"gisnav/internal/blockstore"
	"gisnav/internal/dataset"
	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/imprints"
	"gisnav/internal/las"
	"gisnav/internal/lastools"
	"gisnav/internal/sfc"
	"gisnav/internal/sql"
)

// fixture is the shared benchmark environment.
type fixture struct {
	dir    string
	db     *engine.DB
	pc     *engine.PointCloud
	ua     *engine.VectorTable
	osm    *engine.VectorTable
	repo   *lastools.Repository
	store  *blockstore.Store
	points []las.Point
	region geom.Envelope
	exec   *sql.Executor
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

// getFixture builds the shared dataset once.
func getFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		dir, err := os.MkdirTemp("", "gisnav-bench-*")
		if err != nil {
			fixErr = err
			return
		}
		if _, err := dataset.Generate(dir, dataset.Params{
			Region: geom.NewEnvelope(0, 0, 1500, 1500),
			TilesX: 3, TilesY: 3,
			Density: 0.08,
			UACells: 24,
			Seed:    2015,
		}); err != nil {
			fixErr = err
			return
		}
		db, _, err := dataset.Load(dir)
		if err != nil {
			fixErr = err
			return
		}
		f := &fixture{dir: dir, db: db, exec: sql.New(db)}
		if f.pc, err = db.PointCloud(dataset.TableCloud); err != nil {
			fixErr = err
			return
		}
		if f.ua, err = db.Vector(dataset.TableUA); err != nil {
			fixErr = err
			return
		}
		if f.osm, err = db.Vector(dataset.TableOSM); err != nil {
			fixErr = err
			return
		}
		f.region = f.pc.Extent()
		f.pc.EnsureImprints()
		if f.repo, err = dataset.Repo(dir); err != nil {
			fixErr = err
			return
		}
		if err := f.repo.ScanMetadata(); err != nil {
			fixErr = err
			return
		}
		for _, path := range f.repo.Files() {
			_, pts, err := las.ReadAnyFile(path)
			if err != nil {
				fixErr = err
				return
			}
			f.points = append(f.points, pts...)
		}
		if f.store, err = blockstore.Build(f.points, blockstore.Options{}); err != nil {
			fixErr = err
			return
		}
		fix = f
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fix
}

// queryBox returns a deterministic box of the given area fraction.
func (f *fixture) queryBox(selectivity float64, seed int64) geom.Envelope {
	rng := rand.New(rand.NewSource(seed))
	side := f.region.Width() * sqrtf(selectivity)
	x := f.region.MinX + rng.Float64()*(f.region.Width()-side)
	y := f.region.MinY + rng.Float64()*(f.region.Height()-side)
	return geom.NewEnvelope(x, y, x+side, y+side)
}

func sqrtf(v float64) float64 {
	x := v
	for i := 0; i < 40; i++ {
		x = (x + v/x) / 2
	}
	return x
}

// --- E1: loading ----------------------------------------------------------

func BenchmarkLoadBinary(b *testing.B) {
	f := getFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := engine.NewPointCloud()
		if _, err := engine.LoadBinary(pc, f.repo); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadCSV(b *testing.B) {
	f := getFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := engine.NewPointCloud()
		if _, err := engine.LoadCSV(pc, f.repo); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadBlockStore(b *testing.B) {
	f := getFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blockstore.Build(f.points, blockstore.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2/E9: imprints --------------------------------------------------------

func BenchmarkImprintsBuild(b *testing.B) {
	f := getFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := imprints.Build(f.pc.Y(), imprints.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImprintsBuildShuffled(b *testing.B) {
	f := getFixture(b)
	shuffled := append([]float64(nil), f.pc.Y()...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := imprints.Build(shuffled, imprints.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImprintsQuery(b *testing.B) {
	f := getFixture(b)
	im, err := imprints.Build(f.pc.Y(), imprints.Options{})
	if err != nil {
		b.Fatal(err)
	}
	lo := f.region.MinY + f.region.Height()*0.4
	hi := lo + f.region.Height()*0.01
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im.CandidateRanges(lo, hi)
	}
}

// --- E5: selection ------------------------------------------------------------

func benchSelect(b *testing.B, selectivity float64, run func(f *fixture, box geom.Envelope) int) {
	f := getFixture(b)
	box := f.queryBox(selectivity, 7)
	b.ResetTimer()
	matches := 0
	for i := 0; i < b.N; i++ {
		matches = run(f, box)
	}
	b.ReportMetric(float64(matches), "matches")
}

// selectBox runs the production selector over box and recycles its vector.
func selectBox(f *fixture, box geom.Envelope) int {
	rows := f.pc.SelectRegionRows(grid.GeometryRegion{G: box.ToPolygon()})
	engine.RecycleRows(rows)
	return len(rows)
}

func BenchmarkSelectImprintsGrid_0_1pct(b *testing.B) {
	benchSelect(b, 0.001, selectBox)
}

func BenchmarkSelectImprintsGrid_10pct(b *testing.B) {
	benchSelect(b, 0.1, selectBox)
}

func BenchmarkSelectFullScan_0_1pct(b *testing.B) {
	benchSelect(b, 0.001, func(f *fixture, box geom.Envelope) int {
		rows, _ := ablate.SelectRegionScan(f.pc, grid.GeometryRegion{G: box.ToPolygon()})
		return len(rows)
	})
}

func BenchmarkSelectFileBased_0_1pct(b *testing.B) {
	benchSelect(b, 0.001, func(f *fixture, box geom.Envelope) int {
		pts, _, err := f.repo.ClipBox(box)
		if err != nil {
			b.Fatal(err)
		}
		return len(pts)
	})
}

func BenchmarkSelectBlockStore_0_1pct(b *testing.B) {
	benchSelect(b, 0.001, func(f *fixture, box geom.Envelope) int {
		pts, _, err := f.store.QueryBox(box)
		if err != nil {
			b.Fatal(err)
		}
		return len(pts)
	})
}

func BenchmarkSelectPolygon(b *testing.B) {
	f := getFixture(b)
	poly := geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: 300, Y: 450}, {X: 900, Y: 380}, {X: 1050, Y: 1050}, {X: 500, Y: 1200},
	}}}
	region := grid.GeometryRegion{G: poly}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.RecycleRows(f.pc.SelectRegionRows(region))
	}
}

// --- E6: vector selection --------------------------------------------------------

func BenchmarkVectorIntersects(b *testing.B) {
	f := getFixture(b)
	q := f.queryBox(0.16, 9).ToPolygon()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := &engine.Explain{}
		f.osm.SelectIntersects(q, ex)
	}
}

// --- E7: ad-hoc SQL -----------------------------------------------------------------

func BenchmarkAdhocScenario2SQL(b *testing.B) {
	f := getFixture(b)
	q := `SELECT count(*), avg(z) FROM ahn2, ua
	      WHERE ua.class = '12210' AND ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 25)`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.exec.QueryContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLParse(b *testing.B) {
	q := `SELECT count(*) AS n, avg(z) FROM ahn2, ua
	      WHERE ua.class = '12210' AND ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 25) AND z > 3`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sql.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10: ablations -----------------------------------------------------------------

func BenchmarkAblationRefineGrid(b *testing.B) {
	f := getFixture(b)
	region := grid.GeometryRegion{G: f.queryBox(0.05, 11).ToPolygon()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.RecycleRows(f.pc.SelectRegionRows(region))
	}
}

func BenchmarkAblationRefineExhaustive(b *testing.B) {
	f := getFixture(b)
	region := grid.GeometryRegion{G: f.queryBox(0.05, 11).ToPolygon()}
	imX, err := imprints.Build(f.pc.X(), f.pc.ImprintOpts)
	if err != nil {
		b.Fatal(err)
	}
	imY, err := imprints.Build(f.pc.Y(), f.pc.ImprintOpts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ablate.SelectRegionImprintsOnly(f.pc, imX, imY, region)
	}
}

func BenchmarkAblationImprints8Bins(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := imprints.Build(f.pc.Y(), imprints.Options{Bits: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBlockMorton(b *testing.B) {
	f := getFixture(b)
	box := f.queryBox(0.01, 13)
	store, err := blockstore.Build(f.points, blockstore.Options{Curve: sfc.Morton})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.QueryBox(box); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBlockHilbert(b *testing.B) {
	f := getFixture(b)
	box := f.queryBox(0.01, 13)
	store, err := blockstore.Build(f.points, blockstore.Options{Curve: sfc.Hilbert})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.QueryBox(box); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: vectorized predicate & aggregate kernels -------------------------------------

// BenchmarkFilterRowsKernel exercises the compiled-kernel thematic filter
// (engine/kernels.go) end-to-end through FilterRows with a pooled result
// vector: steady state is allocation-free apart from the one-time per-query
// kernel compile.
func BenchmarkFilterRowsKernel(b *testing.B) {
	f := getFixture(b)
	preds := []engine.ColumnPred{
		{Column: engine.ColClassification, Op: engine.CmpEQ, Value: 6},
		{Column: engine.ColZ, Op: engine.CmpGT, Value: 10},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := f.pc.FilterRows(nil, preds, nil)
		if err != nil {
			b.Fatal(err)
		}
		engine.RecycleRows(rows)
	}
}

// BenchmarkFilterRangeIndexedKernel runs the imprint-pruned range filter
// (the E10e ablation arm) through the block kernels over candidate ranges.
func BenchmarkFilterRangeIndexedKernel(b *testing.B) {
	f := getFixture(b)
	lo, hi, _ := f.pc.Column(engine.ColZ).MinMax()
	hi = lo + (hi-lo)*0.1
	im, err := ablate.EnsureColumnImprint(f.pc, engine.ColZ)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ablate.FilterRangeIndexed(f.pc, im, engine.ColZ, lo, hi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregateKernelSum measures the fused typed sum/min/max pass.
func BenchmarkAggregateKernelSum(b *testing.B) {
	f := getFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.pc.Aggregate(nil, engine.AggSum, engine.ColZ, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks --------------------------------------------------------

func BenchmarkLASDecode(b *testing.B) {
	f := getFixture(b)
	path := f.repo.Files()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := las.ReadAnyFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMortonEncode(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += sfc.MortonEncode(uint32(i), uint32(i>>1))
	}
	_ = sink
}

func BenchmarkHilbertEncode(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += sfc.HilbertEncode(16, uint32(i)&0xFFFF, uint32(i>>1)&0xFFFF)
	}
	_ = sink
}

func BenchmarkPointInPolygon(b *testing.B) {
	poly := geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: 0, Y: 0}, {X: 100, Y: 10}, {X: 120, Y: 90}, {X: 50, Y: 130}, {X: -20, Y: 70},
	}}}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if geom.PolygonContainsPoint(poly, float64(i%150)-20, float64(i%140)-5) {
			hits++
		}
	}
	_ = hits
}
