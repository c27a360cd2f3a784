package pyramid

import (
	"math"
	"math/rand"
	"testing"

	"gisnav/internal/cancel"
	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/las"
)

// testCloud builds a point cloud with adversarial pyramid inputs: a u8
// class key, a z column salted with NaN, and a gps_time column drawn from
// a palette of ±Inf, -0 and ordinary values — the cases the pre-aggregate
// fold must keep bit-identical to the exact serial arm.
func testCloud(n int, seed int64) *engine.PointCloud {
	rng := rand.New(rand.NewSource(seed))
	palette := []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, -12.5, 3.25, 1e9}
	pts := make([]las.Point, n)
	for i := range pts {
		z := rng.Float64()*200 - 50
		if rng.Intn(37) == 0 {
			z = math.NaN()
		}
		pts[i] = las.Point{
			X: rng.Float64() * 1000, Y: rng.Float64() * 1000, Z: z,
			Intensity:      uint16(rng.Intn(1000)),
			Classification: uint8(rng.Intn(9)),
			GPSTime:        palette[rng.Intn(len(palette))],
		}
	}
	pc := engine.NewPointCloud()
	pc.AppendLAS(pts)
	return pc
}

func testSpecs() []engine.GroupedAggSpec {
	return []engine.GroupedAggSpec{
		{Fn: engine.AggCount},
		{Fn: engine.AggMin, Column: engine.ColZ},
		{Fn: engine.AggMax, Column: engine.ColZ},
		{Fn: engine.AggMin, Column: engine.ColGPSTime},
		{Fn: engine.AggMax, Column: engine.ColGPSTime},
		{Fn: engine.AggMax, Column: engine.ColIntensity},
	}
}

// exactGrouped is the reference arm: exact region selection followed by
// the serial grouped kernels — the path the SQL layer takes when the
// pyramid declines.
func exactGrouped(t *testing.T, pc *engine.PointCloud, region grid.Region, specs []engine.GroupedAggSpec) *engine.GroupedResult {
	t.Helper()
	rows := pc.SelectRegionRows(region)
	var res engine.GroupedResult
	if err := pc.GroupedAggregate(rows, engine.ColClassification, specs, &res, nil); err != nil {
		t.Fatalf("exact grouped: %v", err)
	}
	engine.RecycleRows(rows)
	return &res
}

// sameGrouped requires bit-identical keys and aggregate values.
func sameGrouped(t *testing.T, label string, got, want *engine.GroupedResult) {
	t.Helper()
	if len(got.Keys) != len(want.Keys) {
		t.Fatalf("%s: %d groups, exact has %d", label, len(got.Keys), len(want.Keys))
	}
	for i := range want.Keys {
		if math.Float64bits(got.Keys[i]) != math.Float64bits(want.Keys[i]) {
			t.Fatalf("%s: group %d key %v, exact %v", label, i, got.Keys[i], want.Keys[i])
		}
		for j := range want.Cols {
			if math.Float64bits(got.Cols[j][i]) != math.Float64bits(want.Cols[j][i]) {
				t.Fatalf("%s: group %d agg %d = %x, exact %x",
					label, i, j, math.Float64bits(got.Cols[j][i]), math.Float64bits(want.Cols[j][i]))
			}
		}
	}
}

func buildPyramid(t *testing.T, pc *engine.PointCloud, specs []engine.GroupedAggSpec) (*Pyramid, *engine.Run) {
	t.Helper()
	sig, ok := Shape(pc, engine.ColClassification, specs)
	if !ok {
		t.Fatal("test specs should be pyramid-eligible")
	}
	run := new(engine.Run)
	p, err := For(run, pc, engine.ColClassification, specs, sig, nil)
	if err != nil {
		t.Fatalf("For: %v", err)
	}
	if p == nil {
		t.Fatal("pyramid declined an eligible table")
	}
	return p, run
}

// testViewports are the viewports pyramid answers are pinned over: random
// viewports, viewports snapped to base-tile edges, viewports larger than
// the extent, degenerate slivers and viewports outside the data.
func testViewports(p *Pyramid, pc *engine.PointCloud) []geom.Envelope {
	ext := pc.Extent()
	bg := p.levels[p.base].grid
	ntiles := float64(uint64(1) << bg.Order)
	tw, th := ext.Width()/ntiles, ext.Height()/ntiles
	rng := rand.New(rand.NewSource(7))
	var out []geom.Envelope
	for trial := 0; trial < 80; trial++ {
		var env geom.Envelope
		switch trial % 5 {
		case 0: // random viewport, arbitrary alignment
			x := ext.MinX + rng.Float64()*ext.Width()
			y := ext.MinY + rng.Float64()*ext.Height()
			env = geom.NewEnvelope(x, y, x+rng.Float64()*ext.Width(), y+rng.Float64()*ext.Height())
		case 1: // snapped exactly onto base-tile edges
			cx0, cy0 := rng.Intn(int(ntiles)), rng.Intn(int(ntiles))
			cx1, cy1 := cx0+rng.Intn(int(ntiles)-cx0), cy0+rng.Intn(int(ntiles)-cy0)
			env = geom.NewEnvelope(
				ext.MinX+float64(cx0)*tw, ext.MinY+float64(cy0)*th,
				ext.MinX+float64(cx1+1)*tw, ext.MinY+float64(cy1+1)*th)
		case 2: // strictly containing the whole extent
			env = geom.NewEnvelope(ext.MinX-50, ext.MinY-50, ext.MaxX+50, ext.MaxY+50)
		case 3: // sliver around a tile edge
			x := ext.MinX + float64(rng.Intn(int(ntiles)))*tw
			env = geom.NewEnvelope(x-tw/64, ext.MinY, x+tw/64, ext.MaxY)
		default: // entirely outside the data
			env = geom.NewEnvelope(ext.MaxX+10, ext.MaxY+10, ext.MaxX+100, ext.MaxY+100)
		}
		out = append(out, env)
	}
	return out
}

// TestPyramidMatchesExact pins pyramid answers to the exact serial arm,
// bit-for-bit, over testViewports with NaN values and ±Inf/-0 value
// columns.
func TestPyramidMatchesExact(t *testing.T) {
	pc := testCloud(200_000, 42)
	specs := testSpecs()
	p, run := buildPyramid(t, pc, specs)
	defer p.Release()
	defer run.Drain()

	var res engine.GroupedResult
	for trial, env := range testViewports(p, pc) {
		region := grid.GeometryRegion{G: env.ToPolygon()}
		qs, ok, err := p.QueryRegionRun(run, region, specs, &res)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !ok {
			t.Fatalf("trial %d: pyramid declined envelope %+v", trial, env)
		}
		want := exactGrouped(t, pc, region, specs)
		sameGrouped(t, "trial", &res, want)
		if trial%5 == 2 && qs.Boundary != 0 {
			// A viewport strictly containing every data bbox must be all
			// interior — O(visible tiles), whatever the row count.
			t.Fatalf("containing viewport refined %d boundary tiles", qs.Boundary)
		}
	}
}

// TestPyramidRectMatchesGridTwin pins the rectangle boundary refinement
// (grid.RectRowsInto) to the per-point Contains path it replaces: each
// viewport as a 4-corner rectangle and as the same box with an extra
// collinear vertex (which RectOf does not recognise) must give
// bit-identical groups and identical QueryStats.
func TestPyramidRectMatchesGridTwin(t *testing.T) {
	pc := testCloud(200_000, 42)
	specs := testSpecs()
	p, run := buildPyramid(t, pc, specs)
	defer p.Release()
	defer run.Drain()

	var rectRes, twinRes engine.GroupedResult
	refined := 0
	for trial, env := range testViewports(p, pc) {
		rect := grid.GeometryRegion{G: env.ToPolygon()}
		twin := grid.GeometryRegion{G: geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
			{X: env.MinX, Y: env.MinY}, {X: env.MaxX, Y: env.MinY}, {X: env.MaxX, Y: (env.MinY + env.MaxY) / 2},
			{X: env.MaxX, Y: env.MaxY}, {X: env.MinX, Y: env.MaxY},
		}}}}
		if _, ok := grid.RectOf(rect); !ok {
			t.Fatalf("trial %d: viewport %v not recognised as a rectangle", trial, env)
		}
		if _, ok := grid.RectOf(twin); ok {
			t.Fatalf("trial %d: 5-vertex twin recognised as a rectangle", trial)
		}
		rqs, rok, rerr := p.QueryRegionRun(run, rect, specs, &rectRes)
		tqs, tok, terr := p.QueryRegionRun(run, twin, specs, &twinRes)
		if rerr != nil || terr != nil || !rok || !tok {
			t.Fatalf("trial %d: rect ok=%v err=%v, twin ok=%v err=%v", trial, rok, rerr, tok, terr)
		}
		if rqs != tqs {
			t.Fatalf("trial %d: rect stats %+v, twin %+v", trial, rqs, tqs)
		}
		sameGrouped(t, "rect vs twin", &rectRes, &twinRes)
		refined += rqs.BoundaryRows
	}
	if refined == 0 {
		t.Fatal("no viewport refined a boundary row")
	}
}

// TestPyramidPolygonRegion pins the pyramid against a non-rectangular
// region: boundary classification falls back to the same per-point
// Contains test the grid refiner uses, so concave shapes stay exact.
func TestPyramidPolygonRegion(t *testing.T) {
	pc := testCloud(100_000, 5)
	specs := testSpecs()
	p, run := buildPyramid(t, pc, specs)
	defer p.Release()
	defer run.Drain()
	// An L-shaped polygon covering the lower-left of the extent.
	poly := geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: 50, Y: 50}, {X: 900, Y: 50}, {X: 900, Y: 300},
		{X: 400, Y: 300}, {X: 400, Y: 800}, {X: 50, Y: 800},
	}}}
	region := grid.GeometryRegion{G: poly}
	var res engine.GroupedResult
	if _, ok, err := p.QueryRegionRun(run, region, specs, &res); err != nil || !ok {
		t.Fatalf("polygon query: ok=%v err=%v", ok, err)
	}
	sameGrouped(t, "polygon", &res, exactGrouped(t, pc, region, specs))
}

// TestPyramidDropsOnEpochBump exercises the epoch contract: an Append (or
// InvalidateIndexes) bumps the table epoch, and the next For drops the
// stale pyramid, rebuilds against the new rows, and answers match the
// exact arm over the post-append state.
func TestPyramidDropsOnEpochBump(t *testing.T) {
	pc := testCloud(60_000, 9)
	specs := testSpecs()
	p1, run := buildPyramid(t, pc, specs)
	defer run.Drain()
	before := Snapshot()
	p1.Release()

	// Same epoch: the cache must serve the same pyramid.
	sig, _ := Shape(pc, engine.ColClassification, specs)
	p2, err := For(run, pc, engine.ColClassification, specs, sig, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Fatal("same-epoch lookup rebuilt the pyramid")
	}
	if s := Snapshot(); s.Hits != before.Hits+1 {
		t.Fatalf("hits = %d, want %d", s.Hits, before.Hits+1)
	}
	p2.Release()

	// Epoch bump: the stale pyramid drops and a fresh one builds.
	rng := rand.New(rand.NewSource(77))
	extra := make([]las.Point, 10_000)
	for i := range extra {
		extra[i] = las.Point{
			X: rng.Float64() * 1200, Y: rng.Float64() * 1200, Z: rng.Float64() * 500,
			Classification: uint8(rng.Intn(12)),
		}
	}
	pc.AppendLAS(extra)
	p3, err := For(run, pc, engine.ColClassification, specs, sig, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == nil {
		t.Fatal("pyramid declined after append")
	}
	defer p3.Release()
	if p3 == p1 {
		t.Fatal("stale pyramid survived the epoch bump")
	}
	if s := Snapshot(); s.Drops != before.Drops+1 || s.Builds != before.Builds+1 {
		t.Fatalf("drops/builds = %d/%d, want %d/%d", s.Drops, s.Builds, before.Drops+1, before.Builds+1)
	}

	region := grid.GeometryRegion{G: geom.NewEnvelope(100, 100, 1100, 1100).ToPolygon()}
	var res engine.GroupedResult
	if _, ok, err := p3.QueryRegionRun(run, region, specs, &res); err != nil || !ok {
		t.Fatalf("post-append query: ok=%v err=%v", ok, err)
	}
	sameGrouped(t, "post-append", &res, exactGrouped(t, pc, region, specs))
}

// TestPyramidDeclines covers the decline paths: empty tables, tables
// with no number in a coordinate column, unknown bank shapes, sum/avg
// specs (excluded from SQL routing by the determinism contract) and
// disabled routing. A NaN coordinate in the first row is not a decline.
func TestPyramidDeclines(t *testing.T) {
	pc := testCloud(10_000, 3)
	if _, ok := Shape(pc, engine.ColClassification, []engine.GroupedAggSpec{
		{Fn: engine.AggSum, Column: engine.ColZ}}); ok {
		t.Fatal("sum specs must not be SQL-eligible")
	}
	if _, ok := Shape(pc, engine.ColZ, []engine.GroupedAggSpec{{Fn: engine.AggCount}}); ok {
		t.Fatal("non-u8 keys must not be eligible")
	}
	if _, ok := Shape(pc, engine.ColClassification, []engine.GroupedAggSpec{
		{Fn: engine.AggMin, Column: "nope"}}); ok {
		t.Fatal("unknown value columns must not be eligible")
	}

	empty := engine.NewPointCloud()
	run := new(engine.Run)
	defer run.Drain()
	specs := []engine.GroupedAggSpec{{Fn: engine.AggCount}}
	if p := newPyramid(empty, 0, engine.ColClassification, specs); p != nil {
		t.Fatal("empty table should decline")
	}
	// A NaN x in the first row leaves the extent to the other rows: the
	// pyramid builds, and the NaN row, which no region contains, is in no
	// answer.
	nanFirst := engine.NewPointCloud()
	nanFirst.AppendLAS(append([]las.Point{{X: math.NaN(), Y: 5}}, insideBatch(rand.New(rand.NewSource(4)), geom.NewEnvelope(0, 0, 100, 100), 2000)...))
	p := freshPyramid(t, nanFirst, specs)
	var res engine.GroupedResult
	for _, env := range append(testViewports(p, nanFirst), geom.NewEnvelope(-1e9, -1e9, 1e9, 1e9)) {
		region := grid.GeometryRegion{G: env.ToPolygon()}
		if _, ok, err := p.QueryRegionRun(run, region, specs, &res); err != nil || !ok {
			t.Fatalf("NaN first row, viewport %v: ok=%v err=%v", env, ok, err)
		}
		sameGrouped(t, "NaN first row", &res, exactGrouped(t, nanFirst, region, specs))
	}
	// With no number in a coordinate column there is no extent to tile.
	for _, pts := range [][]las.Point{{{X: math.NaN(), Y: 5}, {X: math.NaN(), Y: 6}}, {{X: 1, Y: math.NaN()}, {X: 2, Y: math.NaN()}}} {
		nanCol := engine.NewPointCloud()
		nanCol.AppendLAS(pts)
		if p := newPyramid(nanCol, 0, engine.ColClassification, specs); p != nil {
			t.Fatalf("a table with extent %v should decline", nanCol.Extent())
		}
	}

	sig, _ := Shape(pc, engine.ColClassification, specs)
	SetEnabled(false)
	p, err := For(run, pc, engine.ColClassification, specs, sig, nil)
	SetEnabled(true)
	if p != nil || err != nil {
		t.Fatalf("disabled routing returned %v, %v", p, err)
	}

	// A pyramid-side decline: specs naming a bank the pyramid lacks.
	p, run2 := buildPyramid(t, pc, specs)
	defer p.Release()
	defer run2.Drain()
	region := grid.GeometryRegion{G: geom.NewEnvelope(0, 0, 500, 500).ToPolygon()}
	other := []engine.GroupedAggSpec{{Fn: engine.AggMin, Column: engine.ColZ}}
	if _, ok, err := p.QueryRegionRun(run2, region, other, &res); ok || err != nil {
		t.Fatalf("unknown bank should decline, got ok=%v err=%v", ok, err)
	}
}

// TestPyramidQueryZeroAllocWarm enforces the steady-state contract: with
// the pyramid resident and the result record reused, a viewport query
// performs zero heap allocations — the pan/zoom property the tentpole is
// built around.
func TestPyramidQueryZeroAllocWarm(t *testing.T) {
	pc := testCloud(150_000, 21)
	specs := testSpecs()
	p, run := buildPyramid(t, pc, specs)
	defer p.Release()
	defer run.Drain()
	// Box the region into the interface once: the SQL layer holds the plan's
	// region as an interface value, so per-call conversion is not part of
	// the steady-state contract.
	var region grid.Region = grid.GeometryRegion{G: geom.NewEnvelope(137, 201, 863, 740).ToPolygon()}
	var res engine.GroupedResult
	if _, ok, err := p.QueryRegionRun(run, region, specs, &res); err != nil || !ok {
		t.Fatalf("warm-up query: ok=%v err=%v", ok, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok, err := p.QueryRegionRun(run, region, specs, &res); err != nil || !ok {
			t.Fatalf("query: ok=%v err=%v", ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm pyramid query allocates %.1f objects/op, want 0", allocs)
	}
}

// poolMark is the Outstanding count of every engine buffer pool:
// selection vectors, candidate ranges and float64 scratch.
type poolMark [3]int64

func markPools() poolMark {
	return poolMark{engine.SelectionPoolStats().Outstanding, engine.RangePoolStats().Outstanding,
		engine.F64PoolStats().Outstanding}
}

// unmoved fails unless every pool's Outstanding is back where m recorded
// it. A pyramid owns its banks outright, so building, extending, evicting
// and dropping one leave no pooled buffer drawn.
func (m poolMark) unmoved(t *testing.T) {
	t.Helper()
	if now := markPools(); now != m {
		t.Fatalf("pool Outstanding (selection, range, f64) moved from %v to %v", m, now)
	}
}

// TestPyramidPoolBalance checks that a cancelled build, a build, queries,
// an extension, an epoch drop and release leave every engine pool exactly
// where it began, with the pyramid resident between the steps. The
// cancelled build returns cancel.ErrCancelled and publishes nothing (a
// build cancelled mid-pass is TestPyramidBuildCancelledMidPass, under
// -tags faultinject).
func TestPyramidPoolBalance(t *testing.T) {
	dropResident()
	defer dropResident()
	pc := testCloud(80_000, 13)
	specs := testSpecs()
	mark := markPools()

	done := make(chan struct{})
	close(done)
	cancelled := new(engine.Run)
	cancelled.Bind(done)
	before := Snapshot()
	if p, err := For(cancelled, pc, engine.ColClassification, specs, sigFor(engine.ColClassification, specs), nil); p != nil || err != cancel.ErrCancelled {
		t.Fatalf("cancelled build: For = %v, %v", p, err)
	}
	if s := Snapshot(); s.Pyramids != 0 || s.Builds != before.Builds {
		t.Fatalf("a cancelled build was published: %+v", s)
	}
	cancelled.Drain()
	mark.unmoved(t)

	p, run := buildPyramid(t, pc, specs)
	region := grid.GeometryRegion{G: geom.NewEnvelope(100, 100, 900, 900).ToPolygon()}
	var res engine.GroupedResult
	for i := 0; i < 5; i++ {
		if _, ok, err := p.QueryRegionRun(run, region, specs, &res); err != nil || !ok {
			t.Fatalf("query: ok=%v err=%v", ok, err)
		}
	}
	p.Release()
	run.Drain()
	mark.unmoved(t)

	// An append inside the extent extends the resident entry.
	before = Snapshot()
	pc.AppendLAS(insideBatch(rand.New(rand.NewSource(3)), pc.Extent(), 3000))
	p, run = buildPyramid(t, pc, specs)
	if s := Snapshot(); s.Extensions != before.Extensions+1 || s.Builds != before.Builds {
		t.Fatalf("extensions/builds moved by %d/%d, want 1/0", s.Extensions-before.Extensions, s.Builds-before.Builds)
	}
	if _, ok, err := p.QueryRegionRun(run, region, specs, &res); err != nil || !ok {
		t.Fatalf("query after extension: ok=%v err=%v", ok, err)
	}
	p.Release()
	run.Drain()
	mark.unmoved(t)

	// Drop the cache's own reference by bumping the epoch and looking up.
	pc.InvalidateIndexes()
	sig, _ := Shape(pc, engine.ColClassification, specs)
	if got, err := shared.lookup(nil, pc, sig, pc.Epoch(), nil); got != nil || err != nil {
		t.Fatalf("stale pyramid served after InvalidateIndexes: %v, %v", got, err)
	}
	mark.unmoved(t)
}

// dropResident empties the shared resident set, releasing the cache's own
// reference on every entry, so a test starts and ends from no residents.
func dropResident() {
	shared.mu.Lock()
	resident := shared.pyramids
	shared.pyramids = map[cacheKey]*Pyramid{}
	shared.mu.Unlock()
	for _, p := range resident {
		p.Release()
	}
}

// rejectingRegion counts the exact tests refinement asks of it and
// rejects every point.
type rejectingRegion struct {
	grid.Region
	tests *int
}

func (r rejectingRegion) Contains(x, y float64) bool {
	*r.tests++
	return false
}

// TestPyramidRefineStopsOnFiredToken: the edge-tile refinement polls
// before each block of tiles, the first included, so a fired token ends it
// with cancel.ErrCancelled having tested no row, where a live token tests
// the rows of every tile, and neither leaves a pooled buffer drawn.
func TestPyramidRefineStopsOnFiredToken(t *testing.T) {
	dropResident()
	defer dropResident()
	pc := testCloud(80_000, 13)
	specs := testSpecs()
	p, build := buildPyramid(t, pc, specs)
	defer p.Release()
	build.Drain()
	edge := make([]int, len(p.offs)-1)
	for i := range edge {
		edge[i] = i
	}
	done := make(chan struct{})
	close(done)
	mark := markPools()
	for _, fired := range []bool{true, false} {
		run := new(engine.Run)
		if fired {
			run.Bind(done)
		}
		tests := 0
		tri := geom.Polygon{Shell: geom.Ring{Points: []geom.Point{{X: -1, Y: -1}, {X: 3000, Y: -1}, {X: -1, Y: 3000}, {X: -1, Y: -1}}}}
		n, err := p.refine(run, rejectingRegion{Region: grid.GeometryRegion{G: tri}, tests: &tests}, edge, specs, nil)
		run.Drain()
		if fired && (n != 0 || err != cancel.ErrCancelled || tests != 0) {
			t.Fatalf("fired token: refine = %d, %v after %d exact tests", n, err, tests)
		}
		if !fired && (n != 0 || err != nil || tests != pc.Len()) {
			t.Fatalf("live token: refine = %d, %v after %d exact tests, want %d", n, err, tests, pc.Len())
		}
		mark.unmoved(t)
	}
}

// TestPyramidCacheEvictsAtBound pins the bound of the resident set — the one
// cache map that is not a bounded.Map, because eviction must release banks a
// pinned query may still be reading. maxPyramids+1 distinct shapes on one
// table evict at least one entry; an evicted pyramid still answers exactly
// while pinned; and once every pin is released the pools are back where
// they started.
func TestPyramidCacheEvictsAtBound(t *testing.T) {
	dropResident()
	defer dropResident()
	pc := testCloud(20_000, 17)
	mark := markPools()
	before := Snapshot()

	// Count alone, then count plus one min or max bank per value column:
	// each is its own signature.
	shapes := [][]engine.GroupedAggSpec{{{Fn: engine.AggCount}}}
	for _, col := range []string{engine.ColZ, engine.ColX, engine.ColY, engine.ColIntensity, engine.ColGPSTime} {
		for _, fn := range []engine.AggFunc{engine.AggMin, engine.AggMax} {
			shapes = append(shapes, []engine.GroupedAggSpec{{Fn: engine.AggCount}, {Fn: fn, Column: col}})
		}
	}
	shapes = shapes[:maxPyramids+1]

	run := new(engine.Run)
	pinned := make([]*Pyramid, len(shapes))
	for i, specs := range shapes {
		sig, ok := Shape(pc, engine.ColClassification, specs)
		if !ok {
			t.Fatalf("shape %d should be pyramid-eligible", i)
		}
		p, err := For(run, pc, engine.ColClassification, specs, sig, nil)
		if err != nil || p == nil {
			t.Fatalf("shape %d: For = %v, %v", i, p, err)
		}
		pinned[i] = p
	}
	st := Snapshot()
	if st.Pyramids > maxPyramids || st.Evictions-before.Evictions < 1 {
		t.Fatalf("after %d builds: %d resident, %d evictions; want <= %d resident and >= 1 eviction",
			len(shapes), st.Pyramids, st.Evictions-before.Evictions, maxPyramids)
	}

	shared.mu.Lock()
	resident := map[*Pyramid]bool{}
	for _, p := range shared.pyramids {
		resident[p] = true
	}
	shared.mu.Unlock()
	region := grid.GeometryRegion{G: geom.NewEnvelope(150, 120, 830, 910).ToPolygon()}
	evicted := 0
	for i, p := range pinned {
		if resident[p] {
			continue
		}
		evicted++
		var res engine.GroupedResult
		if _, ok, err := p.QueryRegionRun(run, region, shapes[i], &res); err != nil || !ok {
			t.Fatalf("evicted pyramid %d: ok=%v err=%v", i, ok, err)
		}
		sameGrouped(t, "evicted while pinned", &res, exactGrouped(t, pc, region, shapes[i]))
	}
	if evicted == 0 {
		t.Fatal("every pinned pyramid is still resident; nothing was evicted")
	}

	for _, p := range pinned {
		p.Release()
	}
	run.Drain()
	dropResident()
	mark.unmoved(t)
}
