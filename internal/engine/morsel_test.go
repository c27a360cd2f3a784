package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/las"
	"gisnav/internal/morsel"
	"gisnav/internal/sfc"
)

// Every operator is one partition body run at some degree, so comparing a
// degree-4 run with a degree-1 run would compare the code with itself.
// The property tests below instead pin EVERY degree — 1 included — to the
// row-at-a-time references (naiveFilterAll/Sel, naiveAggregate,
// refGrouped, refTileScatter), two ways: through the public entry points
// on a table large enough for morselDegree to fan out, and through the
// drivers directly on small adversarial tables (empty, single row, NaN,
// ±Inf, -0) at degrees past the row count and past the worker count.

// morselCloudRows is sized so morselDegree yields up to 4 partitions
// (rows / morselMinRows = 4) — large enough that every operator actually
// fans out, small enough to build per test.
const morselCloudRows = 4 << 16

// parRun returns a Run forcing the given fan-out cap.
func parRun(deg int) *Run {
	run := new(Run)
	run.SetMaxParallel(deg)
	return run
}

// selLen is the row count a (rows, nil = all) selection drives.
func selLen(pc *PointCloud, rows []int) int {
	if rows == nil {
		return pc.Len()
	}
	return len(rows)
}

// morselPoolSnapshot sums the Outstanding counters of every pool the
// operator passes draw from.
func morselPoolSnapshot() int64 {
	return SelectionPoolStats().Outstanding + RangePoolStats().Outstanding + F64PoolStats().Outstanding
}

// driverDegrees are the degrees the drivers are exercised at directly:
// the whole input as partition 0, small fan-outs, and one past the
// resident worker count (excess partitions queue for a free worker).
func driverDegrees() []int { return []int{1, 2, 4, morsel.Workers() + 3} }

// smallClouds are the adversarial tables of the direct-driver tests.
func smallClouds(t *testing.T) map[string]*PointCloud {
	return map[string]*PointCloud{
		"empty":  groupTestCloud(t, 0),
		"single": groupTestCloud(t, 1),
		"group":  groupTestCloud(t, 3000), // NaN values; NaN/±0/+Inf keys
		"random": randomTestCloud(2500, 31),
	}
}

// TestMorselFilterMatchesNaive pins the block filter to the per-row
// Matches loop: FilterRowsRun over random predicate chains (NaN-bearing z
// included) at degrees 1..5. The pass behind its whole-table arm is pinned
// at every degree over adversarial tables by TestPipelineMatchesReference.
func TestMorselFilterMatchesNaive(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	rng := rand.New(rand.NewSource(8))
	ops := []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE, CmpBetween}
	cols := []string{ColZ, ColIntensity, ColClassification, ColGPSTime}
	for trial := 0; trial < 20; trial++ {
		var preds []ColumnPred
		for np := 1 + rng.Intn(2); np > 0; np-- {
			p := ColumnPred{
				Column: cols[rng.Intn(len(cols))],
				Op:     ops[rng.Intn(len(ops))],
				Value:  rng.Float64()*300 - 60,
			}
			p.Value2 = p.Value + rng.Float64()*100
			preds = append(preds, p)
		}
		want := naiveFilterAll(pc.Column(preds[0].Column), preds[0])
		for _, p := range preds[1:] {
			want = naiveFilterSel(pc.Column(p.Column), want, p)
		}
		for _, deg := range []int{1, 2, 3, 5} {
			run := parRun(deg)
			got, err := pc.FilterRowsRun(run, nil, preds, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !equalRows(got, want) {
				t.Fatalf("trial %d deg %d preds %v: %d rows, naive %d", trial, deg, preds, len(got), len(want))
			}
			run.RecycleRows(got)
			if run.Live() != 0 {
				t.Fatalf("run still owns %d buffers after recycle", run.Live())
			}
		}
	}
}

// TestMorselRefineEveryDegree pins grid refinement at every degree to
// grid.RefineInto and to the exhaustive per-point reference: the driver at
// driverDegrees over boxes (the rectangle path, and the same box with an
// extra collinear vertex, which takes the cell grid), polygons, buffers,
// multi-regions and NaN/±Inf envelopes (which grid sizing cannot use and
// must fall back from), across
// full, fragmented, single-range, single-row and empty candidate lists
// over a table with NaN x and/or y rows;
// then SelectRegionRowsRun at caps 1..4 on a table large enough to fan out.
func TestMorselRefineEveryDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	poly := geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: 200, Y: 300}, {X: 750, Y: 250}, {X: 900, Y: 700}, {X: 350, Y: 900},
	}}}
	road := geom.LineString{Points: []geom.Point{{X: 0, Y: 500}, {X: 1000, Y: 520}}}
	spike := geom.NewEnvelope(700, 700, 950, 950).ToPolygon()
	box5 := geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: 100, Y: 150}, {X: 460, Y: 150}, {X: 820, Y: 150}, {X: 820, Y: 700}, {X: 100, Y: 700},
	}}}
	finite := map[string]grid.Region{
		"box":          boxRegion(geom.NewEnvelope(100, 150, 820, 700)),
		"box-5-vertex": grid.GeometryRegion{G: box5},
		"polygon":      grid.GeometryRegion{G: poly},
		"buffer":       grid.BufferRegion{G: road, D: 60},
		"multi-region": grid.NewMultiRegion([]geom.Geometry{poly, spike}),
		"multi-buffer": grid.NewMultiBuffer([]geom.Geometry{road, geom.Point{X: 200, Y: 800}}, 40),
	}
	regions := map[string]grid.Region{
		"inf-envelope": boxRegion(geom.Envelope{MinX: math.Inf(-1), MinY: 100, MaxX: 400, MaxY: math.Inf(1)}),
		"nan-envelope": boxRegion(geom.Envelope{MinX: math.NaN(), MinY: 0, MaxX: 500, MaxY: 500}),
	}
	for name, r := range finite {
		regions[name] = r
	}
	if _, ok := grid.RectOf(finite["box"]); !ok {
		t.Fatal("box region does not take the rectangle path")
	}
	if _, ok := grid.RectOf(finite["box-5-vertex"]); ok {
		t.Fatal("5-vertex box takes the rectangle path")
	}

	pc := groupTestCloud(t, 20000)
	xs, ys, n := pc.X(), pc.Y(), pc.Len()
	// NaN coordinates (x, y or both, the one-row candidate included) must
	// be rejected by every path exactly as the exhaustive test rejects them.
	xs[17] = math.NaN()
	for i := 5; i < n; i += 331 {
		switch i % 3 {
		case 0:
			xs[i] = math.NaN()
		case 1:
			ys[i] = math.NaN()
		default:
			xs[i], ys[i] = math.NaN(), math.NaN()
		}
	}
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
	before := morselPoolSnapshot()
	for rname, region := range regions {
		for cname, cand := range cands {
			want, _ := grid.RefineExhaustiveInto(xs, ys, cand, region, nil)
			serial, sst := grid.RefineInto(xs, ys, cand, region, pc.GridOpts, nil)
			if !equalRows(serial, want) {
				t.Fatalf("%s %s: RefineInto %d rows, exhaustive %d", rname, cname, len(serial), len(want))
			}
			for _, deg := range driverDegrees() {
				got, st, err := refineRanges(xs, ys, cand, region, pc.GridOpts, deg, rowPool.Get(0))
				if err != nil {
					t.Fatal(err)
				}
				if !equalRows(got, want) {
					t.Fatalf("%s %s deg %d: %d rows, reference %d", rname, cname, deg, len(got), len(want))
				}
				if st.Matches != len(want) || st.CandidateRows != colstore.RangesLen(cand) || (deg == 1 && st != sst) {
					t.Fatalf("%s %s deg %d: stats %+v, RefineInto %+v", rname, cname, deg, st, sst)
				}
				RecycleRows(got)
			}
		}
	}
	if d := morselPoolSnapshot() - before; d != 0 {
		t.Fatalf("refine passes drifted pools by %d", d)
	}

	big := groupTestCloud(t, morselCloudRows)
	for rname, region := range finite {
		want := scanRegion(big, region)
		for _, deg := range []int{1, 2, 3, 4} {
			run := parRun(deg)
			got := big.SelectRegionRowsRun(run, region, -1, nil)
			if !equalRows(got, want) {
				t.Fatalf("%s cap %d: %d rows, reference %d", rname, deg, len(got), len(want))
			}
			run.RecycleRows(got)
			if run.Live() != 0 {
				t.Fatalf("%s cap %d: select run still owns %d buffers", rname, deg, run.Live())
			}
		}
	}
}

// sameBits reports bit identity, the contract every degree is held to.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// keylessRun is Aggregate under run: fn over column through the key-less
// GroupedAggregateRun, for selections it finds non-empty.
func keylessRun(pc *PointCloud, run *Run, rows []int, fn AggFunc, column string) (float64, error) {
	var res GroupedResult
	if err := pc.GroupedAggregateRun(run, rows, nil, "", []GroupedAggSpec{{Fn: fn, Column: column}}, &res, nil); err != nil {
		return 0, err
	}
	if len(res.Keys) != 1 {
		return 0, fmt.Errorf("key-less fold emitted %d groups", len(res.Keys))
	}
	return res.Cols[0][0], nil
}

// TestMorselAggregateMatchesNaive pins the key-less fold to the naive
// closure bit-for-bit: GroupedAggregateRun with an empty key at degrees
// 1..5 over all-rows and selection inputs (sum/avg pin degree 1 whatever
// the cap), and the dense driver on the small tables at driverDegrees —
// min/max at every degree, the sum at degree 1, where partition 0 is the
// whole selection.
func TestMorselAggregateMatchesNaive(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	rng := rand.New(rand.NewSource(17))
	sel := randomSelection(rng, pc.Len(), 0.8)
	for _, name := range []string{ColZ, ColIntensity, ColGPSTime} {
		for _, rows := range [][]int{nil, sel} {
			n := selLen(pc, rows)
			for _, fn := range []AggFunc{AggMin, AggMax, AggSum, AggAvg} {
				want, _ := naiveAggregate(pc.Column(name), rows, rows == nil, fn, n)
				for _, deg := range []int{1, 2, 4, 5} {
					got, err := keylessRun(pc, parRun(deg), rows, fn, name)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(got, want) {
						t.Fatalf("%s(%s) deg %d over %d rows = %v, naive %v", fn, name, deg, n, got, want)
					}
				}
			}
		}
	}

	var res GroupedResult
	for cname, pc := range smallClouds(t) {
		sel := randomSelection(rng, pc.Len(), 0.5)
		for _, name := range []string{ColZ, ColGPSTime, ColIntensity, ColClassification, ColScanAngle, ColWaveOffset} {
			col := pc.Column(name)
			specs := []GroupedAggSpec{{Fn: AggSum, Column: name}, {Fn: AggMin, Column: name}, {Fn: AggMax, Column: name}}
			for _, rows := range [][]int{nil, sel} {
				all, n := rows == nil, selLen(pc, rows)
				wantSum, _ := naiveAggregate(col, rows, all, AggSum, n)
				for _, deg := range driverDegrees() {
					res.Reset(len(specs))
					if err := runDensePass(nil, pc, foldSrc{keyless: true}, 1, rows, all, n, specs, &res, deg); err != nil {
						t.Fatal(err)
					}
					if n == 0 {
						if len(res.Keys) != 0 {
							t.Fatalf("%s %s deg %d: empty selection emitted %d groups", cname, name, deg, len(res.Keys))
						}
						continue
					}
					sum, lo, hi := res.Cols[0][0], res.Cols[1][0], res.Cols[2][0]
					wantLo, _ := naiveAggregate(col, rows, all, AggMin, n)
					wantHi, _ := naiveAggregate(col, rows, all, AggMax, n)
					if !sameBits(lo, wantLo) || !sameBits(hi, wantHi) {
						t.Fatalf("%s %s deg %d: min/max = %v/%v, naive %v/%v", cname, name, deg, lo, hi, wantLo, wantHi)
					}
					if deg == 1 && !sameBits(sum, wantSum) {
						t.Fatalf("%s %s: sum = %v, naive %v", cname, name, sum, wantSum)
					}
				}
			}
		}
	}
}

// TestAggregateSumCarriesAcrossBlocks fails if the fold ever restarts its
// sum at a block boundary (sum += blockSum): with 1e16 heading block 0
// and -1e16 heading block 1, the row-at-a-time fold absorbs block 0's
// ones into 1e16 and keeps block 1's, while per-block sums absorb both.
func TestAggregateSumCarriesAcrossBlocks(t *testing.T) {
	n := 2*foldBlock + 100
	pts := make([]las.Point, n)
	for i := range pts {
		pts[i].Z = 1
	}
	pts[0].Z, pts[foldBlock].Z = 1e16, -1e16
	pc := NewPointCloud()
	pc.AppendLAS(pts)

	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	var thinned []int // drops two ones of block 1: a true gather, blocks cut by selection index
	for i := 0; i < n; i++ {
		if i != foldBlock+1 && i != foldBlock+2 {
			thinned = append(thinned, i)
		}
	}
	for _, rows := range [][]int{nil, identity, thinned} {
		all, cnt := rows == nil, selLen(pc, rows)
		// The reassociated fold this test exists to catch.
		var blocked float64
		for b := 0; b < cnt; b += foldBlock {
			var bs float64
			for i := b; i < min(b+foldBlock, cnt); i++ {
				r := i
				if !all {
					r = rows[i]
				}
				bs += pts[r].Z
			}
			blocked += bs
		}
		for _, fn := range []AggFunc{AggSum, AggAvg} {
			want, _ := naiveAggregate(pc.Column(ColZ), rows, all, fn, cnt)
			got, err := pc.Aggregate(rows, fn, ColZ, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("%s over %d rows = %v, row-at-a-time %v", fn, cnt, got, want)
			}
			if fn == AggSum && sameBits(want, blocked) {
				t.Fatalf("data does not discriminate: per-block sum %v equals the running sum", blocked)
			}
		}
	}
}

// TestAggregateSumCancelledAtBlockBoundary: a fired token stops the
// degree-1 sum/avg fold at its next block boundary — ErrCancelled, never a
// partial sum — with nothing left outstanding in any pool.
func TestAggregateSumCancelledAtBlockBoundary(t *testing.T) {
	pc := groupTestCloud(t, 8*scanChunk)
	done := make(chan struct{})
	close(done)
	run := new(Run)
	run.Bind(done)
	before := morselPoolSnapshot()
	sel := randomSelection(rand.New(rand.NewSource(5)), pc.Len(), 0.5)
	for _, rows := range [][]int{nil, sel} {
		for _, fn := range []AggFunc{AggSum, AggAvg} {
			if _, err := keylessRun(pc, run, rows, fn, ColZ); err != cancel.ErrCancelled {
				t.Fatalf("%s err = %v, want ErrCancelled", fn, err)
			}
		}
	}
	if run.Live() != 0 {
		t.Fatalf("cancelled aggregate left %d buffers on the run", run.Live())
	}
	if d := morselPoolSnapshot() - before; d != 0 {
		t.Fatalf("cancelled aggregate drifted pools by %d", d)
	}
	// The pass polls before its first block: a fired token folds no row.
	specs := []GroupedAggSpec{{Fn: AggSum, Column: ColZ}, {Fn: AggMin, Column: ColZ}, {Fn: AggMax, Column: ColZ}}
	for _, rows := range [][]int{nil, sel} {
		cnt, banks := []float64{0}, make([]float64, len(specs))
		foldSpecs(foldSrc{keyless: true}, pc, specs, rows, rows == nil, 0, selLen(pc, rows), cnt, foldBanks{flat: banks, n: 1}, make([]float64, 2), true, run.Token())
		if sum, lo, hi := banks[0], banks[1], banks[2]; cnt[0] != 0 || sum != 0 || !math.IsInf(lo, 1) || !math.IsInf(hi, -1) {
			t.Fatalf("fired token: pass folded count %v, sum %v, min %v, max %v", cnt[0], sum, lo, hi)
		}
	}
}

// TestGroupedSumCarriesAcrossBlocks is TestAggregateSumCarriesAcrossBlocks
// for the grouped fold: selections whose lengths straddle the fold's block
// boundary by one row either way must produce per-group sums bit-equal to
// the row-at-a-time loop on the dense and hash paths. With 1e16 heading
// block 0 and -1e16 heading block 1 of one group, a fold that restarted its
// sum per block (bank[s] += blockSum) would absorb both blocks' ones.
func TestGroupedSumCarriesAcrossBlocks(t *testing.T) {
	n := 2*foldBlock + 100
	pts := make([]las.Point, n)
	for i := range pts {
		pts[i] = las.Point{Z: 1, Classification: 2, GPSTime: 2}
		if i%5 == 4 {
			pts[i].Classification, pts[i].GPSTime = 6, 6
		}
	}
	pts[0].Z, pts[foldBlock].Z = 1e16, -1e16
	pc := NewPointCloud()
	pc.AppendLAS(pts)

	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	var thinned []int // drops two ones of block 1: a true gather, blocks cut by selection index
	for i := 0; i < n; i++ {
		if i != foldBlock+1 && i != foldBlock+2 {
			thinned = append(thinned, i)
		}
	}
	sels := [][]int{nil, identity, thinned}
	for _, cut := range []int{foldBlock - 1, foldBlock, foldBlock + 1, 2*foldBlock - 1, 2*foldBlock + 1} {
		sels = append(sels, identity[:cut])
	}
	specs := []GroupedAggSpec{{Fn: AggCount}, {Fn: AggSum, Column: ColZ}, {Fn: AggAvg, Column: ColZ}}
	var got GroupedResult
	for _, rows := range sels {
		cnt := selLen(pc, rows)
		// Group 2's sum as a per-block fold would compute it.
		var blocked float64
		for b := 0; b < cnt; b += foldBlock {
			var bs float64
			for i := b; i < min(b+foldBlock, cnt); i++ {
				r := i
				if rows != nil {
					r = rows[i]
				}
				if pts[r].Classification == 2 {
					bs += pts[r].Z
				}
			}
			blocked += bs
		}
		for _, key := range []string{ColClassification, ColGPSTime, ""} {
			wantKeys, wantCols := refGrouped(pc, rows, key, specs)
			if err := pc.GroupedAggregate(rows, key, specs, &got, nil); err != nil {
				t.Fatal(err)
			}
			sameGroupedRef(t, fmt.Sprintf("%s over %d rows", key, cnt), &got, wantKeys, wantCols)
			if cnt > foldBlock+1 && sameBits(wantCols[1][0], blocked) {
				t.Fatalf("data does not discriminate: per-block sum %v equals the running sum", blocked)
			}
		}
	}
}

// TestGroupedCancelledAtBlockBoundary: a fold pass polls the token before
// every block, the first included, so a fired token stops it at a block
// boundary having read nothing further. A fold plan over a four-block span
// with a fired token leaves the count bank and every accumulator untouched
// (a live token fills them); the dense and hash drivers surface
// cancel.ErrCancelled with both pools balanced. The armed build fires the
// token inside the first block (TestFaultGroupedCancelledAtBlockBoundary).
func TestGroupedCancelledAtBlockBoundary(t *testing.T) {
	pc := groupTestCloud(t, 4*foldBlock)
	done := make(chan struct{})
	close(done)
	var fired cancel.Token
	fired.Reset(done)
	specs := []GroupedAggSpec{{Fn: AggCount}, {Fn: AggSum, Column: ColRed}, {Fn: AggMax, Column: ColZ}}
	sel := randomSelection(rand.New(rand.NewSource(13)), pc.Len(), 0.9)
	keys := pc.Column(ColClassification).(*colstore.U8Column).Values()
	// The first plan counts in its value pass, the count-only plan in the
	// count loop.
	for _, plan := range [][]GroupedAggSpec{specs, specs[:1]} {
		for _, rows := range [][]int{nil, sel} {
			n := pc.Len()
			if rows != nil {
				n = len(rows)
			}
			for _, tok := range []*cancel.Token{&fired, nil} {
				cnt := make([]float64, classDom)
				banks := make([]float64, len(plan)*classDom)
				sink := make([]float64, classDom+1)
				fillNaN(sink)
				foldSpecs(foldSrc{keys8: keys}, pc, plan, rows, rows == nil, 0, n, cnt, foldBanks{flat: banks, n: classDom}, sink, false, tok)
				counted, touched := 0.0, 0
				for _, c := range cnt {
					counted += c
				}
				for _, v := range banks {
					if v != 0 {
						touched++
					}
				}
				if tok == &fired && (counted != 0 || touched != 0) {
					t.Fatalf("fired token: fold of %d specs counted %v rows and touched %d accumulators", len(plan), counted, touched)
				}
				if tok == nil && (counted != float64(n) || (touched == 0) != (len(plan) == 1)) {
					t.Fatalf("live token: fold of %d specs counted %v of %d rows, touched %d accumulators", len(plan), counted, n, touched)
				}
			}
		}
	}
	// The tile scatter ahead of a pyramid's fold polls the same way: a
	// fired token folds no row into any tile.
	tiler := sfc.NewGrid(geom.NewEnvelope(0, 0, 1000, 1000), 3)
	for _, tok := range []*cancel.Token{&fired, nil} {
		tiles := make([]TileBox, 1<<(2*tiler.Order))
		seedTiles(tiles)
		tileScan(pc.X(), pc.Y(), keys, firstSeen(keys), tiler, 0, pc.Len(), make([]int, pc.Len()), tiles, tok)
		rows, want := 0, pc.Len()
		for _, tb := range tiles {
			rows += tb.Rows
		}
		if tok != nil {
			want = 0
		}
		if rows != want {
			t.Fatalf("tile scatter (fired %v) folded %d rows, want %d", tok != nil, rows, want)
		}
	}
	var res GroupedResult
	for _, key := range []string{ColClassification, ColGPSTime} {
		for _, rows := range [][]int{nil, sel} {
			run := new(Run)
			run.Bind(done)
			before := morselPoolSnapshot()
			if err := pc.GroupedAggregateRun(run, rows, nil, key, specs, &res, nil); err != cancel.ErrCancelled {
				t.Fatalf("key %s: err = %v, want ErrCancelled", key, err)
			}
			if run.Live() != 0 {
				t.Fatalf("key %s: cancelled fold left %d buffers on the run", key, run.Live())
			}
			if d := morselPoolSnapshot() - before; d != 0 {
				t.Fatalf("key %s: cancelled fold drifted pools by %d", key, d)
			}
		}
	}
}

// sameGroupedRef asserts a grouped result is bit-identical to the
// row-at-a-time reference, NaN payloads included: the reference keeps its
// first-seen key payload and accumulates in ascending row order, as the
// kernels must.
func sameGroupedRef(t *testing.T, label string, got *GroupedResult, wantKeys []float64, wantCols [][]float64) {
	t.Helper()
	if len(got.Keys) != len(wantKeys) {
		t.Fatalf("%s: %d groups, reference %d", label, len(got.Keys), len(wantKeys))
	}
	for i := range wantKeys {
		if !sameBits(got.Keys[i], wantKeys[i]) {
			t.Fatalf("%s: key[%d] = %v, reference %v", label, i, got.Keys[i], wantKeys[i])
		}
		for j := range wantCols {
			if !sameBits(got.Cols[j][i], wantCols[j][i]) {
				t.Fatalf("%s: col %d group %d = %v, reference %v", label, j, i, got.Cols[j][i], wantCols[j][i])
			}
		}
	}
}

// TestMorselGroupedMatchesReference pins the dense (u8, u16, key-less) and
// hash (f64 keys with NaN/±0/+Inf) strategies to refGrouped at every degree,
// over all-rows and selection inputs: GroupedAggregateRun at caps 1..4
// (plans with sum/avg pin degree 1), and the drivers on the small tables
// at driverDegrees.
func TestMorselGroupedMatchesReference(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	rng := rand.New(rand.NewSource(23))
	sel := randomSelection(rng, pc.Len(), 0.85)
	exact := []GroupedAggSpec{
		{Fn: AggCount},
		{Fn: AggMin, Column: ColZ},
		{Fn: AggMax, Column: ColGPSTime},
		{Fn: AggMax, Column: ColZ}, // shares the min's pass over z
	}
	withSum := []GroupedAggSpec{
		{Fn: AggSum, Column: ColZ},
		{Fn: AggCount},
		{Fn: AggAvg, Column: ColIntensity},
	}
	var got GroupedResult
	for _, key := range []string{ColClassification, ColIntensity, ColGPSTime, ""} {
		for _, rows := range [][]int{nil, sel} {
			for _, specs := range [][]GroupedAggSpec{exact, withSum} {
				wantKeys, wantCols := refGrouped(pc, rows, key, specs)
				for _, deg := range []int{1, 2, 3, 4} {
					run := parRun(deg)
					if err := pc.GroupedAggregateRun(run, rows, nil, key, specs, &got, nil); err != nil {
						t.Fatal(err)
					}
					if run.Live() != 0 {
						t.Fatalf("grouped run still owns %d buffers", run.Live())
					}
					sameGroupedRef(t, key, &got, wantKeys, wantCols)
				}
			}
		}
	}

	for cname, pc := range smallClouds(t) {
		n := pc.Len()
		sel := randomSelection(rng, n, 0.5)
		for _, rows := range [][]int{nil, sel} {
			all, cnt := rows == nil, selLen(pc, rows)
			for _, deg := range driverDegrees() {
				wantKeys, wantCols := refGrouped(pc, rows, ColClassification, exact)
				got.Reset(len(exact))
				keys8 := pc.Column(ColClassification).(*colstore.U8Column).Values()
				if err := runDensePass(nil, pc, foldSrc{keys8: keys8}, 1<<8, rows, all, cnt, exact, &got, deg); err != nil {
					t.Fatal(err)
				}
				sameGroupedRef(t, cname+" dense", &got, wantKeys, wantCols)
				for _, key := range []string{ColGPSTime, ColIntensity, ColScanAngle} {
					wantKeys, wantCols = refGrouped(pc, rows, key, exact)
					got.Reset(len(exact))
					if err := runHashPass(nil, pc, pc.Column(key), rows, all, cnt, exact, &got, deg); err != nil {
						t.Fatal(err)
					}
					sameGroupedRef(t, cname+" hash "+key, &got, wantKeys, wantCols)
				}
			}
		}
	}
}

// TestMorselFoldPlanEveryDegree runs the fold-plan property table
// (foldPlanConfigs) at every degree: through GroupedAggregateRun on a
// table large enough to fan out, and through the dense-u8, dense-u16,
// hash and key-less drivers directly on empty, single-row and small tables at
// driverDegrees. Plans carrying a sum or avg are driven at degree 1 only —
// the public entry point pins them there whatever the cap.
func TestMorselFoldPlanEveryDegree(t *testing.T) {
	var got GroupedResult
	big := foldTestCloud(morselCloudRows)
	rng := rand.New(rand.NewSource(29))
	sel := randomSelection(rng, big.Len(), 0.7)
	for _, cfg := range foldPlanConfigs() {
		switch cfg.name {
		case "all-on-one", "min-max-pairs", "exact-types":
		default:
			continue // the small tables below cover every configuration
		}
		for _, key := range []string{ColClassification, ColPointSourceID, ColGPSTime, ""} {
			wantKeys, wantCols := refGrouped(big, sel, key, cfg.specs)
			for _, deg := range []int{1, 2, 3, 4} {
				run := parRun(deg)
				if err := big.GroupedAggregateRun(run, sel, nil, key, cfg.specs, &got, nil); err != nil {
					t.Fatal(err)
				}
				if run.Live() != 0 {
					t.Fatalf("%s: grouped run still owns %d buffers", cfg.name, run.Live())
				}
				sameGroupedRef(t, fmt.Sprintf("%s key %s cap %d", cfg.name, key, deg), &got, wantKeys, wantCols)
			}
		}
	}

	for _, n := range []int{0, 1, 2000} {
		pc := foldTestCloud(n)
		keys8 := pc.Column(ColClassification).(*colstore.U8Column).Values()
		keys16 := pc.Column(ColPointSourceID).(*colstore.U16Column).Values()
		for _, cfg := range foldPlanConfigs() {
			degs := []int{1}
			if specsMergeExact(cfg.specs) {
				degs = driverDegrees()
			}
			for _, rows := range foldSelections(rng, n) {
				if len(rows) > n {
					continue // the single-row selection of the empty table
				}
				all, cnt := rows == nil, selLen(pc, rows)
				arms := []struct {
					name, key string
					run       func(deg int) error
				}{
					{"dense-u8", ColClassification, func(deg int) error {
						return runDensePass(nil, pc, foldSrc{keys8: keys8}, 1<<8, rows, all, cnt, cfg.specs, &got, deg)
					}},
					{"dense-u16", ColPointSourceID, func(deg int) error {
						return runDensePass(nil, pc, foldSrc{keys16: keys16}, 1<<16, rows, all, cnt, cfg.specs, &got, deg)
					}},
					{"hash", ColGPSTime, func(deg int) error {
						return runHashPass(nil, pc, pc.Column(ColGPSTime), rows, all, cnt, cfg.specs, &got, deg)
					}},
					{"key-less", "", func(deg int) error {
						return runDensePass(nil, pc, foldSrc{keyless: true}, 1, rows, all, cnt, cfg.specs, &got, deg)
					}},
				}
				for _, arm := range arms {
					if arm.name == "dense-u16" && len(cfg.specs) > 10 {
						continue // 64K slots x 72 banks per partition: all seeding, no new coverage
					}
					wantKeys, wantCols := refGrouped(pc, rows, arm.key, cfg.specs)
					for _, deg := range degs {
						got.Reset(len(cfg.specs))
						if err := arm.run(deg); err != nil {
							t.Fatal(err)
						}
						sameGroupedRef(t, fmt.Sprintf("%s %s n=%d sel=%d deg %d", cfg.name, arm.name, n, cnt, deg), &got, wantKeys, wantCols)
					}
				}
			}
		}
	}
}

// firstSeen codes the classes keys hold in order of first appearance, at
// the narrowest power-of-two width: the dictionary a pyramid build makes.
func firstSeen(keys []uint8) *TileClasses {
	var tc TileClasses
	var seen [classDom]bool
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			tc.Codes[k] = uint8(len(tc.Classes))
			tc.Classes = append(tc.Classes, k)
		}
	}
	for 1<<tc.Shift < len(tc.Classes) {
		tc.Shift++
	}
	return &tc
}

// wholeDomain codes every class as itself at 256 slots per tile.
func wholeDomain() *TileClasses {
	tc := TileClasses{Shift: 8}
	for k := range classDom {
		tc.Codes[k] = uint8(k)
		tc.Classes = append(tc.Classes, uint8(k))
	}
	return &tc
}

// refTileScatter is the row-at-a-time tile scatter: every row folds into
// its (tile, class) slot in ascending row order, and into its tile's row
// count, its NaN-coordinate count and its data box with strict compares
// from ±Inf.
func refTileScatter(pc *PointCloud, tiler sfc.Grid, classes *TileClasses, specs []GroupedAggSpec) (cnt []float64, banks [][]float64, tiles []TileBox, slots []int) {
	ntiles := 1 << (2 * tiler.Order)
	nslots := ntiles << classes.Shift
	cnt = make([]float64, nslots)
	banks = make([][]float64, len(specs))
	for j, s := range specs {
		banks[j] = make([]float64, nslots)
		seedBank(banks[j], s.Fn)
	}
	tiles, slots = make([]TileBox, ntiles), make([]int, pc.Len())
	seedTiles(tiles)
	keys := pc.Column(ColClassification)
	for r := 0; r < pc.Len(); r++ {
		x, y := pc.X()[r], pc.Y()[r]
		cx, cy := tiler.Cell(x, y)
		t := int(cy)<<tiler.Order | int(cx)
		slot := t<<classes.Shift | int(classes.Codes[int(keys.Value(r))])
		slots[r] = slot
		b := &tiles[t]
		b.Rows++
		if math.IsNaN(x) || math.IsNaN(y) {
			b.NaN++
		}
		if x < b.Box.MinX {
			b.Box.MinX = x
		}
		if x > b.Box.MaxX {
			b.Box.MaxX = x
		}
		if y < b.Box.MinY {
			b.Box.MinY = y
		}
		if y > b.Box.MaxY {
			b.Box.MaxY = y
		}
		cnt[slot]++
		for j, s := range specs {
			if s.Fn == AggCount {
				continue
			}
			v := pc.Column(s.Column).Value(r)
			switch {
			case s.Fn == AggSum:
				banks[j][slot] += v
			case s.Fn == AggMin && v < banks[j][slot], s.Fn == AggMax && v > banks[j][slot]:
				banks[j][slot] = v
			}
		}
	}
	return cnt, banks, tiles, slots
}

// signedZeroCloud returns n points whose coordinates are −0, +0 and a few
// tile corners in random order: tile (0, 0) of the tile scatter's tests
// holds only ±0, so its data box edges are ties the earliest row must win,
// whichever partition it falls in.
func signedZeroCloud(n int) *PointCloud {
	rng := rand.New(rand.NewSource(61))
	vals := []float64{math.Copysign(0, -1), 0, 0, math.Copysign(0, -1), 250, 1000}
	pts := make([]las.Point, n)
	for i := range pts {
		pts[i] = las.Point{X: vals[rng.Intn(len(vals))], Y: vals[rng.Intn(len(vals))], Z: float64(i % 13),
			Classification: uint8(rng.Intn(4))}
	}
	pc := NewPointCloud()
	pc.AppendLAS(pts)
	return pc
}

// TestMorselTileScatterMatchesNaive pins the tile scatter to the
// row-at-a-time reference at every degree: TileGroupedAggregateRun at
// caps 1..4 on the large table (the sum shape pins degree 1), and the
// driver on the small tables at driverDegrees, each over two class
// dictionaries — the classes present coded by first appearance at the
// narrowest width, and the whole u8 domain coded as itself at 256 slots.
// Banks and tile arrays arrive stale, as pooled buffers do; the tile
// counts, the data boxes (bit for bit: ties of −0 and +0 on
// signedZeroCloud, NaN and ±Inf coordinates on the random table) and
// every row's slot must equal the reference's too.
func TestMorselTileScatterMatchesNaive(t *testing.T) {
	exact := []GroupedAggSpec{{Fn: AggMin, Column: ColZ}, {Fn: AggCount}, {Fn: AggMax, Column: ColIntensity}}
	withSum := []GroupedAggSpec{{Fn: AggCount}, {Fn: AggSum, Column: ColZ}, {Fn: AggMax, Column: ColZ}}
	// The fold plan's shapes on the tile path: a min/max pair sharing one
	// pass with repeats and a second column, a count-only list, a list
	// without a count, and sums repeated beside min/max over three types.
	exactPlans := [][]GroupedAggSpec{
		exact,
		{{Fn: AggMin, Column: ColZ}, {Fn: AggMax, Column: ColZ}, {Fn: AggMin, Column: ColZ}, {Fn: AggCount},
			{Fn: AggMax, Column: ColGPSTime}, {Fn: AggCount}, {Fn: AggMin, Column: ColRed}},
		{{Fn: AggCount}},
		{{Fn: AggMax, Column: ColClassification}},
	}
	sumPlan := []GroupedAggSpec{{Fn: AggSum, Column: ColZ}, {Fn: AggSum, Column: ColZ}, {Fn: AggMin, Column: ColZ},
		{Fn: AggSum, Column: ColIntensity}, {Fn: AggMax, Column: ColClassification}}
	const order = 3
	check := func(label string, pc *PointCloud, classes *TileClasses, specs []GroupedAggSpec, scatter func(tiler sfc.Grid, cnt []float64, banks [][]float64, tiles []TileBox, slots []int) error) {
		t.Helper()
		tiler := sfc.NewGrid(geom.NewEnvelope(0, 0, 1000, 1000), order)
		wantCnt, wantBanks, wantTiles, wantSlots := refTileScatter(pc, tiler, classes, specs)
		nslots := len(wantCnt)
		cnt := make([]float64, nslots)
		banks := make([][]float64, len(specs))
		for j := range banks {
			banks[j] = make([]float64, nslots)
			for i := range banks[j] {
				banks[j][i], cnt[i] = -7, -7 // stale pooled contents
			}
		}
		tiles, slots := make([]TileBox, len(wantTiles)), make([]int, pc.Len())
		for i := range tiles {
			tiles[i] = TileBox{Rows: -7, NaN: -7, Box: geom.Envelope{MinX: -7, MinY: -7, MaxX: -7, MaxY: -7}}
		}
		for i := range slots {
			slots[i] = -7
		}
		if err := scatter(tiler, cnt, banks, tiles, slots); err != nil {
			t.Fatal(err)
		}
		for s := range wantCnt {
			if cnt[s] != wantCnt[s] {
				t.Fatalf("%s: count[%d] = %v, reference %v", label, s, cnt[s], wantCnt[s])
			}
			for j, sp := range specs {
				same := sameBits(banks[j][s], wantBanks[j][s]) || (banks[j][s] != banks[j][s] && wantBanks[j][s] != wantBanks[j][s])
				if sp.Fn != AggCount && !same {
					t.Fatalf("%s: bank %d slot %d = %v, reference %v", label, j, s, banks[j][s], wantBanks[j][s])
				}
			}
		}
		for i, w := range wantTiles {
			g := tiles[i]
			if g.Rows != w.Rows || g.NaN != w.NaN || !sameBits(g.Box.MinX, w.Box.MinX) || !sameBits(g.Box.MinY, w.Box.MinY) ||
				!sameBits(g.Box.MaxX, w.Box.MaxX) || !sameBits(g.Box.MaxY, w.Box.MaxY) {
				t.Fatalf("%s: tile %d = %d rows (%d NaN) in %v, reference %d rows (%d NaN) in %v", label, i, g.Rows, g.NaN, g.Box, w.Rows, w.NaN, w.Box)
			}
		}
		if !slices.Equal(slots, wantSlots) {
			t.Fatalf("%s: row slots differ from the reference", label)
		}
	}

	big := groupTestCloud(t, morselCloudRows)
	bigKeys := big.Column(ColClassification).(*colstore.U8Column).Values()
	for _, classes := range []*TileClasses{firstSeen(bigKeys), wholeDomain()} {
		for _, specs := range append([][]GroupedAggSpec{withSum, sumPlan}, exactPlans...) {
			for _, deg := range []int{1, 2, 4} {
				run := parRun(deg)
				check("entry", big, classes, specs, func(tiler sfc.Grid, cnt []float64, banks [][]float64, tiles []TileBox, slots []int) error {
					return big.TileGroupedAggregateRun(run, tiler, ColClassification, classes, specs, cnt, banks, tiles, slots, 0, nil)
				})
				if run.Live() != 0 {
					t.Fatalf("tile run still owns %d buffers", run.Live())
				}
			}
		}
	}
	clouds := smallClouds(t)
	clouds["signed zeros"] = signedZeroCloud(3000)
	for cname, pc := range clouds {
		keys := pc.Column(ColClassification).(*colstore.U8Column).Values()
		for _, classes := range []*TileClasses{firstSeen(keys), wholeDomain()} {
			for _, specs := range append([][]GroupedAggSpec{sumPlan}, exactPlans...) {
				degs := []int{1}
				if specsMergeExact(specs) {
					degs = driverDegrees()
				}
				for _, deg := range degs {
					check(cname, pc, classes, specs, func(tiler sfc.Grid, cnt []float64, banks [][]float64, tiles []TileBox, slots []int) error {
						seedBank(cnt, AggCount)
						for j, s := range specs {
							seedBank(banks[j], s.Fn)
						}
						seedTiles(tiles)
						return pc.runTilePass(nil, tiler, keys, classes, specs, cnt, banks, tiles, slots, 0, pc.Len(), deg)
					})
				}
			}
		}
	}
}

// TestGroupedAccumulateRowsMatchesReference pins the pyramid's boundary
// fold to the row-at-a-time reference: two calls landing on top of one
// seeded slab equal one reference run over the concatenated row lists (in
// slice order), for plans with several columns, repeats, every value-type
// arm, a count-only list and a list without a count.
func TestGroupedAccumulateRowsMatchesReference(t *testing.T) {
	pc := foldTestCloud(5000)
	rng := rand.New(rand.NewSource(41))
	first, second := randomSelection(rng, pc.Len(), 0.3), randomSelection(rng, pc.Len(), 0.2)
	both := append(append([]int{}, first...), second...)
	for _, specs := range [][]GroupedAggSpec{
		{{Fn: AggCount}, {Fn: AggSum, Column: ColZ}, {Fn: AggMin, Column: ColZ}, {Fn: AggMax, Column: ColZ},
			{Fn: AggMin, Column: ColZ}, {Fn: AggSum, Column: ColZ}, {Fn: AggMax, Column: ColWaveReturnPoint},
			{Fn: AggSum, Column: ColUserData}, {Fn: AggMin, Column: ColScanAngle}, {Fn: AggMax, Column: ColWaveOffset}},
		{{Fn: AggCount}},
		{{Fn: AggMax, Column: ColIntensity}},
	} {
		slab := make([]float64, (1+len(specs))*classDom)
		for j, s := range specs {
			seedBank(slab[(1+j)*classDom:(2+j)*classDom], s.Fn)
		}
		for _, rows := range [][]int{first, {}, second} {
			if err := pc.GroupedAccumulateRows(rows, ColClassification, specs, slab); err != nil {
				t.Fatal(err)
			}
		}
		wantKeys, wantCols := refGrouped(pc, both, ColClassification, specs)
		groups := 0
		for k, c := range slab[:classDom] {
			if c == 0 {
				continue
			}
			if groups >= len(wantKeys) || wantKeys[groups] != float64(k) {
				t.Fatalf("%d specs: unexpected class %d in the count bank", len(specs), k)
			}
			for j, s := range specs {
				got, want := slab[(1+j)*classDom+k], wantCols[j][groups]
				if s.Fn == AggCount {
					got = c
				}
				if !sameBits(got, want) && !(got != got && want != want) {
					t.Fatalf("%d specs: class %d spec %d = %v, reference %v", len(specs), k, j, got, want)
				}
			}
			groups++
		}
		if groups != len(wantKeys) {
			t.Fatalf("%d specs: %d classes in the count bank, reference %d", len(specs), groups, len(wantKeys))
		}
		// The pyramid's warm query path: the sink lives on the stack.
		if allocs := testing.AllocsPerRun(20, func() {
			if err := pc.GroupedAccumulateRows(first, ColClassification, specs, slab); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%d specs: GroupedAccumulateRows allocates %.1f objects/op, want 0", len(specs), allocs)
		}
	}
}

// TestMorselCancelledMidPass proves a token firing during a fanned-out
// pass surfaces as ErrCancelled with zero pool drift: partitions bail at
// their next block boundary and the driver discards every partial.
func TestMorselCancelledMidPass(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	done := make(chan struct{})
	close(done)
	run := new(Run)
	run.Bind(done)
	run.SetMaxParallel(4)
	rowsBefore := SelectionPoolStats().Outstanding
	f64Before := F64PoolStats().Outstanding

	if _, err := pc.FilterRowsRun(run, nil, []ColumnPred{{Column: ColZ, Op: CmpGT, Value: 0}}, nil); err != cancel.ErrCancelled {
		t.Fatalf("filter err = %v, want ErrCancelled", err)
	}
	run.Drain()
	var res GroupedResult
	for _, key := range []string{ColClassification, ColGPSTime} {
		err := pc.GroupedAggregateRun(run, nil, nil, key, []GroupedAggSpec{{Fn: AggCount}, {Fn: AggMin, Column: ColZ}}, &res, nil)
		if err != cancel.ErrCancelled {
			t.Fatalf("grouped key %s err = %v, want ErrCancelled", key, err)
		}
		run.Drain()
	}
	if _, err := keylessRun(pc, run, nil, AggMin, ColZ); err != cancel.ErrCancelled {
		t.Fatalf("aggregate err = %v, want ErrCancelled", err)
	}
	run.Drain()

	if d := SelectionPoolStats().Outstanding - rowsBefore; d != 0 {
		t.Fatalf("cancelled passes drifted selection pool by %d", d)
	}
	if d := F64PoolStats().Outstanding - f64Before; d != 0 {
		t.Fatalf("cancelled passes drifted f64 pool by %d", d)
	}
}

// TestMorselConcurrentParallelQueries is the engine-level -race stress:
// many goroutines run filters, aggregates, grouped passes and piped
// grouped passes at mixed degrees over one table; every result must equal
// the degree-1 answer (itself pinned to the references above).
func TestMorselConcurrentParallelQueries(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	preds := []ColumnPred{{Column: ColZ, Op: CmpBetween, Value: 0, Value2: 80}}
	wantRows, err := pc.FilterRows(nil, preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantMin, err := pc.Aggregate(nil, AggMin, ColGPSTime, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wantGrouped, wantPiped GroupedResult
	specs := []GroupedAggSpec{{Fn: AggCount}, {Fn: AggMax, Column: ColZ}}
	if err := pc.GroupedAggregate(nil, ColClassification, specs, &wantGrouped, nil); err != nil {
		t.Fatal(err)
	}
	pipedSpecs := []GroupedAggSpec{{Fn: AggCount}, {Fn: AggAvg, Column: ColZ}}
	if err := pc.GroupedAggregate(wantRows, ColClassification, pipedSpecs, &wantPiped, nil); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			run := parRun(2 + g%3)
			var res GroupedResult
			for i := 0; i < 12; i++ {
				rows, err := pc.FilterRowsRun(run, nil, preds, nil)
				if err != nil {
					errs <- err.Error()
					return
				}
				if len(rows) != len(wantRows) {
					errs <- "filter row count diverged under concurrency"
				}
				run.RecycleRows(rows)
				lo, err := keylessRun(pc, run, nil, AggMin, ColGPSTime)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !sameBits(lo, wantMin) {
					errs <- "min diverged under concurrency"
				}
				if err := pc.GroupedAggregateRun(run, nil, nil, ColClassification, specs, &res, nil); err != nil {
					errs <- err.Error()
					return
				}
				if len(res.Keys) != len(wantGrouped.Keys) {
					errs <- "grouped key count diverged under concurrency"
				}
				if err := pc.GroupedAggregateRun(run, nil, preds, ColClassification, pipedSpecs, &res, nil); err != nil {
					errs <- err.Error()
					return
				}
				if len(res.Keys) != len(wantPiped.Keys) {
					errs <- "piped grouped key count diverged under concurrency"
					return
				}
				for j := range wantPiped.Cols {
					for k := range wantPiped.Keys {
						if !sameBits(res.Cols[j][k], wantPiped.Cols[j][k]) {
							errs <- "piped grouped result diverged under concurrency"
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	RecycleRows(wantRows)
}

// TestMorselSteadyStateZeroAllocs pins the warm parallel paths to zero
// allocations per query: pooled pass scaffolding, pooled per-worker
// scratch, run-tracked slabs, reused result records.
func TestMorselSteadyStateZeroAllocs(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	run := parRun(4)
	preds := []ColumnPred{{Column: ColZ, Op: CmpBetween, Value: 0, Value2: 80}}

	var got int
	allocs := testing.AllocsPerRun(50, func() {
		rows, err := pc.FilterRowsRun(run, nil, preds, nil)
		if err != nil {
			t.Fatal(err)
		}
		got = len(rows)
		run.RecycleRows(rows)
	})
	if got == 0 {
		t.Fatal("parallel filter matched no rows; the measurement is vacuous")
	}
	if allocs != 0 {
		t.Fatalf("steady-state parallel FilterRowsRun allocates %.1f objects/op, want 0", allocs)
	}

	maxZ := []GroupedAggSpec{{Fn: AggMax, Column: ColZ}}
	var one GroupedResult
	ex := &Explain{}
	if err := pc.GroupedAggregateRun(run, nil, nil, "", maxZ, &one, ex); err != nil {
		t.Fatal(err)
	}
	if d := ex.Steps[len(ex.Steps)-1].Detail; !strings.HasSuffix(d, "[par 4]") {
		t.Fatalf("key-less fold ran %q, want degree 4; the measurement is vacuous", d)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if err := pc.GroupedAggregateRun(run, nil, nil, "", maxZ, &one, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state parallel key-less fold allocates %.1f objects/op, want 0", allocs)
	}

	// A warm degree-2 refine: pooled pass, pooled partition vector,
	// pooled cell states.
	var everything grid.Region = boxRegion(geom.NewEnvelope(-1, -1, 1001, 1001))
	run2 := parRun(2)
	allocs = testing.AllocsPerRun(50, func() {
		rows := pc.SelectRegionRowsRun(run2, everything, -1, nil)
		got = len(rows)
		run2.RecycleRows(rows)
	})
	if got != pc.Len() {
		t.Fatalf("whole-extent select matched %d of %d rows", got, pc.Len())
	}
	if allocs != 0 {
		t.Fatalf("steady-state degree-2 SelectRegionRowsRun allocates %.1f objects/op, want 0", allocs)
	}

	var res GroupedResult
	for _, key := range []string{ColClassification, ColGPSTime} {
		specs := []GroupedAggSpec{{Fn: AggCount}, {Fn: AggMin, Column: ColZ}, {Fn: AggMax, Column: ColZ}}
		allocs = testing.AllocsPerRun(50, func() {
			if err := pc.GroupedAggregateRun(run, nil, nil, key, specs, &res, nil); err != nil {
				t.Fatal(err)
			}
		})
		if len(res.Keys) == 0 {
			t.Fatal("grouped pass emitted no groups; the measurement is vacuous")
		}
		if allocs != 0 {
			t.Fatalf("steady-state parallel grouped (%s key) allocates %.1f objects/op, want 0", key, allocs)
		}
	}
}

// TestMorselDegreeHeuristic pins the degree rule: explicit caps are
// honoured, small inputs stay at degree 1, 1 forces it, and the unset
// default defers to the table's auto-parallel flag — on by default, so a
// new table fans out to the worker count, and off forces degree 1 — for
// every operator but a cap-only one (grid refinement), which the default
// leaves at degree 1.
func TestMorselDegreeHeuristic(t *testing.T) {
	pc := NewPointCloud()
	if d := pc.morselDegree(parRun(8), 4*morselMinRows, true); d != 4 {
		t.Fatalf("degree(cap 8, 4 partitions of rows) = %d, want 4", d)
	}
	if d := pc.morselDegree(parRun(3), 16*morselMinRows, true); d != 3 {
		t.Fatalf("degree(cap 3, large) = %d, want 3", d)
	}
	if d := pc.morselDegree(parRun(8), 2*morselMinRows-1, true); d != 1 {
		t.Fatalf("degree just under two partitions = %d, want 1", d)
	}
	if d := pc.morselDegree(parRun(1), 64*morselMinRows, true); d != 1 {
		t.Fatalf("degree(cap 1) = %d, want 1", d)
	}
	if d := pc.morselDegree(nil, 64*morselMinRows, true); d != morsel.Workers() {
		t.Fatalf("degree(no run, default) = %d, want the worker count %d", d, morsel.Workers())
	}
	if d := pc.morselDegree(nil, 64*morselMinRows, false); d != 1 {
		t.Fatalf("degree(no run, default, cap-only operator) = %d, want 1", d)
	}
	if d := pc.morselDegree(parRun(4), 64*morselMinRows, false); d != 4 {
		t.Fatalf("degree(cap 4, cap-only operator) = %d, want 4", d)
	}
	pc.Parallel = false
	if d := pc.morselDegree(nil, 64*morselMinRows, true); d != 1 {
		t.Fatalf("degree(no run, Parallel off) = %d, want 1", d)
	}
}

// TestMorselExplainRecordsDegree checks the EXPLAIN plumbing: operators
// that fanned out tag their step detail with the effective degree —
// grid refinement included, which takes its degree from the run's cap
// like every other operator even when the table opted into auto-parallel
// execution.
func TestMorselExplainRecordsDegree(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	run := parRun(4)
	ex := &Explain{}
	rows, err := pc.FilterRowsRun(run, nil, []ColumnPred{{Column: ColZ, Op: CmpGT, Value: 0}}, ex)
	if err != nil {
		t.Fatal(err)
	}
	run.RecycleRows(rows)
	found := false
	for _, s := range ex.Steps {
		if s.Op == opFilterColumn {
			found = true
			if want := "z > 0 [par 4]"; s.Detail != want {
				t.Fatalf("filter detail = %q, want %q", s.Detail, want)
			}
		}
	}
	if !found {
		t.Fatal("no filter step in trace")
	}

	pc.Parallel = true
	everything := grid.GeometryRegion{G: geom.NewEnvelope(-1, -1, 1001, 1001).ToPolygon()}
	for _, c := range []struct {
		cap  int
		want string
	}{{1, ""}, {2, " [par 2]"}} {
		run := parRun(c.cap)
		ex := &Explain{}
		rows := pc.SelectRegionRowsRun(run, everything, -1, ex)
		if len(rows) != pc.Len() {
			t.Fatalf("cap %d: region over the whole extent selected %d of %d rows", c.cap, len(rows), pc.Len())
		}
		run.RecycleRows(rows)
		for _, s := range ex.Steps {
			if s.Op != opGridRefine {
				continue
			}
			if !strings.HasSuffix(s.Detail, c.want) || (c.want == "" && strings.Contains(s.Detail, "[par")) {
				t.Fatalf("cap %d: refine detail = %q, want degree tag %q", c.cap, s.Detail, c.want)
			}
		}
	}
}
