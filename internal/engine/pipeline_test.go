package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
)

// The pipelined filter pass (morsel.go) is pinned here the way every other
// morsel driver is: at every degree, 1 included, to row-at-a-time
// references — both consumers, over tables whose lengths straddle the
// morsel edge.

// pipeFilter drives the compact consumer over the whole chain of preds.
func pipeFilter(t *testing.T, pc *PointCloud, run *Run, preds []ColumnPred, deg int) []int {
	t.Helper()
	pp := pipePasses.get()
	if err := pp.bind(run, pc, preds); err != nil {
		pp.release()
		t.Fatal(err)
	}
	out := getRowBuf(pc.Len())
	w, err := pp.run(pc.Len(), deg, out)
	if err != nil {
		t.Fatal(err)
	}
	return out[:w]
}

// naiveChain is the per-row Matches reference of a predicate chain over
// the whole table; never nil, so refGrouped reads it as a selection.
func naiveChain(pc *PointCloud, preds []ColumnPred) []int {
	want := []int{}
	for i := 0; i < pc.Len(); i++ {
		ok := true
		for _, p := range preds {
			ok = ok && p.Matches(pc.Column(p.Column).Value(i))
		}
		if ok {
			want = append(want, i)
		}
	}
	return want
}

// TestPipelineMatchesReference holds both consumers of the pipelined pass
// to the per-row references at degrees 1, 2, 4 and past the worker count:
// the compact consumer to the Matches chain, row for row, and the fold
// consumer — over u8 and u16 keys — to refGrouped over that chain, bit for
// bit. Predicates are one or two random comparisons (every operator;
// NaN/±Inf/−0 constants) over columns holding NaN/±Inf/−0 values; tables
// are empty, one row, one morsel less one row, one morsel, one morsel and
// a row, and many morsels.
func TestPipelineMatchesReference(t *testing.T) {
	m := pipeMorselRows
	rng := rand.New(rand.NewSource(53))
	cols := []string{ColZ, ColGPSTime, ColIntensity, ColClassification, ColScanAngle}
	specs := []GroupedAggSpec{
		{Fn: AggCount},
		{Fn: AggSum, Column: ColZ},
		{Fn: AggAvg, Column: ColZ},
		{Fn: AggMin, Column: ColGPSTime},
		{Fn: AggMax, Column: ColGPSTime},
		{Fn: AggAvg, Column: ColIntensity},
	}
	for _, n := range []int{0, 1, m - 1, m, m + 1, 5*m + 77} {
		pc := randomTestCloud(n, int64(n)+5)
		keys := map[string]foldSrc{
			"u8":  {keys8: pc.Column(ColClassification).(*colstore.U8Column).Values()},
			"u16": {keys16: pc.Column(ColIntensity).(*colstore.U16Column).Values()},
		}
		keyCol := map[string]string{"u8": ColClassification, "u16": ColIntensity}
		for trial := 0; trial < 4; trial++ {
			var preds []ColumnPred
			for np := 1 + trial%2; np > 0; np-- {
				col := cols[rng.Intn(len(cols))]
				preds = append(preds, randomPred(rng, pc.Column(col), col))
			}
			want := naiveChain(pc, preds)
			wantKeys, wantCols := map[string][]float64{}, map[string][][]float64{}
			for kname, key := range keyCol {
				wantKeys[kname], wantCols[kname] = refGrouped(pc, want, key, specs)
			}
			for _, deg := range driverDegrees() {
				label := fmt.Sprintf("n %d preds %v deg %d", n, preds, deg)
				if got := pipeFilter(t, pc, nil, preds, deg); !equalRows(got, want) {
					t.Fatalf("%s: compact consumer %d rows, naive %d", label, len(got), len(want))
				} else {
					RecycleRows(got)
				}
				for kname, src := range keys {
					dom := 1 << 8
					if kname == "u16" {
						dom = 1 << 16
					}
					var res GroupedResult
					res.Reset(len(specs))
					run := new(Run)
					matched, err := runPipeFold(run, pc, src, dom, preds, specs, &res, deg)
					if err != nil {
						t.Fatalf("%s key %s: %v", label, kname, err)
					}
					if matched != len(want) {
						t.Fatalf("%s key %s: fold consumer took %d rows, naive %d", label, kname, matched, len(want))
					}
					sameGroupedRef(t, label+" key "+kname, &res, wantKeys[kname], wantCols[kname])
					if run.Live() != 0 {
						t.Fatalf("%s key %s: %d buffers left on the run", label, kname, run.Live())
					}
				}
			}
		}
	}
}

// TestPipelineRoutesWholeTableGroupBy pins the routing: a whole-table
// GROUP BY with predicates over a dense key takes the pipeline at the
// table's degree — a sum in the plan included, since only the filter fans
// out — and answers as filter-then-group does; a selection or a hash key
// filters first.
func TestPipelineRoutesWholeTableGroupBy(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	preds := []ColumnPred{{Column: ColZ, Op: CmpBetween, Value: 0, Value2: 80}}
	specs := []GroupedAggSpec{{Fn: AggCount}, {Fn: AggAvg, Column: ColZ}}
	want := naiveChain(pc, preds)
	for _, key := range []string{ColClassification, ColPointSourceID, ColGPSTime} {
		wantKeys, wantCols := refGrouped(pc, want, key, specs)
		for _, deg := range []int{1, 2, 4} {
			for _, rows := range [][]int{nil, randomSelection(rand.New(rand.NewSource(3)), pc.Len(), 0.6)} {
				wk, wc := wantKeys, wantCols
				if rows != nil {
					wk, wc = refGrouped(pc, naiveFilterSel(pc.Column(ColZ), rows, preds[0]), key, specs)
				}
				ex := &Explain{}
				var res GroupedResult
				run := parRun(deg)
				if err := pc.GroupedAggregateRun(run, rows, preds, key, specs, &res, ex); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("key %s deg %d selection %t", key, deg, rows != nil)
				sameGroupedRef(t, label, &res, wk, wc)
				if run.Live() != 0 {
					t.Fatalf("%s: %d buffers left on the run", label, run.Live())
				}
				piped := ""
				for _, s := range ex.Steps {
					if s.Op == opFilterColumn {
						piped = s.Detail
					}
				}
				wantPiped := rows == nil && key != ColGPSTime
				if got := len(piped) > 6 && piped[:6] == "piped:"; got != wantPiped {
					t.Fatalf("%s: filter step %q, piped = %t, want %t", label, piped, got, wantPiped)
				}
				if wantPiped && deg > 1 && piped[len(piped)-7:] != fmt.Sprintf("[par %d]", deg) {
					t.Fatalf("%s: piped filter step %q ran below the cap", label, piped)
				}
			}
		}
	}
}

// TestPipelineCancelled: under a fired token the pass runs no block at any
// degree — every partition's kernel polls before its first block — and
// the entry points surface cancel.ErrCancelled with every buffer back in
// its pool. The armed build fires the token inside the first block and
// bounds the blocks that still start (TestFaultPipelineCancelledWithinBlocks).
func TestPipelineCancelled(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	done := make(chan struct{})
	close(done)
	preds := []ColumnPred{{Column: ColZ, Op: CmpGT, Value: 0}}
	specs := []GroupedAggSpec{{Fn: AggCount}, {Fn: AggSum, Column: ColZ}}
	for _, deg := range []int{1, 2, 4} {
		run := parRun(deg)
		run.Bind(done)
		before := morselPoolSnapshot()
		if got := pipeFilter(t, pc, run, preds, deg); len(got) != 0 {
			t.Fatalf("deg %d: a fired token still filtered %d rows", deg, len(got))
		} else {
			RecycleRows(got)
		}
		if _, err := pc.FilterRowsRun(run, nil, preds, nil); err != cancel.ErrCancelled {
			t.Fatalf("deg %d filter: err = %v, want ErrCancelled", deg, err)
		}
		var res GroupedResult
		if err := pc.GroupedAggregateRun(run, nil, preds, ColClassification, specs, &res, nil); err != cancel.ErrCancelled {
			t.Fatalf("deg %d grouped: err = %v, want ErrCancelled", deg, err)
		}
		if run.Live() != 0 {
			t.Fatalf("deg %d: cancelled pipeline left %d buffers on the run", deg, run.Live())
		}
		if d := morselPoolSnapshot() - before; d != 0 {
			t.Fatalf("deg %d: cancelled pipeline drifted pools by %d", deg, d)
		}
	}
}

// TestPipelineSteadyStateZeroAllocs: a warm pipelined pass allocates
// nothing at degree 1 or 2 — pooled pass and state words, the pooled slot
// vector and slab, a reused result record.
func TestPipelineSteadyStateZeroAllocs(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	preds := []ColumnPred{{Column: ColZ, Op: CmpBetween, Value: 0, Value2: 80}}
	specs := []GroupedAggSpec{{Fn: AggCount}, {Fn: AggAvg, Column: ColZ}}
	var res GroupedResult
	for _, deg := range []int{1, 2} {
		run := parRun(deg)
		allocs := testing.AllocsPerRun(50, func() {
			if err := pc.GroupedAggregateRun(run, nil, preds, ColClassification, specs, &res, nil); err != nil {
				t.Fatal(err)
			}
		})
		if len(res.Keys) == 0 {
			t.Fatal("piped grouped pass emitted no groups; the measurement is vacuous")
		}
		if allocs != 0 {
			t.Fatalf("deg %d: steady-state piped grouped pass allocates %.1f objects/op, want 0", deg, allocs)
		}
	}
}
