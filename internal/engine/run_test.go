package engine

import (
	"testing"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/synth"
)

// Tests for the per-run lifecycle record (run.go): release-list tracking,
// drain semantics, and cooperative cancellation through the engine's
// public Run-variant entry points.

func selectionDrift(t *testing.T, fn func()) int64 {
	t.Helper()
	before := SelectionPoolStats().Outstanding
	fn()
	return SelectionPoolStats().Outstanding - before
}

func TestRunTrackDrain(t *testing.T) {
	var rs Run
	drift := selectionDrift(t, func() {
		rs.AcquireRows(16)
		rs.AcquireRows(16)
		if got := rs.Live(); got != 2 {
			t.Fatalf("Live = %d, want 2", got)
		}
		rs.Drain()
		if got := rs.Live(); got != 0 {
			t.Fatalf("Live after Drain = %d, want 0", got)
		}
		rs.Drain() // idempotent
	})
	if drift != 0 {
		t.Fatalf("drain left pool drift %d", drift)
	}
}

func TestRunRecycleUntracks(t *testing.T) {
	var rs Run
	drift := selectionDrift(t, func() {
		b := rs.AcquireRows(16)
		rs.RecycleRows(b)
		if got := rs.Live(); got != 0 {
			t.Fatalf("Live after recycle = %d, want 0", got)
		}
		// Drain after an explicit recycle must NOT put the buffer again:
		// a double-put would corrupt the pool's free list.
		rs.Drain()
	})
	if drift != 0 {
		t.Fatalf("recycle+drain drifted pool by %d", drift)
	}
}

func TestRunTrackAfterGrowth(t *testing.T) {
	// Track-after-production: a buffer that grew (reallocated) after
	// tracking would leave a stale base pointer in the release list. The
	// contract is that producers track the FINAL slice; this test pins the
	// identity mechanics untrack relies on.
	var rs Run
	b := rs.AcquireRows(1)
	grown := append(b, make([]int, 10_000)...) // forces reallocation
	rs.RecycleRows(b)                          // untracks by the original base
	if got := rs.Live(); got != 0 {
		t.Fatalf("Live = %d, want 0", got)
	}
	RecycleRows(grown) // the grown copy is pool-eligible on its own
}

func TestRunSwapRows(t *testing.T) {
	// Track-then-swap: the producer tracks the pooled buffer before a
	// growing call and swaps in the final slice after. Same base = no-op;
	// moved base = the entry follows the final slice, and accounting
	// stays balanced whichever buffer is eventually recycled.
	var rs Run
	drift := selectionDrift(t, func() {
		buf := rs.AcquireRows(4)
		same := rs.SwapRows(buf, buf[:2])
		if rs.Live() != 1 {
			t.Fatalf("Live after same-base swap = %d, want 1", rs.Live())
		}
		rs.RecycleRows(same)

		buf = rs.AcquireRows(1)
		grown := append(buf, make([]int, 10_000)...) // reallocates
		out := rs.SwapRows(buf, grown)
		if rs.Live() != 1 {
			t.Fatalf("Live after moved-base swap = %d, want 1", rs.Live())
		}
		rs.RecycleRows(out) // puts the grown buffer; the original is abandoned
		rs.Drain()
	})
	if drift != 0 {
		t.Fatalf("swap flows drifted pool by %d", drift)
	}
}

func testCloudForRun(t *testing.T) *PointCloud {
	t.Helper()
	region := geom.NewEnvelope(0, 0, 2000, 2000)
	terrain := synth.NewTerrain(31, region)
	pts := synth.GenerateTile(terrain, synth.TileSpec{Env: region, Density: 0.01, Seed: 11})
	pc := NewPointCloud()
	pc.AppendLAS(pts)
	return pc
}

func TestFilterRowsRunCancelled(t *testing.T) {
	pc := testCloudForRun(t)
	var rs Run
	done := make(chan struct{})
	close(done)
	rs.Bind(done)
	drift := selectionDrift(t, func() {
		rows, err := pc.FilterRowsRun(&rs, nil, []ColumnPred{{Column: "z", Op: CmpGT, Value: -1}}, nil)
		if err != cancel.ErrCancelled {
			t.Fatalf("err = %v, want cancel.ErrCancelled", err)
		}
		if rows != nil {
			t.Fatalf("cancelled filter returned rows")
		}
		rs.Drain()
	})
	if drift != 0 {
		t.Fatalf("cancelled filter drifted pool by %d", drift)
	}
	// Both kernel drivers poll before their first block: under the fired
	// token they append nothing, where a live one keeps the matches.
	all := make([]int, pc.Len())
	for i := range all {
		all[i] = i
	}
	for _, run := range []*Run{&rs, nil} {
		k, a, err := pc.bindPred(run, ColumnPred{Column: "z", Op: CmpGT, Value: -1})
		if err != nil {
			t.Fatal(err)
		}
		block, sel := len(k.FilterBlock(a, 0, pc.Len(), nil)), len(k.FilterSel(a, all, nil))
		if (run != nil) != (block == 0) || block != sel {
			t.Fatalf("cancelled %v: FilterBlock kept %d rows, FilterSel %d", run != nil, block, sel)
		}
	}
}

func TestSelectRegionRunCancelled(t *testing.T) {
	pc := testCloudForRun(t)
	env := pc.Extent()
	region := grid.GeometryRegion{G: geom.NewEnvelope(env.MinX, env.MinY, env.MaxX, env.MaxY).ToPolygon()}
	var rs Run
	done := make(chan struct{})
	close(done)
	rs.Bind(done)
	drift := selectionDrift(t, func() {
		rows := pc.SelectRegionRowsRun(&rs, region, -1, nil)
		if !rs.Cancelled() {
			t.Fatal("run not cancelled")
		}
		// A fired token stops refinement within one block: the partial
		// result must be strictly smaller than the full selection.
		full := pc.SelectRegionRows(region)
		if len(rows) >= len(full) && len(full) > refinePollBlock {
			t.Fatalf("cancelled selection returned %d rows, full is %d", len(rows), len(full))
		}
		RecycleRows(full)
		rs.Drain()
	})
	if drift != 0 {
		t.Fatalf("cancelled selection drifted pool by %d", drift)
	}
}

// TestSelectRegionDrawsOneRangeList pins the filter step's pool traffic: the
// X and Y imprints are walked together straight into the one candidate list
// refinement consumes, so a select draws a single buffer from the range
// pool — observable as the single buffer it leaves behind in an emptied
// pool — and on the cancel path the pool's balance still returns to its
// start once the run drains.
func TestSelectRegionDrawsOneRangeList(t *testing.T) {
	pc := testCloudForRun(t)
	region := grid.GeometryRegion{G: geom.NewEnvelope(300, 300, 1500, 1400).ToPolygon()}
	pc.EnsureImprints()

	// Empty the range pool, holding what it retained until the test ends.
	var held [][]colstore.Range
	for i := 0; RangePoolStats().Free > 0; i++ {
		if i > 1024 {
			t.Fatal("range pool does not drain")
		}
		held = append(held, getRangeBuf(0))
	}
	defer func() {
		for _, b := range held {
			rangePool.Put(b)
		}
	}()
	start := RangePoolStats().Outstanding

	var rs Run
	rows := pc.SelectRegionRowsRun(&rs, region, -1, nil)
	if len(rows) == 0 {
		t.Fatal("selection matched no rows; the measurement is vacuous")
	}
	rs.RecycleRows(rows)
	if got := RangePoolStats(); got.Free != 1 || got.Outstanding != start {
		t.Fatalf("after one select the range pool holds %d buffers (balance %+d), want 1 (+0)",
			got.Free, got.Outstanding-start)
	}

	done := make(chan struct{})
	close(done)
	rs.Bind(done)
	pc.SelectRegionRowsRun(&rs, region, -1, nil)
	if !rs.Cancelled() {
		t.Fatal("run not cancelled")
	}
	rs.Drain()
	if got := RangePoolStats(); got.Free != 1 || got.Outstanding != start {
		t.Fatalf("after a cancelled select the range pool holds %d buffers (balance %+d), want 1 (+0)",
			got.Free, got.Outstanding-start)
	}
}

// refinePollBlock mirrors grid.refineBlock for the partial-result bound
// above without exporting the constant.
const refinePollBlock = 4096

func TestGroupedAggregateRunCancelled(t *testing.T) {
	pc := testCloudForRun(t)
	rows := make([]int, pc.Len())
	for i := range rows {
		rows[i] = i
	}
	var rs Run
	done := make(chan struct{})
	close(done)
	rs.Bind(done)
	var res GroupedResult
	f64Before := F64PoolStats().Outstanding
	drift := selectionDrift(t, func() {
		err := pc.GroupedAggregateRun(&rs, rows, nil, "classification",
			[]GroupedAggSpec{{Fn: engineAggCountForTest()}}, &res, nil)
		if err != cancel.ErrCancelled {
			t.Fatalf("err = %v, want cancel.ErrCancelled", err)
		}
		rs.Drain()
	})
	if drift != 0 {
		t.Fatalf("cancelled grouped aggregate drifted selection pool by %d", drift)
	}
	if d := F64PoolStats().Outstanding - f64Before; d != 0 {
		t.Fatalf("cancelled grouped aggregate drifted f64 pool by %d", d)
	}
}

func engineAggCountForTest() AggFunc { return AggCount }

func TestRunNilSafety(t *testing.T) {
	var rs *Run
	if rs.Cancelled() {
		t.Fatal("nil run reports cancelled")
	}
	if rs.Token() != nil {
		t.Fatal("nil run yields non-nil token")
	}
	if rs.Live() != 0 {
		t.Fatal("nil run has live buffers")
	}
	rs.Drain()
	b := rs.TrackRows(getRowBuf(4))
	rs.RecycleRows(b) // plain pool put
}
