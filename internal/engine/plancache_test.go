package engine

import (
	"math"
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/synth"
)

// TestPlanCacheHitsOnRepeat verifies that the second identical query is
// served from the plan cache rather than recompiled.
func TestPlanCacheHitsOnRepeat(t *testing.T) {
	pc, _ := buildCloud(t, 0.05)
	preds := []ColumnPred{{Column: ColClassification, Op: CmpEQ, Value: float64(synth.ClassBuilding)}}

	rows, err := pc.FilterRows(nil, preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	RecycleRows(rows)
	st := pc.PlanCacheStats()
	if st.Entries != 1 || st.Misses != 1 {
		t.Fatalf("after first query: %+v, want 1 entry / 1 miss", st)
	}

	rows, err = pc.FilterRows(nil, preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	RecycleRows(rows)
	st = pc.PlanCacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after repeat query: %+v, want 1 hit / 1 miss", st)
	}
}

// TestPlanCacheInvalidationOnAppend proves appends never serve stale
// kernels: a cached kernel is bound to the pre-append backing array, so the
// append must drop it, and the re-issued query must see the new rows.
func TestPlanCacheInvalidationOnAppend(t *testing.T) {
	pc, pts := buildCloud(t, 0.05)
	pred := []ColumnPred{{Column: ColZ, Op: CmpGE, Value: -1e12}} // matches every row

	rows, err := pc.FilterRows(nil, pred, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := len(rows)
	RecycleRows(rows)
	if before != len(pts) {
		t.Fatalf("first query matched %d rows, want %d", before, len(pts))
	}
	if st := pc.PlanCacheStats(); st.Entries == 0 {
		t.Fatalf("expected a cached plan after the first query, got %+v", st)
	}

	// Append enough rows to force the backing arrays to reallocate.
	pc.AppendLAS(pts)
	if st := pc.PlanCacheStats(); st.Entries != 0 {
		t.Fatalf("append left %d cached plans alive", st.Entries)
	}

	rows, err = pc.FilterRows(nil, pred, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := len(rows)
	RecycleRows(rows)
	if after != 2*len(pts) {
		t.Fatalf("post-append query matched %d rows, want %d (stale kernel?)", after, 2*len(pts))
	}
}

// TestPlanCacheCountersSurviveInvalidation pins what navbench's
// plan_cache_misses relies on: InvalidateIndexes empties the cache but the
// hit and miss counters are cumulative, so the recompile after an
// invalidation adds one miss to the earlier count instead of restarting it.
func TestPlanCacheCountersSurviveInvalidation(t *testing.T) {
	pc, _ := buildCloud(t, 0.02)
	filter := func(op CmpOp) {
		t.Helper()
		rows, err := pc.FilterRows(nil, []ColumnPred{{Column: ColZ, Op: op, Value: 10}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		RecycleRows(rows)
	}
	filter(CmpGT)
	filter(CmpLT)
	filter(CmpGT)
	if st := pc.PlanCacheStats(); st != (PlanCacheStats{Entries: 2, Hits: 1, Misses: 2}) {
		t.Fatalf("before invalidation: %+v, want 2 entries, 1 hit, 2 misses", st)
	}
	pc.InvalidateIndexes()
	if st := pc.PlanCacheStats(); st != (PlanCacheStats{Entries: 0, Hits: 1, Misses: 2}) {
		t.Fatalf("after invalidation: %+v, want 0 entries and the counters unchanged", st)
	}
	filter(CmpGT)
	if st := pc.PlanCacheStats(); st != (PlanCacheStats{Entries: 1, Hits: 1, Misses: 3}) {
		t.Fatalf("after the recompile: %+v, want 1 entry, 1 hit, 3 misses", st)
	}
}

// TestPlanCacheNaNConstants: with constants out of the cache key they are
// per-run bind state, so NaN predicates cache and hit like any other —
// the old NaN map-key bypass is gone — while still matching no rows.
func TestPlanCacheNaNConstants(t *testing.T) {
	pc, _ := buildCloud(t, 0.02)
	pred := []ColumnPred{{Column: ColZ, Op: CmpGT, Value: math.NaN()}}
	for i := 0; i < 3; i++ {
		rows, err := pc.FilterRows(nil, pred, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 0 {
			t.Fatalf("z > NaN matched %d rows, want 0", len(rows))
		}
		RecycleRows(rows)
	}
	st := pc.PlanCacheStats()
	if st.Entries != 1 || st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("NaN predicates should share one cached kernel: %+v", st)
	}
}

// TestPlanCacheConstantSweepSharesKernel is the pan/zoom contract at the
// engine layer: a sweep of distinct constants over one (column, op) pair
// compiles exactly one kernel — the key carries no constants, so every step
// after the first is a cache hit and Misses stays flat.
func TestPlanCacheConstantSweepSharesKernel(t *testing.T) {
	pc, _ := buildCloud(t, 0.02)
	const sweep = maxCachedPlans + 100
	for i := 0; i < sweep; i++ {
		rows, err := pc.FilterRows(nil, []ColumnPred{{Column: ColZ, Op: CmpGT, Value: float64(i) * 1e6}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		RecycleRows(rows)
	}
	st := pc.PlanCacheStats()
	if st.Entries != 1 || st.Misses != 1 {
		t.Fatalf("constant sweep should share one kernel: %+v", st)
	}
	if st.Hits != sweep-1 {
		t.Fatalf("constant sweep hits = %d, want %d: %+v", st.Hits, sweep-1, st)
	}
}

// TestSelectRegionRowsMatchesSelectRegion pins the explain-free navigation
// path to the traced one.
func TestSelectRegionRowsMatchesSelectRegion(t *testing.T) {
	pc, _ := buildCloud(t, 0.05)
	region := grid.GeometryRegion{G: geom.NewEnvelope(200, 200, 600, 650).ToPolygon()}
	want, _ := selectTraced(pc, region)
	got := pc.SelectRegionRows(region)
	if len(got) == 0 || !equalRows(got, want) {
		t.Fatalf("SelectRegionRows found %d rows, traced %d", len(got), len(want))
	}
	RecycleRows(got)
	RecycleRows(want)

	// Empty region: non-nil empty, not "all rows".
	empty := pc.SelectRegionRows(grid.GeometryRegion{G: geom.MultiPolygon{}})
	if empty == nil || len(empty) != 0 {
		t.Fatalf("empty region returned %v, want empty non-nil", empty)
	}
}
