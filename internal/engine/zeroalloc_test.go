package engine

import (
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/synth"
)

// The acceptance bar for the repeated-query fast path: once imprints are
// built, kernels cached, and every buffer pooled, a steady-state query
// allocates nothing. testing.AllocsPerRun runs the closure once as warm-up,
// which is exactly the cold query that populates the caches and pools.

// TestSteadyStateSpatialQueryZeroAllocs covers the navigation bbox query
// through the explain-free path: imprint filter (pooled candidate ranges),
// grid refinement (pooled cell states), pooled selection vector.
func TestSteadyStateSpatialQueryZeroAllocs(t *testing.T) {
	pc, _ := buildCloud(t, 0.05)
	// The interface conversion happens once, as in a real navigation session
	// where the region is built per user action, not per engine call.
	var region grid.Region = grid.GeometryRegion{G: geom.NewEnvelope(150, 150, 700, 620).ToPolygon()}
	pc.EnsureImprints()

	var got int
	allocs := testing.AllocsPerRun(50, func() {
		rows := pc.SelectRegionRows(region)
		got = len(rows)
		RecycleRows(rows)
	})
	if got == 0 {
		t.Fatal("query matched no rows; the measurement is vacuous")
	}
	if allocs != 0 {
		t.Fatalf("steady-state SelectRegionRows allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSteadyStateSpatialQueryRunZeroAllocs is the same query under a query
// lifecycle — the form the SQL layer and the server run: the conjunctive
// imprint walk orders its terms on the stack and appends into one pooled
// range list, and the release list reuses its slots, so a warm run still
// allocates nothing.
func TestSteadyStateSpatialQueryRunZeroAllocs(t *testing.T) {
	pc, _ := buildCloud(t, 0.05)
	var region grid.Region = grid.GeometryRegion{G: geom.NewEnvelope(150, 150, 700, 620).ToPolygon()}
	pc.EnsureImprints()

	var run Run
	var got int
	allocs := testing.AllocsPerRun(50, func() {
		rows := pc.SelectRegionRowsRun(&run, region, nil)
		got = len(rows)
		run.RecycleRows(rows)
	})
	if got == 0 {
		t.Fatal("query matched no rows; the measurement is vacuous")
	}
	if allocs != 0 {
		t.Fatalf("steady-state SelectRegionRowsRun allocates %.1f objects/op, want 0", allocs)
	}
	if run.Live() != 0 {
		t.Fatalf("run still tracks %d buffers after recycling its result", run.Live())
	}
}

// TestPoolRetainsOversizeBuffers pins the pool-wide capacity budget: a
// single buffer bigger than any per-shard slice of the budget (e.g. the
// full-table selection vector of a multi-million-row cloud) must still be
// retained and reused, or large tables silently lose the zero-alloc steady
// state.
func TestPoolRetainsOversizeBuffers(t *testing.T) {
	const oversize = 5 << 20 // 5M rows ≈ 40 MiB, well past budget/poolShards
	allocs := testing.AllocsPerRun(10, func() {
		b := getRowBuf(oversize)
		RecycleRows(b)
	})
	if allocs != 0 {
		t.Fatalf("oversize buffers are not pooled: %.1f allocs/op, want 0", allocs)
	}
}

// TestSteadyStatePredicateFilterZeroAllocs covers FilterRows with cached
// predicate kernels over a pooled vector.
func TestSteadyStatePredicateFilterZeroAllocs(t *testing.T) {
	pc, _ := buildCloud(t, 0.05)
	preds := []ColumnPred{
		{Column: ColClassification, Op: CmpEQ, Value: float64(synth.ClassGround)},
		{Column: ColIntensity, Op: CmpBetween, Value: 100, Value2: 900},
	}

	var got int
	allocs := testing.AllocsPerRun(50, func() {
		rows, err := pc.FilterRows(nil, preds, nil)
		if err != nil {
			t.Fatal(err)
		}
		got = len(rows)
		RecycleRows(rows)
	})
	if got == 0 {
		t.Fatal("query matched no rows; the measurement is vacuous")
	}
	if allocs != 0 {
		t.Fatalf("steady-state FilterRows allocates %.1f objects/op, want 0", allocs)
	}
}
