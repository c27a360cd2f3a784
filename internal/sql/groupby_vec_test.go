package sql

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"gisnav/internal/engine"
	"gisnav/internal/las"
	"gisnav/internal/pyramid"
)

// nanDB builds a database whose point cloud holds the adversarial grouped
// inputs: NaN values in z, a float key column with NaN/-0/+Inf (gps_time),
// a >256-value u16 key (intensity), and a u8 class key.
func nanDB(t testing.TB, n int) (*Executor, *engine.PointCloud) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	gpsPalette := []float64{math.NaN(), math.Copysign(0, -1), 0, -7.25, 42.5, math.Inf(1)}
	pts := make([]las.Point, n)
	for i := range pts {
		z := rng.Float64()*120 - 30
		if rng.Intn(29) == 0 {
			z = math.NaN()
		}
		pts[i] = las.Point{
			X: rng.Float64() * 1000, Y: rng.Float64() * 1000, Z: z,
			Intensity:      uint16(rng.Intn(900)),
			Classification: uint8(rng.Intn(11)),
			GPSTime:        gpsPalette[rng.Intn(len(gpsPalette))],
		}
	}
	pc := engine.NewPointCloud()
	pc.AppendLAS(pts)
	db := engine.NewDB()
	db.RegisterPointCloud("cloud", pc)
	return New(db), pc
}

// resultRowsEqual compares two results row-by-row through the display
// rendering, which distinguishes every group identity the engine does
// (NaN renders once, -0 renders as -0).
func resultRowsEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") {
		t.Fatalf("%s: columns %v vs %v", label, got.Columns, want.Columns)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows vs %d", label, got.Len(), want.Len())
	}
	for j := range got.Cols {
		for i := 0; i < got.Len(); i++ {
			if g, w := got.Cols[j].Value(i).String(), want.Cols[j].Value(i).String(); g != w {
				t.Fatalf("%s: row %d col %d: %s vs %s", label, i, j, g, w)
			}
		}
	}
}

// TestGroupedVectorizedMatchesInterpreter is the equivalence property of the
// PR 5 tentpole: for every classifiable grouped statement, the engine's
// grouped kernels (dense and hash) must produce exactly the rows the
// row-at-a-time interpreter produces — including NaN keys and values, empty
// groups carved out by WHERE, >256-key domains, and random selection
// shapes. The interpreter arm runs on the same prepared plan with the
// vectorized route disabled, so the two arms share planning and filtering.
func TestGroupedVectorizedMatchesInterpreter(t *testing.T) {
	e, _ := nanDB(t, 50000)
	rng := rand.New(rand.NewSource(17))
	queries := []string{
		// Dense u8 key, full aggregate mix incl count(col).
		"SELECT classification, count(*) AS n, count(z), sum(z), avg(z), min(z), max(intensity) FROM cloud GROUP BY classification",
		// Dense u8 key under a narrowing WHERE (empty groups drop out).
		"SELECT classification, count(*) FROM cloud WHERE intensity < 40 GROUP BY classification",
		// u16 key with >256 distinct values; the full table takes the dense
		// 64K bank, the narrowed selection the hash table.
		"SELECT intensity, count(*), avg(z) FROM cloud GROUP BY intensity",
		"SELECT intensity, count(*), avg(z) FROM cloud WHERE z > 25 GROUP BY intensity",
		// Float key with NaN, -0 and +Inf groups; NaN values inside groups.
		"SELECT gps_time, count(*), sum(z), min(z), max(z) FROM cloud GROUP BY gps_time",
		"SELECT gps_time, avg(z) FROM cloud WHERE classification <> 3 GROUP BY gps_time",
		// Aliased key, ORDER BY + LIMIT tail shared by both arms.
		"SELECT classification AS cls, count(*) AS n FROM cloud GROUP BY cls ORDER BY n DESC LIMIT 4",
		// No aggregates at all: DISTINCT-style key emission on both paths.
		"SELECT classification FROM cloud GROUP BY classification",
		"SELECT gps_time FROM cloud GROUP BY gps_time",
		// No key: the one-group fold, over the whole table, under a WHERE
		// that empties the selection, and behind a whole-table BETWEEN (the
		// piped arm).
		"SELECT count(*), count(z), sum(z), avg(z), min(z), max(intensity) FROM cloud",
		"SELECT count(*), count(z), sum(z), avg(z), min(z), max(intensity) FROM cloud WHERE intensity > 5000",
		"SELECT count(*), sum(z), min(z), max(gps_time) FROM cloud WHERE z BETWEEN 0 AND 50",
	}
	// Random spatial selections drive random selection vectors through both
	// arms (grid region → pooled row sets).
	for i := 0; i < 4; i++ {
		x0, y0 := rng.Float64()*800, rng.Float64()*800
		env := fmt.Sprintf("ST_Contains(ST_MakeEnvelope(%g, %g, %g, %g), ST_Point(x, y))",
			x0, y0, x0+rng.Float64()*200, y0+rng.Float64()*200)
		queries = append(queries,
			"SELECT classification, count(*), avg(z) FROM cloud WHERE "+env+" GROUP BY classification",
			"SELECT count(*), sum(z), avg(z), min(z), max(z) FROM cloud WHERE "+env)
	}
	for _, q := range queries {
		pq, err := e.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !planOf(pq).grouped.vec {
			t.Fatalf("%s: did not vectorize; the equivalence check is vacuous", q)
		}
		vec, err := pq.RunContext(context.Background())
		if err != nil {
			t.Fatalf("%s (vectorized): %v", q, err)
		}
		planOf(pq).grouped.vec = false // disable the engine route on the same plan
		interp, err := pq.RunContext(context.Background())
		if err != nil {
			t.Fatalf("%s (interpreter): %v", q, err)
		}
		resultRowsEqual(t, q, vec, interp)
	}
}

// TestUngroupedEmptySelectionEveryArm: an ungrouped select list over an
// empty selection is one row — count 0, sum 0, NULL avg/min/max — on every
// arm: the vectorized fold over nil rows (an empty table, and a piped
// predicate matching nothing), a region and a region with predicates, the
// interpreter, the vector table and the join.
func TestUngroupedEmptySelectionEveryArm(t *testing.T) {
	e, _, _, _ := testDB(t)
	db := engine.NewDB()
	db.RegisterPointCloud("void", engine.NewPointCloud())
	void := New(db)
	const nowhere = "ST_Contains(ST_MakeEnvelope(-50, -50, -10, -10), ST_Point(x, y))"
	const everywhere = "ST_Contains(ST_MakeEnvelope(-1, -1, 2001, 2001), ST_Point(x, y))"
	const pcAggs = "count(*), sum(z), avg(z), min(z), max(z)"
	for _, c := range []struct {
		e   *Executor
		q   string
		vec bool
	}{
		{void, "SELECT " + pcAggs + " FROM void", true},
		{e, "SELECT " + pcAggs + " FROM ahn2 WHERE classification = 200", true},
		{e, "SELECT " + pcAggs + " FROM ahn2 WHERE " + nowhere, true},
		{e, "SELECT " + pcAggs + " FROM ahn2 WHERE " + everywhere + " AND classification = 200", true},
		{e, "SELECT count(*), sum(z * 1), avg(z * 1), min(z * 1), max(z * 1) FROM ahn2 WHERE classification = 200", false},
		{e, "SELECT count(*), sum(pop_density), avg(pop_density), min(pop_density), max(pop_density) FROM ua WHERE class = 'none'", false},
		{e, `SELECT count(*), sum(ahn2.z), avg(ahn2.z), min(ahn2.z), max(ahn2.z) FROM ahn2, ua
			WHERE ua.class = 'none' AND ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 25)`, true},
	} {
		pq, err := c.e.Prepare(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if got := planOf(pq).grouped.vec; got != c.vec {
			t.Fatalf("%s: vectorized %t, want %t", c.q, got, c.vec)
		}
		res, err := pq.RunContext(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if res.Len() != 1 {
			t.Fatalf("%s: %d rows, want 1", c.q, res.Len())
		}
		for j, want := range []string{"0", "0", "NULL", "NULL", "NULL"} {
			if got := res.Cols[j].Value(0).String(); got != want {
				t.Fatalf("%s: column %s = %s, want %s", c.q, res.Columns[j], got, want)
			}
		}
	}
}

// TestUngroupedAggregateHonoursLimitAndOrder: an ungrouped select list
// shares the grouped tail, so LIMIT cuts its one row and ORDER BY must
// name a select item, on the vectorized and the interpreted arm alike.
func TestUngroupedAggregateHonoursLimitAndOrder(t *testing.T) {
	e, _, _, _ := testDB(t)
	for q, want := range map[string]int{
		"SELECT count(*) FROM ahn2 LIMIT 0":                                  0,
		"SELECT count(*), avg(z) FROM ahn2 WHERE classification = 2 LIMIT 0": 0,
		"SELECT count(*) FROM osm LIMIT 0":                                   0,
		"SELECT count(*) FROM ahn2 LIMIT 1":                                  1,
		"SELECT count(*) AS n, max(z) FROM ahn2 ORDER BY n DESC":             1,
	} {
		if got := mustQuery(t, e, q).Len(); got != want {
			t.Fatalf("%s: %d rows, want %d", q, got, want)
		}
	}
	for _, q := range []string{
		"SELECT count(*) FROM ahn2 ORDER BY z",
		"SELECT count(*) FROM osm ORDER BY class",
	} {
		_, err := e.QueryContext(context.Background(), q)
		if err == nil || !strings.Contains(err.Error(), "must name a select item") {
			t.Fatalf("%s: err = %v, want the ORDER BY rejected", q, err)
		}
	}
}

// TestUngroupedAggregateIsOneFold: every aggregate of an ungrouped select
// list over one value column folds in one pass — a single group.agg step —
// and a whole-table predicate pipes into it.
func TestUngroupedAggregateIsOneFold(t *testing.T) {
	e, _, _, _ := testDB(t)
	for q, piped := range map[string]bool{
		"SELECT count(*), sum(z), avg(z), min(z), max(z) FROM ahn2 WHERE classification = 2":                                                                        true,
		"SELECT count(*), sum(z), avg(z), min(z), max(z) FROM ahn2 WHERE ST_Contains(ST_MakeEnvelope(150, 150, 1700, 1620), ST_Point(x, y)) AND classification = 2": false,
	} {
		var folds []string
		pipedStep := false
		for _, s := range mustQuery(t, e, q).Explain.Steps {
			if s.Op == "group.agg" {
				folds = append(folds, s.Detail)
			}
			pipedStep = pipedStep || s.Op == "filter.column" && strings.HasPrefix(s.Detail, "piped:")
		}
		if len(folds) != 1 || !strings.HasPrefix(folds[0], "dense, 1 pass, 5 aggs") {
			t.Fatalf("%s: group.agg steps %q, want one dense 1-pass fold", q, folds)
		}
		if pipedStep != piped {
			t.Fatalf("%s: piped %t, want %t", q, pipedStep, piped)
		}
	}
}

// TestGroupedStrategyExplain pins the EXPLAIN "group" step to the strategy
// that actually ran: dense for the u8 class key, hash for a float key,
// interpreter for a vector-table key.
func TestGroupedStrategyExplain(t *testing.T) {
	e, _ := nanDB(t, 20000)
	groupDetail := func(q string) string {
		t.Helper()
		res, err := e.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for _, s := range res.Explain.Steps {
			if s.Op == "group" {
				return s.Detail
			}
		}
		t.Fatalf("%s: no group step in trace", q)
		return ""
	}
	if d := groupDetail("SELECT classification, count(*) FROM cloud GROUP BY classification"); !strings.HasPrefix(d, "dense:") {
		t.Fatalf("u8 key reported %q, want dense", d)
	}
	if d := groupDetail("SELECT gps_time, count(*) FROM cloud GROUP BY gps_time"); !strings.HasPrefix(d, "hash:") {
		t.Fatalf("float key reported %q, want hash", d)
	}

	es, _, _, _ := testDB(t)
	if d := func() string {
		res := mustQuery(t, es, "SELECT class, count(*) FROM ua GROUP BY class")
		for _, s := range res.Explain.Steps {
			if s.Op == "group" {
				return s.Detail
			}
		}
		return ""
	}(); !strings.HasPrefix(d, "interpreter:") {
		t.Fatalf("vector-table key reported %q, want interpreter", d)
	}
}

// TestGroupedExplainCountsOnce: on the vectorized arm the engine's
// group.agg step times the fold and the SQL-layer group step only what
// follows it, so the trace sums to no more than the query's wall time and
// group is the shorter step. Both fail when group re-counts the fold.
func TestGroupedExplainCountsOnce(t *testing.T) {
	e, _ := nanDB(t, 200000)
	for _, q := range []string{
		"SELECT classification, count(*), avg(z) FROM cloud GROUP BY classification",
		"SELECT classification, count(*), avg(z) FROM cloud WHERE z > 10 GROUP BY classification",
	} {
		shorter := false
		for range 5 {
			start := time.Now()
			res, err := e.QueryContext(context.Background(), q)
			wall := time.Since(start)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if total := res.Explain.Total(); total > wall {
				t.Fatalf("%s: trace sums to %v over a %v query:\n%s", q, total, wall, res.Explain)
			}
			var group, agg time.Duration
			for _, s := range res.Explain.Steps {
				switch s.Op {
				case "group":
					group = s.Duration
				case "group.agg":
					agg = s.Duration
				}
			}
			if agg == 0 {
				t.Fatalf("%s: no group.agg step:\n%s", q, res.Explain)
			}
			shorter = shorter || group < agg
		}
		if !shorter {
			t.Fatalf("%s: the group step was never shorter than group.agg", q)
		}
	}
}

// TestGroupedReboundMatchesFreshPrepare extends the PR 4 rebind property to
// grouped plans: a shape hit whose literal vector changed re-binds the
// cached skeleton, and the rebound grouped run must equal a fresh Prepare
// of the new text exactly.
func TestGroupedReboundMatchesFreshPrepare(t *testing.T) {
	e, _ := nanDB(t, 30000)
	template := "SELECT classification, count(*) AS n, avg(z) FROM cloud WHERE ST_Contains(ST_MakeEnvelope(%g, %g, %g, %g), ST_Point(x, y)) AND intensity > %g GROUP BY classification"
	qA := fmt.Sprintf(template, 100.0, 100.0, 600.0, 700.0, 50.0)
	qB := fmt.Sprintf(template, 250.0, 180.0, 900.0, 860.0, 325.0)

	if _, err := e.QueryContext(context.Background(), qA); err != nil {
		t.Fatal(err)
	}
	before := e.StmtCacheStats()
	rebound, err := e.QueryContext(context.Background(), qB)
	if err != nil {
		t.Fatal(err)
	}
	after := e.StmtCacheStats()
	if after.ShapeHits != before.ShapeHits+1 || after.Rebinds != before.Rebinds+1 {
		t.Fatalf("literal-only change did not rebind: %+v -> %+v", before, after)
	}

	fresh, _ := nanDB(t, 30000) // identical dataset, cold executor
	pq, err := fresh.Prepare(qB)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runTraced(pq)
	if err != nil {
		t.Fatal(err)
	}
	resultRowsEqual(t, "rebound vs fresh", rebound, want)
}

// TestPyramidRouteMatchesExact pins the SQL end of the pre-aggregation
// pyramid: a viewport histogram whose only filter is a region is answered
// by the pyramid (EXPLAIN says so), and its rows equal the exact selection +
// grouped-kernel arm the same statement takes with routing switched off —
// over NaN values, for a viewport cutting through tiles and one containing
// the whole extent.
func TestPyramidRouteMatchesExact(t *testing.T) {
	e, _ := nanDB(t, 50000)
	template := "SELECT classification, count(*) AS n, min(z) AS lo, max(z) AS hi FROM cloud WHERE ST_Contains(ST_MakeEnvelope(%g, %g, %g, %g), ST_Point(x, y)) GROUP BY classification"
	for _, box := range [][4]float64{{130, 210, 770, 905}, {-1, -1, 1001, 1001}} {
		q := fmt.Sprintf(template, box[0], box[1], box[2], box[3])
		routed := mustQuery(t, e, q)
		if !strings.Contains(routed.Explain.String(), "pyramid(") {
			t.Fatalf("viewport histogram not routed through the pyramid:\n%s", routed.Explain)
		}
		pyramid.SetEnabled(false)
		exact, err := e.QueryContext(context.Background(), q)
		pyramid.SetEnabled(true)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(exact.Explain.String(), "pyramid(") {
			t.Fatalf("routing off, yet the pyramid answered:\n%s", exact.Explain)
		}
		resultRowsEqual(t, "pyramid vs exact", routed, exact)
	}
}
