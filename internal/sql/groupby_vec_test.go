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
	}
	// Random spatial selections drive random selection vectors through both
	// arms (grid region → pooled row sets).
	for i := 0; i < 4; i++ {
		x0, y0 := rng.Float64()*800, rng.Float64()*800
		queries = append(queries, fmt.Sprintf(
			"SELECT classification, count(*), avg(z) FROM cloud WHERE ST_Contains(ST_MakeEnvelope(%g, %g, %g, %g), ST_Point(x, y)) GROUP BY classification",
			x0, y0, x0+rng.Float64()*200, y0+rng.Float64()*200))
	}
	for _, q := range queries {
		pq, err := e.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if planOf(pq).grouped.keyCol == "" {
			t.Fatalf("%s: did not vectorize; the equivalence check is vacuous", q)
		}
		vec, err := pq.RunContext(context.Background())
		if err != nil {
			t.Fatalf("%s (vectorized): %v", q, err)
		}
		planOf(pq).grouped.keyCol = "" // disable the engine route on the same plan
		interp, err := pq.RunContext(context.Background())
		if err != nil {
			t.Fatalf("%s (interpreter): %v", q, err)
		}
		resultRowsEqual(t, q, vec, interp)
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
