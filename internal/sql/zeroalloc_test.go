package sql

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"gisnav/internal/engine"
)

// Steady-state allocation enforcement for the prepared-statement pipeline,
// the SQL-layer extension of internal/engine/zeroalloc_test.go: once a
// statement is prepared and the engine caches are warm, a repeated run may
// allocate only its column-shaped result — the Result header, its column
// list and one exactly-sized slab the numeric columns are cut from (plus
// one Value vector per interpreter-evaluated column): a small constant
// that does not grow with the row count. Selection vectors, imprint
// candidate ranges, grid scratch, kernel compilation and the vector-table
// row sets are all pooled or hoisted into the plan. Treat a failure here
// as a fast-path regression, not a flaky test (AllocsPerRun runs the
// closure once as warm-up, which is exactly the cold query that fills the
// caches and pools).

// runSteady measures the steady-state allocations of one prepared query.
func runSteady(t *testing.T, e *Executor, q string) (allocs float64, rows int) {
	t.Helper()
	pq, err := e.Prepare(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	res, err := pq.RunContext(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	rows = res.Len()
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := pq.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	return allocs, rows
}

// TestPreparedAggregateSteadyStateAllocs covers the navigation shape the
// paper's workload repeats: bbox region + thematic kernel predicates +
// one compiled generic conjunct, aggregated. The whole pipeline above the
// result must be allocation-free: 1 Result + 1 column list + 1 slab.
func TestPreparedAggregateSteadyStateAllocs(t *testing.T) {
	e, _, _, _ := testDB(t)
	q := `SELECT count(*) FROM ahn2
		WHERE ST_Contains(ST_MakeEnvelope(150, 150, 1700, 1620), ST_Point(x, y))
		  AND classification = 2 AND intensity BETWEEN 10 AND 60000
		  AND z - intensity < 100000`
	allocs, rows := runSteady(t, e, q)
	if rows != 1 {
		t.Fatalf("aggregate produced %d rows, want 1", rows)
	}
	if allocs > 3 {
		t.Fatalf("prepared bbox+attribute aggregate allocates %.1f objects/op, want <= 3 (result only)", allocs)
	}
}

// TestPreparedVectorSteadyStateAllocs covers the pooled vector-table path:
// the identity row set, the class-dictionary scan buffer and the sorted
// intersection all draw from the engine pool.
func TestPreparedVectorSteadyStateAllocs(t *testing.T) {
	e, _, _, _ := testDB(t)
	allocs, _ := runSteady(t, e, `SELECT count(*) FROM osm WHERE class = 'motorway'`)
	if allocs > 3 {
		t.Fatalf("prepared vector class count allocates %.1f objects/op, want <= 3 (result only)", allocs)
	}
}

// TestPreparedGroupedSteadyStateAllocs pins the vectorized dense-path
// grouped run (PR 5) to its result materialisation: the engine side —
// grouped kernels, pooled accumulator banks, the plan-held result record —
// allocates nothing, so a steady run may allocate only the Result, its
// column list and the slab the engine's scratch columns are copied into,
// however many groups there are.
func TestPreparedGroupedSteadyStateAllocs(t *testing.T) {
	e, _, _, _ := testDB(t)
	q := `SELECT classification, count(*) AS n, avg(z) AS mean_z, min(z), max(intensity) FROM ahn2
		WHERE ST_Contains(ST_MakeEnvelope(150, 150, 1700, 1620), ST_Point(x, y))
		GROUP BY classification`
	pq, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if !planOf(pq).grouped.vec {
		t.Fatal("grouped statement did not vectorize; the guard is vacuous")
	}
	allocs, rows := runSteady(t, e, q)
	if rows == 0 {
		t.Fatal("grouped query matched no groups; the measurement is vacuous")
	}
	if allocs > 3 {
		t.Fatalf("prepared dense grouped run allocates %.1f objects/op for %d groups, want <= 3 (result only)",
			allocs, rows)
	}
}

// TestPipedGroupedSteadyStateAllocs pins the whole-table GROUP BY behind a
// thematic predicate — the engine filters ahead of its fold as one
// pipelined pass — to the same result-only allocations, and to the piped
// route in EXPLAIN.
func TestPipedGroupedSteadyStateAllocs(t *testing.T) {
	e, _, _, _ := testDB(t)
	q := `SELECT classification, count(*), avg(z) FROM ahn2 WHERE z BETWEEN 0 AND 20 GROUP BY classification`
	piped := false
	for _, s := range mustQuery(t, e, q).Explain.Steps {
		piped = piped || s.Op == "filter.column" && strings.HasPrefix(s.Detail, "piped:")
	}
	if !piped {
		t.Fatal("the predicate was not piped into the grouped fold")
	}
	allocs, rows := runSteady(t, e, q)
	if rows == 0 {
		t.Fatal("piped grouped query matched no groups; the measurement is vacuous")
	}
	if allocs > 3 {
		t.Fatalf("piped grouped run allocates %.1f objects/op, want <= 3 (result only)", allocs)
	}
}

// TestUnfilteredGroupedTakesAllRowsArm pins the no-region, no-predicate
// GROUP BY to the engine's gather-free all-rows arm: same answer as the
// filtered arm under an always-true predicate, result-only allocations, and
// no selection vector drawn — with every pooled vector big enough for an
// identity selection held by the test, materialising one would have to park
// a fresh table-sized buffer in the pool.
func TestUnfilteredGroupedTakesAllRowsArm(t *testing.T) {
	e, pc, _, _ := testDB(t)
	q := `SELECT classification, count(*), avg(z) FROM ahn2 GROUP BY classification`
	want := mustQuery(t, e, `SELECT classification, count(*), avg(z) FROM ahn2 WHERE z > -1e300 GROUP BY classification`)
	got := mustQuery(t, e, q)
	if got.Len() == 0 || got.Len() != want.Len() {
		t.Fatalf("unfiltered grouped: %d groups, filtered arm %d", got.Len(), want.Len())
	}
	for j := range want.Cols {
		for i, w := range want.Cols[j].Nums {
			if math.Float64bits(got.Cols[j].Nums[i]) != math.Float64bits(w) {
				t.Fatalf("col %d group %d = %v, filtered arm %v", j, i, got.Cols[j].Nums[i], w)
			}
		}
	}
	if allocs, _ := runSteady(t, e, q); allocs > 3 {
		t.Fatalf("unfiltered grouped run allocates %.1f objects/op, want <= 3 (result only)", allocs)
	}

	var held [][]int
	var untracked *engine.Run // a nil run draws untracked
	for {
		free := engine.SelectionPoolStats().FreeElts
		held = append(held, untracked.AcquireRows(pc.Len()))
		if engine.SelectionPoolStats().FreeElts == free {
			break // the pool had nothing that large left: this one was allocated
		}
	}
	before := engine.SelectionPoolStats()
	mustQuery(t, e, q)
	if after := engine.SelectionPoolStats(); after != before {
		t.Fatalf("unfiltered grouped run touched the selection pool: %+v -> %+v", before, after)
	}
	for _, b := range held {
		engine.RecycleRows(b)
	}
}

// TestUnfilteredAggregateTakesAllRowsArm pins the WHERE-less ungrouped
// aggregate — the count(*) a client issues after every append — to the
// engine's all-rows arms: count(*) reads the table length and the kernel
// aggregates take a nil selection. Answers equal the identity-vector arm
// (the same statements under an always-true predicate), a steady run
// allocates only its result, and no selection vector is drawn; a select
// list the interpreter evaluates still gets its identity vector.
func TestUnfilteredAggregateTakesAllRowsArm(t *testing.T) {
	e, pc, _, _ := testDB(t)
	for _, items := range []string{
		"count(*)",
		"count(*), count(z), sum(z), avg(z), min(intensity), max(classification)",
		"count(*), sum(z + 1)",
	} {
		got := mustQuery(t, e, "SELECT "+items+" FROM ahn2")
		want := mustQuery(t, e, "SELECT "+items+" FROM ahn2 WHERE z > -1e300")
		sameResultBits(t, items, got, want)
		if got.Cols[0].Nums[0] != float64(pc.Len()) {
			t.Fatalf("%s: count(*) = %v over %d rows", items, got.Cols[0].Nums[0], pc.Len())
		}
		if allocs, _ := runSteady(t, e, "SELECT "+items+" FROM ahn2"); allocs > 3 {
			t.Fatalf("%s: unfiltered aggregate allocates %.1f objects/op, want <= 3 (result only)", items, allocs)
		}
	}

	var held [][]int
	var untracked *engine.Run // a nil run draws untracked
	for {
		free := engine.SelectionPoolStats().FreeElts
		held = append(held, untracked.AcquireRows(pc.Len()))
		if engine.SelectionPoolStats().FreeElts == free {
			break // the pool had nothing that large left: this one was allocated
		}
	}
	before := engine.SelectionPoolStats()
	mustQuery(t, e, "SELECT count(*), avg(z), max(intensity) FROM ahn2")
	if after := engine.SelectionPoolStats(); after != before {
		t.Fatalf("unfiltered aggregate touched the selection pool: %+v -> %+v", before, after)
	}
	mustQuery(t, e, "SELECT count(*), sum(z + 1) FROM ahn2")
	if after := engine.SelectionPoolStats(); after.Outstanding != before.Outstanding || after == before {
		t.Fatalf("an interpreted aggregate must draw and return its identity vector: %+v -> %+v", before, after)
	}
	for _, b := range held {
		engine.RecycleRows(b)
	}
}

// TestPreparedProjectionSteadyStateAllocs pins the projection path — the
// navigation session's big-reply step, five compiled columns — to its
// column-shaped result: Result + column list + one slab, the same three
// objects whether the run emits 20 rows or 2000.
func TestPreparedProjectionSteadyStateAllocs(t *testing.T) {
	e, _, _, _ := testDB(t)
	q := `SELECT x, y, z, classification, intensity FROM ahn2
		WHERE ST_Contains(ST_MakeEnvelope(150, 150, 1700, 1620), ST_Point(x, y)) LIMIT `
	small, rows := runSteady(t, e, q+"20")
	if rows != 20 {
		t.Fatalf("projection emitted %d rows, want 20", rows)
	}
	large, rows := runSteady(t, e, q+"2000")
	if rows != 2000 {
		t.Fatalf("projection emitted %d rows, want 2000; the measurement is vacuous", rows)
	}
	if large > 3 || large != small {
		t.Fatalf("prepared projection allocates %.1f objects/op for 2000 rows and %.1f for 20, want the same <= 3 (result header, column list, slab)",
			large, small)
	}
}

// TestPreparedLimitSelectSteadyStateAllocs pins the early-stopping
// selection — a wide viewport whose LIMIT cuts the walk and the refinement
// after a second round grew the row vector — to the same result-only
// allocations as the projection above: the walk's cursor lives on the
// stack and every round draws its buffers from the pools.
func TestPreparedLimitSelectSteadyStateAllocs(t *testing.T) {
	e, _, _, _ := testDB(t)
	q := `SELECT x, y, z, classification, intensity FROM ahn2
		WHERE ST_Contains(ST_MakeEnvelope(300, 100, 1900, 1900), ST_Point(x, y)) LIMIT 2000`
	res := mustQuery(t, e, q)
	twoRounds := false
	for _, s := range res.Explain.Steps {
		twoRounds = twoRounds || s.Op == "grid.refine" && strings.Contains(s.Detail, "limit 2000 in 2 rounds")
	}
	if !twoRounds {
		t.Fatalf("selection did not stop at its limit after two rounds: %+v", res.Explain.Steps)
	}
	allocs, rows := runSteady(t, e, q)
	if rows != 2000 {
		t.Fatalf("projection emitted %d rows, want 2000", rows)
	}
	if allocs > 3 {
		t.Fatalf("prepared early-stopping projection allocates %.1f objects/op, want <= 3 (result header, column list, slab)", allocs)
	}
}

// TestReboundSteadyStateAllocs pins what a rebound run allocates: two texts
// of one navigation shape, alternated through QueryUntracedContext, so every
// run binds a literal vector other than the one before it. Beside the
// result's three objects, a rebind allocates its bound (slots and
// predicates inline) and, on a region shape, the region: the envelope's
// point slice, the boxed polygon and the boxed region.
func TestReboundSteadyStateAllocs(t *testing.T) {
	e, _, _, _ := testDB(t)
	const env = "ST_Contains(ST_MakeEnvelope(%d, 150, 1700, 1620), ST_Point(x, y))"
	for _, c := range []struct {
		name  string
		shape string // one %d: the varying literal
		lits  [2]int
		bound float64
	}{
		{"pan.bbox", "SELECT count(*), avg(z) FROM ahn2 WHERE " + env + " AND classification = 2", [2]int{150, 160}, 7},
		{"pan.hist", "SELECT classification, count(*), min(z), max(z) FROM ahn2 WHERE " + env + " GROUP BY classification", [2]int{150, 160}, 7},
		{"pan.fetch", "SELECT x, y, z, classification, intensity FROM ahn2 WHERE " + env + " LIMIT 2000", [2]int{150, 160}, 7},
		{"scan.thematic", "SELECT classification, count(*), avg(z) FROM ahn2 WHERE z BETWEEN %d AND 20 GROUP BY classification", [2]int{0, 1}, 4},
	} {
		texts := [2]string{fmt.Sprintf(c.shape, c.lits[0]), fmt.Sprintf(c.shape, c.lits[1])}
		ctx := context.Background()
		n := 0
		run := func() {
			n++
			if _, err := e.QueryUntracedContext(ctx, texts[n%2]); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		run()
		run()
		before := e.StmtCacheStats().Rebinds
		allocs := testing.AllocsPerRun(50, run)
		if got := e.StmtCacheStats().Rebinds - before; got != 51 {
			t.Fatalf("%s: %d of 51 runs rebound; the measurement is not of the rebound path", c.name, got)
		}
		t.Logf("%s: %.1f objects per rebound run", c.name, allocs)
		if allocs > c.bound {
			t.Fatalf("%s: a rebound run allocates %.1f objects, want <= %.0f", c.name, allocs, c.bound)
		}
	}
}
