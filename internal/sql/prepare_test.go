package sql

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/synth"
)

// Prepared-statement pipeline tests: plan reuse, the statement cache, and
// the epoch invalidation contract (an append between two executions of the
// same prepared/cached statement must be observed by the second — no stale
// plans, ever).

// countQuery is a full-extent bbox count with a thematic kernel predicate
// and a compiled generic conjunct: its result equals the table's row count
// (every synthetic point lies inside the extent, classification is always
// >= 0 and z - z < 1 holds everywhere), so correctness after an append is
// exactly "count == new Len()".
const countQuery = `SELECT count(*) FROM ahn2
	WHERE ST_Contains(ST_MakeEnvelope(-1e9, -1e9, 1e9, 1e9), ST_Point(x, y))
	  AND classification >= 0 AND z - z < 1`

// appendMorePoints grows the test cloud by one more synthetic tile,
// exercising the append path (AppendLAS → InvalidateIndexes → epoch bump).
func appendMorePoints(t *testing.T, e *Executor) int {
	t.Helper()
	region := geom.NewEnvelope(0, 0, 2000, 2000)
	terrain := synth.NewTerrain(81, region)
	pts := synth.GenerateTile(terrain, synth.TileSpec{Env: region, Density: 0.002, Seed: 99})
	if len(pts) == 0 {
		t.Fatal("synthetic append tile is empty")
	}
	pc, err := e.db.PointCloud("ahn2")
	if err != nil {
		t.Fatal(err)
	}
	pc.AppendLAS(pts)
	return len(pts)
}

// planOf is the plan pq's next run under its last bound vector executes.
func planOf(pq *PreparedQuery) *queryPlan { return pq.last.Load().plan }

// runTraced runs a prepared statement with the per-operator EXPLAIN trace
// QueryContext carries, for tests that compare traces or need them.
func runTraced(pq *PreparedQuery) (*Result, error) {
	return pq.lifecycleRun(context.Background(), &engine.Explain{}, pq.init, originPrepared)
}

func TestPreparedQueryMatchesQuery(t *testing.T) {
	e, pc, _, _ := testDB(t)
	pq, err := e.Prepare(countQuery)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := pq.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := int(res.Rows()[0][0].Num); got != pc.Len() {
			t.Fatalf("run %d: count = %d, want %d", i, got, pc.Len())
		}
		if res.Explain != nil {
			t.Fatal("untraced RunContext should carry no explain")
		}
	}
	res, err := runTraced(pq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain == nil || len(res.Explain.Steps) == 0 {
		t.Fatal("a traced run should carry the operator trace")
	}
}

// TestPreparedQueryObservesAppend is the acceptance-criterion test: an
// append between two RunContext calls of the same prepared statement is observed
// by the second call.
func TestPreparedQueryObservesAppend(t *testing.T) {
	e, pc, _, _ := testDB(t)
	pq, err := e.Prepare(countQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	before := int(res.Rows()[0][0].Num)
	if before != pc.Len() {
		t.Fatalf("pre-append count = %d, want %d", before, pc.Len())
	}

	added := appendMorePoints(t, e)

	res, err = pq.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := int(res.Rows()[0][0].Num); got != before+added {
		t.Fatalf("post-append count = %d, want %d (stale plan served?)", got, before+added)
	}
}

// TestStmtCacheEpochInvalidation drives the same contract through
// Executor.QueryContext's statement cache and checks the observability counters:
// the second identical query is a cache hit, and the append forces both an
// SQL-layer plan invalidation and an engine-layer kernel recompile
// (PlanCacheStats misses move, because InvalidateIndexes dropped the
// compiled kernels the cached plan's predicates route through).
func TestStmtCacheEpochInvalidation(t *testing.T) {
	e, pc, _, _ := testDB(t)

	res := mustQuery(t, e, countQuery)
	before := int(res.Rows()[0][0].Num)
	s0 := e.StmtCacheStats()
	if s0.Entries == 0 || s0.Misses == 0 {
		t.Fatalf("first query should miss and populate the cache: %+v", s0)
	}

	res = mustQuery(t, e, countQuery)
	if int(res.Rows()[0][0].Num) != before {
		t.Fatal("repeat of cached statement changed the count without an append")
	}
	s1 := e.StmtCacheStats()
	if s1.Hits != s0.Hits+1 {
		t.Fatalf("second identical query should hit the cache: %+v -> %+v", s0, s1)
	}
	if s1.Invalidations != s0.Invalidations {
		t.Fatalf("no append happened, yet invalidations moved: %+v -> %+v", s0, s1)
	}

	added := appendMorePoints(t, e)
	engineMisses := pc.PlanCacheStats().Misses

	res = mustQuery(t, e, countQuery)
	if got := int(res.Rows()[0][0].Num); got != before+added {
		t.Fatalf("cached statement after append = %d, want %d", got, before+added)
	}
	s2 := e.StmtCacheStats()
	if s2.Invalidations != s1.Invalidations+1 {
		t.Fatalf("append should force exactly one epoch replan: %+v -> %+v", s1, s2)
	}
	if got := pc.PlanCacheStats().Misses; got <= engineMisses {
		t.Fatalf("append should force a kernel recompile (engine plan-cache miss): %d -> %d",
			engineMisses, got)
	}
}

// TestReRegistrationServesNewTable: plans bind table pointers, so a table
// registered under a name a cached or prepared plan already resolved must
// force a replan — through the statement cache and through a standalone
// PreparedQuery alike — and answer from the new table. Both replacements
// carry the epoch of the table they replace, so only the catalog
// generation can tell them apart.
func TestReRegistrationServesNewTable(t *testing.T) {
	e, pc, _, ua := testDB(t)
	const uaCount = "SELECT count(*) FROM ua"
	prepared := map[string]*PreparedQuery{}
	for _, q := range []string{countQuery, uaCount} {
		pq, err := e.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		prepared[q] = pq
	}
	count := func(q string) (viaCache, viaPrepared int) {
		t.Helper()
		res, err := prepared[q].RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return int(mustQuery(t, e, q).Rows()[0][0].Num), int(res.Rows()[0][0].Num)
	}
	if c, p := count(countQuery); c != pc.Len() || p != pc.Len() {
		t.Fatalf("before: cache %d, prepared %d, want %d", c, p, pc.Len())
	}
	if c, p := count(uaCount); c != ua.Len() || p != ua.Len() {
		t.Fatalf("before: cache %d, prepared %d, want %d", c, p, ua.Len())
	}

	region := geom.NewEnvelope(0, 0, 500, 500)
	pts := synth.GenerateTile(synth.NewTerrain(7, region), synth.TileSpec{Env: region, Density: 0.01, Seed: 12})
	pc2 := engine.NewPointCloud()
	pc2.AppendLAS(pts)
	ua2 := engine.NewVectorTable()
	ua2.Append(1, "12210", "road", geom.NewEnvelope(0, 0, 10, 10).ToPolygon(), nil)
	if pc2.Len() == pc.Len() || pc2.Epoch() != pc.Epoch() || ua2.Len() == ua.Len() {
		t.Fatalf("replacements do not discriminate: %d/%d rows, epochs %d/%d, %d/%d features",
			pc2.Len(), pc.Len(), pc2.Epoch(), pc.Epoch(), ua2.Len(), ua.Len())
	}
	inv := e.StmtCacheStats().Invalidations
	e.db.RegisterPointCloud("ahn2", pc2)
	e.db.RegisterVector("ua", ua2)

	if c, p := count(countQuery); c != pc2.Len() || p != pc2.Len() {
		t.Fatalf("after re-registration: cache %d, prepared %d, want %d (old table served)", c, p, pc2.Len())
	}
	if c, p := count(uaCount); c != ua2.Len() || p != ua2.Len() {
		t.Fatalf("after re-registration: cache %d, prepared %d, want %d (old table served)", c, p, ua2.Len())
	}
	if got := e.StmtCacheStats().Invalidations; got != inv+4 {
		t.Fatalf("re-registration forced %d replans, want 4 (two shapes, two paths)", got-inv)
	}
}

// TestVectorEpochReplansStarExpansion: a vector-table append that
// introduces a new numeric attribute must be visible to a cached SELECT *
// — star expansion happens at plan time, so only the vt epoch replan can
// surface the new column.
func TestVectorEpochReplansStarExpansion(t *testing.T) {
	e, _, _, ua := testDB(t)
	q := "SELECT * FROM ua LIMIT 1"
	res := mustQuery(t, e, q)
	for _, c := range res.Columns {
		if c == "brand_new_attr" {
			t.Fatal("attribute exists before the append")
		}
	}
	ncols := len(res.Columns)

	ua.Append(999999, "99999", "epoch probe", geom.NewEnvelope(1, 1, 2, 2).ToPolygon(),
		map[string]float64{"brand_new_attr": 42})

	res = mustQuery(t, e, q)
	if len(res.Columns) != ncols+1 {
		t.Fatalf("columns after attribute append = %v, want %d", res.Columns, ncols+1)
	}
	found := false
	for _, c := range res.Columns {
		if c == "brand_new_attr" {
			found = true
		}
	}
	if !found {
		t.Fatalf("cached star expansion missed the appended attribute: %v", res.Columns)
	}
}

// TestVectorEpochObservesAppend covers the vector row-count contract.
func TestVectorEpochObservesAppend(t *testing.T) {
	e, _, osm, _ := testDB(t)
	pq, err := e.Prepare("SELECT count(*) FROM osm")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	before := int(res.Rows()[0][0].Num)
	osm.Append(424242, "motorway", "appended road",
		geom.MustParseWKT("LINESTRING (0 0, 10 10)"), nil)
	res, err = pq.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := int(res.Rows()[0][0].Num); got != before+1 {
		t.Fatalf("post-append vector count = %d, want %d", got, before+1)
	}
}

// TestConcurrentSameStatement: concurrent QueryContext calls share one
// cached statement per shape and must not corrupt each other's results —
// runs share the plan and bounds without a lock, each writing only its own
// frame. Eight goroutines alternate two literal vectors on each of three
// shapes: the navigation bbox aggregate with a compiled generic conjunct,
// the fetch projection with an arithmetic item, and the dense grouped fold.
// Every result must equal a fresh Prepare of its own text, and each shape
// must have been planned exactly once. Meaningful under -race.
func TestConcurrentSameStatement(t *testing.T) {
	e, _, _, _ := testDB(t)
	const env = "ST_Contains(ST_MakeEnvelope(%d, 150, 1700, 1620), ST_Point(x, y))"
	shapes := [][2]string{}
	for _, c := range []struct {
		shape string
		lits  [2]int
	}{
		{"SELECT count(*), avg(z) FROM ahn2 WHERE " + env + " AND classification = 2 AND z - 2*intensity < 100000", [2]int{150, 400}},
		{"SELECT x, y, z - 2*intensity, classification FROM ahn2 WHERE " + env + " LIMIT 2000", [2]int{150, 400}},
		{"SELECT classification, count(*), avg(z) FROM ahn2 WHERE z BETWEEN %d AND 20 GROUP BY classification", [2]int{0, 5}},
	} {
		shapes = append(shapes, [2]string{fmt.Sprintf(c.shape, c.lits[0]), fmt.Sprintf(c.shape, c.lits[1])})
	}
	want := map[string]*Result{}
	for _, texts := range shapes {
		for _, q := range texts {
			pq, err := e.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			if want[q], err = pq.RunContext(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		if resultsEqual(want[texts[0]], want[texts[1]]) {
			t.Fatalf("%s: both literal vectors give one result; the check is vacuous", texts[0])
		}
	}
	builds := e.builds.Load()
	for _, texts := range shapes {
		mustQuery(t, e, texts[0])
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := shapes[i%len(shapes)][(g+i/len(shapes))%2]
				res, err := e.QueryContext(context.Background(), q)
				if errors.Is(err, ErrOverloaded) {
					// The admission gate (2×GOMAXPROCS slots) sheds the
					// burst on small machines; this test is about result
					// integrity, not admission, so back off and retry.
					runtime.Gosched()
					i--
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				if !resultsEqual(res, want[q]) {
					errs <- fmt.Errorf("%s: concurrent run differs from a fresh Prepare", q)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := e.builds.Load() - builds; got != uint64(len(shapes)) {
		t.Fatalf("%d plans built for %d shapes, want one each", got, len(shapes))
	}
}

// TestStmtCacheBound: unbounded distinct statement texts must not grow the
// cache past its bound (drop-and-rebuild policy, like the engine cache).
func TestStmtCacheBound(t *testing.T) {
	e, _, _, _ := testDB(t)
	for i := 0; i < maxCachedStmts+10; i++ {
		mustQuery(t, e, fmt.Sprintf("SELECT count(*) FROM osm WHERE id = %d", i))
	}
	if got := e.StmtCacheStats().Entries; got > maxCachedStmts {
		t.Fatalf("cache grew to %d entries, bound is %d", got, maxCachedStmts)
	}
}

// TestPreparedJoinAndVectorReuse: joins and vector scans run correctly
// through repeated prepared execution (pooled row sets narrow in place and
// recycle; a second run must see the same result).
func TestPreparedJoinAndVectorReuse(t *testing.T) {
	e, _, _, _ := testDB(t)
	queries := []string{
		`SELECT count(*) FROM ahn2, ua
		   WHERE ua.class = '12210' AND ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 30)`,
		`SELECT count(*) FROM osm WHERE class = 'motorway'`,
		`SELECT count(*) FROM osm
		   WHERE ST_Intersects(geom, ST_MakeEnvelope(0, 0, 900, 900)) AND id >= 0`,
	}
	for _, q := range queries {
		pq, err := e.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		first, err := pq.RunContext(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for i := 0; i < 3; i++ {
			res, err := pq.RunContext(context.Background())
			if err != nil {
				t.Fatalf("%s run %d: %v", q, i, err)
			}
			if res.Rows()[0][0].Num != first.Rows()[0][0].Num {
				t.Fatalf("%s: run %d count %v, first run %v",
					q, i, res.Rows()[0][0].Num, first.Rows()[0][0].Num)
			}
		}
		// The reference interpreter-era answer via the traced path.
		traced := mustQuery(t, e, q)
		if traced.Rows()[0][0].Num != first.Rows()[0][0].Num {
			t.Fatalf("%s: traced %v, untraced %v", q, traced.Rows()[0][0].Num, first.Rows()[0][0].Num)
		}
	}
}

// TestLimitRebindMatchesFreshPrepare: a LIMIT literal rebound into a cached
// skeleton takes effect with no replan. On the shape whose LIMIT cuts the
// selection itself (a plain projection of region rows) and on shapes that
// filter or reorder after it, every count — 0, 1, 2000 and more than the
// matches — must return what a fresh Prepare returns, and that is the
// first rows of the statement without a LIMIT.
func TestLimitRebindMatchesFreshPrepare(t *testing.T) {
	e, _, _, _ := testDB(t)
	const where = `FROM ahn2 WHERE ST_Contains(ST_MakeEnvelope(300, 100, 1900, 1900), ST_Point(x, y))`
	for _, c := range []struct {
		shape       string
		limitSelect bool
	}{
		{`SELECT x, y, z, classification, intensity ` + where, true},
		{`SELECT x, z ` + where + ` AND classification = 2`, false},
		{`SELECT x, z ` + where + ` AND z - intensity < 100000`, false},
		{`SELECT x, z ` + where + ` ORDER BY z DESC`, false},
	} {
		all := mustQuery(t, e, c.shape)
		if all.Len() < 4000 {
			t.Fatalf("%s: %d rows; the limits below are vacuous", c.shape, all.Len())
		}
		for i, k := range []int{3, 0, 1, 2000, all.Len() + 7} {
			q := fmt.Sprintf("%s LIMIT %d", c.shape, k)
			got := mustQuery(t, e, q)
			if origin := got.Explain.Steps[0].Detail; i > 0 && origin != originRebound {
				t.Fatalf("%s: plan origin %q, want a rebind", q, origin)
			}
			fresh, err := e.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			if planOf(fresh).limitSelect != c.limitSelect {
				t.Fatalf("%s: limitSelect = %v, want %v", q, planOf(fresh).limitSelect, c.limitSelect)
			}
			want, err := fresh.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(got, want) {
				t.Fatalf("%s: rebound run returns %d rows, fresh Prepare %d", q, got.Len(), want.Len())
			}
			if n := min(k, all.Len()); want.Len() != n || !isPrefix(want, all) {
				t.Fatalf("%s: %d rows, want the first %d rows of the unlimited statement", q, want.Len(), n)
			}
		}
	}
}
