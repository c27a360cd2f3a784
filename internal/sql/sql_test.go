package sql

import (
	"context"
	"math"
	"strings"
	"testing"

	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/synth"
)

// testDB builds a small demo database shared across SQL tests.
func testDB(t *testing.T) (*Executor, *engine.PointCloud, *engine.VectorTable, *engine.VectorTable) {
	t.Helper()
	region := geom.NewEnvelope(0, 0, 2000, 2000)
	terrain := synth.NewTerrain(81, region)
	pts := synth.GenerateTile(terrain, synth.TileSpec{Env: region, Density: 0.01, Seed: 6})
	pc := engine.NewPointCloud()
	pc.AppendLAS(pts)

	osmFeatures := synth.GenerateOSM(terrain, 2)
	osm := engine.NewVectorTable()
	for _, f := range osmFeatures {
		osm.Append(f.ID, f.Class, f.Name, f.Geom, nil)
	}
	ua := engine.NewVectorTable()
	for _, z := range synth.GenerateUrbanAtlas(terrain, synth.Motorways(osmFeatures), 10, 10, 3) {
		ua.Append(int64(z.ID), z.Code, z.Label, z.Geom, map[string]float64{"pop_density": z.PopDensity})
	}

	db := engine.NewDB()
	db.RegisterPointCloud("ahn2", pc)
	db.RegisterVector("osm", osm)
	db.RegisterVector("ua", ua)
	return New(db), pc, osm, ua
}

func mustQuery(t *testing.T, e *Executor, q string) *Result {
	t.Helper()
	res, err := e.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return res
}

func TestLexer(t *testing.T) {
	toks, err := lex("SELECT x, 'it''s' FROM t WHERE a >= 1.5e2 AND b <> 3")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.kind)
		texts = append(texts, tok.text)
	}
	if texts[0] != "SELECT" || kinds[0] != tokKeyword {
		t.Fatalf("toks = %v", texts)
	}
	// The escaped string.
	found := false
	for i, k := range kinds {
		if k == tokString && texts[i] == "it's" {
			found = true
		}
	}
	if !found {
		t.Fatal("string escape failed")
	}
	if _, err := lex("SELECT 'unterminated"); err == nil {
		t.Fatal("unterminated string should fail")
	}
	if _, err := lex("SELECT #"); err == nil {
		t.Fatal("bad char should fail")
	}
	if _, err := lex("a != b"); err != nil {
		t.Fatal("!= should lex as <>")
	}
	if _, err := lex("a ! b"); err == nil {
		t.Fatal("lone ! should fail")
	}
}

func TestParser(t *testing.T) {
	stmt, err := Parse("SELECT x AS ex, count(*) FROM ahn2 a WHERE (x > 1 OR y < 2) AND NOT z = 3 ORDER BY x DESC LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Items) != 2 || stmt.Items[0].Alias != "ex" {
		t.Fatalf("items = %+v", stmt.Items)
	}
	if len(stmt.From) != 1 || stmt.From[0].Alias != "a" {
		t.Fatalf("from = %+v", stmt.From)
	}
	if stmt.Order == nil || !stmt.Order.Desc || stmt.Limit != 10 {
		t.Fatal("order/limit wrong")
	}
	// String round trip parses again.
	if _, err := Parse(stmt.String()); err != nil {
		t.Fatalf("canonical form reparse: %v", err)
	}
}

func TestParserBetweenPrecedence(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE z BETWEEN 1 AND 5 AND x = 2")
	if err != nil {
		t.Fatal(err)
	}
	conjs := splitConjuncts(stmt.Where)
	if len(conjs) != 2 {
		t.Fatalf("conjuncts = %d, want 2 (BETWEEN binds its own AND)", len(conjs))
	}
	if _, ok := conjs[0].(BetweenExpr); !ok {
		t.Fatalf("first conjunct = %T", conjs[0])
	}
}

func TestParserErrors(t *testing.T) {
	bad := []string{
		"",
		"UPDATE t SET x = 1",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t LIMIT -1",
		"SELECT * FROM t LIMIT x",
		"SELECT f( FROM t",
		"SELECT * FROM t trailing garbage here",
		"SELECT a. FROM t",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestSelectBoxSQLMatchesEngine(t *testing.T) {
	e, pc, _, _ := testDB(t)
	q := "SELECT x, y, z FROM ahn2 WHERE ST_Contains(ST_MakeEnvelope(200, 200, 700, 600), ST_Point(x, y))"
	res := mustQuery(t, e, q)
	rows := pc.SelectRegionRows(grid.GeometryRegion{G: geom.NewEnvelope(200, 200, 700, 600).ToPolygon()})
	if res.Len() != len(rows) {
		t.Fatalf("sql %d rows, engine %d rows", res.Len(), len(rows))
	}
	if len(res.Columns) != 3 || res.Columns[0] != "x" {
		t.Fatalf("columns = %v", res.Columns)
	}
	// The plan must contain the imprint filter operator.
	trace := res.Explain.String()
	if !strings.Contains(trace, "imprints.filter") || !strings.Contains(trace, "grid.refine") {
		t.Fatalf("trace missing accelerated operators:\n%s", trace)
	}
}

func TestSelectDWithinSQL(t *testing.T) {
	e, pc, _, _ := testDB(t)
	q := "SELECT count(*) FROM ahn2 WHERE ST_DWithin(ST_GeomFromText('LINESTRING (0 1000, 2000 1000)'), ST_Point(x, y), 50)"
	res := mustQuery(t, e, q)
	road := geom.MustParseWKT("LINESTRING (0 1000, 2000 1000)")
	rows := pc.SelectRegionRows(grid.BufferRegion{G: road, D: 50})
	if got := res.Rows()[0][0].Num; int(got) != len(rows) {
		t.Fatalf("sql count %v, engine %d", got, len(rows))
	}
}

func TestThematicFilterSQL(t *testing.T) {
	e, pc, _, _ := testDB(t)
	res := mustQuery(t, e, "SELECT count(*) FROM ahn2 WHERE classification = 9")
	want := 0
	cls := pc.Column(engine.ColClassification)
	for i := 0; i < pc.Len(); i++ {
		if cls.Value(i) == 9 {
			want++
		}
	}
	if int(res.Rows()[0][0].Num) != want {
		t.Fatalf("water points = %v, want %d", res.Rows()[0][0].Num, want)
	}
	// Reversed operand order and BETWEEN.
	res2 := mustQuery(t, e, "SELECT count(*) FROM ahn2 WHERE 9 = classification")
	if res2.Rows()[0][0].Num != res.Rows()[0][0].Num {
		t.Fatal("reversed equality differs")
	}
	res3 := mustQuery(t, e, "SELECT count(*) FROM ahn2 WHERE z BETWEEN 0 AND 5")
	want3 := 0
	for i := 0; i < pc.Len(); i++ {
		if z := pc.Z()[i]; z >= 0 && z <= 5 {
			want3++
		}
	}
	if int(res3.Rows()[0][0].Num) != want3 {
		t.Fatalf("between = %v, want %d", res3.Rows()[0][0].Num, want3)
	}
}

func TestAggregatesSQL(t *testing.T) {
	e, pc, _, _ := testDB(t)
	res := mustQuery(t, e, "SELECT count(*) AS n, avg(z) AS mean_z, min(z), max(z), sum(z) FROM ahn2")
	if res.Columns[0] != "n" || res.Columns[1] != "mean_z" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if int(res.Rows()[0][0].Num) != pc.Len() {
		t.Fatal("count wrong")
	}
	var sum, lo, hi float64
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, z := range pc.Z() {
		sum += z
		lo = math.Min(lo, z)
		hi = math.Max(hi, z)
	}
	if math.Abs(res.Rows()[0][1].Num-sum/float64(pc.Len())) > 1e-9 {
		t.Fatal("avg wrong")
	}
	if res.Rows()[0][2].Num != lo || res.Rows()[0][3].Num != hi {
		t.Fatal("min/max wrong")
	}
	if math.Abs(res.Rows()[0][4].Num-sum) > 1e-6 {
		t.Fatal("sum wrong")
	}
	// Aggregates over empty selections are NULL (except count).
	res2 := mustQuery(t, e, "SELECT count(*), avg(z) FROM ahn2 WHERE z > 100000")
	if res2.Rows()[0][0].Num != 0 || res2.Rows()[0][1].Kind != KindNull {
		t.Fatalf("empty aggregates = %v", res2.Rows()[0])
	}
	// Mixing aggregates and columns fails.
	if _, err := e.QueryContext(context.Background(), "SELECT z, count(*) FROM ahn2"); err == nil {
		t.Fatal("mixed select should fail")
	}
}

func TestVectorQueries(t *testing.T) {
	e, _, osm, _ := testDB(t)
	res := mustQuery(t, e, "SELECT name, class FROM osm WHERE class = 'motorway'")
	if res.Len() != 5 {
		t.Fatalf("motorways = %d, want 5", res.Len())
	}
	for _, r := range res.Rows() {
		if r[1].Str != "motorway" {
			t.Fatal("class filter leaked")
		}
	}
	// Spatial filter on vector geometry.
	res2 := mustQuery(t, e,
		"SELECT count(*) FROM osm WHERE ST_Intersects(geom, ST_MakeEnvelope(0, 0, 2000, 2000))")
	if int(res2.Rows()[0][0].Num) != osm.Len() {
		t.Fatalf("everything intersects the region: %v vs %d", res2.Rows()[0][0].Num, osm.Len())
	}
	// ORDER BY + LIMIT.
	res3 := mustQuery(t, e, "SELECT name FROM osm WHERE class = 'motorway' ORDER BY name LIMIT 3")
	if res3.Len() != 3 {
		t.Fatalf("limit = %d rows", res3.Len())
	}
	for i := 1; i < res3.Len(); i++ {
		if res3.Rows()[i-1][0].Str > res3.Rows()[i][0].Str {
			t.Fatal("order by name violated")
		}
	}
	// DESC.
	res4 := mustQuery(t, e, "SELECT name FROM osm WHERE class = 'motorway' ORDER BY name DESC LIMIT 1")
	res5 := mustQuery(t, e, "SELECT name FROM osm WHERE class = 'motorway' ORDER BY name ASC")
	if res4.Rows()[0][0].Str != res5.Rows()[res5.Len()-1][0].Str {
		t.Fatal("desc should mirror asc")
	}
	// Star expansion for vector tables.
	res6 := mustQuery(t, e, "SELECT * FROM osm LIMIT 1")
	if len(res6.Columns) < 4 || res6.Columns[0] != "id" {
		t.Fatalf("star columns = %v", res6.Columns)
	}
}

func TestScenario2JoinSQL(t *testing.T) {
	e, pc, _, ua := testDB(t)
	q := `SELECT count(*) AS n, avg(z) AS mean_elevation
	      FROM ahn2, ua
	      WHERE ua.class = '12210'
	        AND ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 30)`
	res := mustQuery(t, e, q)

	// Reference: engine-level join.
	ex := &engine.Explain{}
	fast := ua.SelectClass(synth.UAFastTransit, ex)
	region := ua.CollectGeometries(fast)
	want := 0
	var sum float64
	for i := 0; i < pc.Len(); i++ {
		if geom.DWithin(pc.X()[i], pc.Y()[i], region, 30) {
			want++
			sum += pc.Z()[i]
		}
	}
	if int(res.Rows()[0][0].Num) != want {
		t.Fatalf("join count = %v, want %d", res.Rows()[0][0].Num, want)
	}
	if want > 0 && math.Abs(res.Rows()[0][1].Num-sum/float64(want)) > 1e-9 {
		t.Fatalf("join avg = %v", res.Rows()[0][1].Num)
	}
	// Trace shows the pipeline.
	if len(res.Explain.Steps) < 3 {
		t.Fatalf("trace too short: %s", res.Explain.String())
	}
	// Point-side thematic filter composes with the join.
	q2 := `SELECT count(*) FROM ahn2, ua
	       WHERE ua.class = '12210'
	         AND ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 30)
	         AND classification = 2`
	res2 := mustQuery(t, e, q2)
	if res2.Rows()[0][0].Num > res.Rows()[0][0].Num {
		t.Fatal("extra filter must narrow")
	}
}

func TestJoinErrors(t *testing.T) {
	e, _, _, _ := testDB(t)
	// Join without spatial predicate.
	if _, err := e.QueryContext(context.Background(), "SELECT count(*) FROM ahn2, ua WHERE ua.class = 'x'"); err == nil {
		t.Fatal("join without spatial predicate should fail")
	}
	// Three tables.
	if _, err := e.QueryContext(context.Background(), "SELECT count(*) FROM ahn2, ua, osm"); err == nil {
		t.Fatal("three tables should fail")
	}
	// Unknown table.
	if _, err := e.QueryContext(context.Background(), "SELECT * FROM nope"); err == nil {
		t.Fatal("unknown table should fail")
	}
}

func TestGenericFallbackPredicates(t *testing.T) {
	e, pc, _, _ := testDB(t)
	// OR of thematic predicates is not an accelerable conjunct; the generic
	// evaluator must still produce correct results.
	res := mustQuery(t, e, "SELECT count(*) FROM ahn2 WHERE classification = 9 OR classification = 2")
	want := 0
	cls := pc.Column(engine.ColClassification)
	for i := 0; i < pc.Len(); i++ {
		if v := cls.Value(i); v == 9 || v == 2 {
			want++
		}
	}
	if int(res.Rows()[0][0].Num) != want {
		t.Fatalf("or filter = %v, want %d", res.Rows()[0][0].Num, want)
	}
	// Arithmetic in predicates and projections.
	res2 := mustQuery(t, e, "SELECT z * 2 AS zz FROM ahn2 WHERE z + 1 > 100 LIMIT 5")
	for _, r := range res2.Rows() {
		if r[0].Num <= 198 {
			t.Fatal("arithmetic predicate wrong")
		}
	}
	// NOT.
	res3 := mustQuery(t, e, "SELECT count(*) FROM ahn2 WHERE NOT classification = 9")
	res4 := mustQuery(t, e, "SELECT count(*) FROM ahn2 WHERE classification <> 9")
	if res3.Rows()[0][0].Num != res4.Rows()[0][0].Num {
		t.Fatal("NOT and <> disagree")
	}
}

func TestScalarFunctions(t *testing.T) {
	e, _, _, _ := testDB(t)
	res := mustQuery(t, e, "SELECT ST_X(ST_Point(3, 4)), ST_Y(ST_Point(3, 4)), ST_Area(ST_MakeEnvelope(0, 0, 2, 3)), abs(-5) FROM osm LIMIT 1")
	r := res.Rows()[0]
	if r[0].Num != 3 || r[1].Num != 4 || r[2].Num != 6 || r[3].Num != 5 {
		t.Fatalf("scalar functions = %v", r)
	}
	res2 := mustQuery(t, e, "SELECT ST_AsText(ST_Point(1, 2)) FROM osm LIMIT 1")
	if res2.Rows()[0][0].Str != "POINT (1 2)" {
		t.Fatalf("st_astext = %q", res2.Rows()[0][0].Str)
	}
	res3 := mustQuery(t, e, "SELECT ST_Distance(ST_Point(0, 0), ST_Point(3, 4)) FROM osm LIMIT 1")
	if res3.Rows()[0][0].Num != 5 {
		t.Fatal("st_distance wrong")
	}
	if _, err := e.QueryContext(context.Background(), "SELECT nosuchfunc(1) FROM osm"); err == nil {
		t.Fatal("unknown function should fail")
	}
}

func TestValueStringRendering(t *testing.T) {
	if numVal(1.5).String() != "1.5" || strVal("a").String() != "a" {
		t.Fatal("value strings wrong")
	}
	if boolVal(true).String() != "true" || (Value{}).String() != "NULL" {
		t.Fatal("bool/null strings wrong")
	}
	if geomVal(geom.Point{X: 1, Y: 2}).String() != "POINT (1 2)" {
		t.Fatal("geom string wrong")
	}
}

// TestJoinWithNoMatchingFeaturesIsEmpty is a regression test: a spatial
// join whose vector-side filter selects zero features must return zero
// points, not the whole cloud (a nil selection vector means "all rows" to
// FilterRows, so the engine's empty selections must stay non-nil).
func TestJoinWithNoMatchingFeaturesIsEmpty(t *testing.T) {
	e, _, _, _ := testDB(t)
	res := mustQuery(t, e, `SELECT count(*) FROM ahn2, ua
		WHERE ua.class = 'no_such_class' AND ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 20)`)
	if n := res.Rows()[0][0].Num; n != 0 {
		t.Fatalf("join over zero features matched %v points, want 0", n)
	}
	// Same shape through the containment join.
	res = mustQuery(t, e, `SELECT count(*) FROM ahn2, ua
		WHERE ua.class = 'no_such_class' AND ST_Contains(ua.geom, ST_Point(ahn2.x, ahn2.y))`)
	if n := res.Rows()[0][0].Num; n != 0 {
		t.Fatalf("containment join over zero features matched %v points, want 0", n)
	}
}
