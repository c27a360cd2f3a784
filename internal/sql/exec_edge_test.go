package sql

import (
	"context"
	"strings"
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/grid"
)

func TestOrderByOnPointCloud(t *testing.T) {
	e, _, _, _ := testDB(t)
	res := mustQuery(t, e,
		"SELECT z FROM ahn2 WHERE ST_Contains(ST_MakeEnvelope(0, 0, 300, 300), ST_Point(x, y)) ORDER BY z DESC LIMIT 10")
	if res.Len() == 0 {
		t.Fatal("no rows")
	}
	for i := 1; i < res.Len(); i++ {
		if res.Cols[0].Nums[i-1] < res.Cols[0].Nums[i] {
			t.Fatal("descending order violated")
		}
	}
}

func TestStarOnPointCloud(t *testing.T) {
	e, pc, _, _ := testDB(t)
	res := mustQuery(t, e, "SELECT * FROM ahn2 LIMIT 2")
	if len(res.Columns) != len(pc.Schema().Fields) {
		t.Fatalf("star expanded to %d columns", len(res.Columns))
	}
	if res.Len() != 2 {
		t.Fatalf("limit ignored: %d", res.Len())
	}
}

func TestSpatialPredicateVariants(t *testing.T) {
	e, pc, _, _ := testDB(t)
	box := geom.NewEnvelope(100, 100, 600, 600)
	want := len(pc.SelectRegionRows(grid.GeometryRegion{G: box.ToPolygon()}))
	variants := []string{
		"SELECT count(*) FROM ahn2 WHERE ST_Contains(ST_MakeEnvelope(100,100,600,600), ST_Point(x, y))",
		"SELECT count(*) FROM ahn2 WHERE ST_Within(ST_Point(x, y), ST_MakeEnvelope(100,100,600,600))",
		"SELECT count(*) FROM ahn2 WHERE ST_Intersects(ST_MakeEnvelope(100,100,600,600), ST_Point(x, y))",
		"SELECT count(*) FROM ahn2 WHERE ST_Intersects(ST_Point(x, y), ST_MakeEnvelope(100,100,600,600))",
		"SELECT count(*) FROM ahn2 WHERE ST_Covers(ST_MakeEnvelope(100,100,600,600), ST_Point(x, y))",
	}
	for _, q := range variants {
		res := mustQuery(t, e, q)
		if int(res.Rows()[0][0].Num) != want {
			t.Fatalf("%s: %v, want %d", q, res.Rows()[0][0].Num, want)
		}
	}
}

func TestJoinContainmentVariants(t *testing.T) {
	e, _, _, _ := testDB(t)
	a := mustQuery(t, e, `SELECT count(*) FROM ahn2, ua
		WHERE ua.class = '11100' AND ST_Contains(ua.geom, ST_Point(ahn2.x, ahn2.y))`)
	b := mustQuery(t, e, `SELECT count(*) FROM ahn2, ua
		WHERE ua.class = '11100' AND ST_Within(ST_Point(ahn2.x, ahn2.y), ua.geom)`)
	c := mustQuery(t, e, `SELECT count(*) FROM ahn2, ua
		WHERE ua.class = '11100' AND ST_Intersects(ua.geom, ST_Point(ahn2.x, ahn2.y))`)
	if a.Rows()[0][0].Num != b.Rows()[0][0].Num || a.Rows()[0][0].Num != c.Rows()[0][0].Num {
		t.Fatalf("containment variants disagree: %v %v %v",
			a.Rows()[0][0].Num, b.Rows()[0][0].Num, c.Rows()[0][0].Num)
	}
}

func TestArithmeticErrors(t *testing.T) {
	e, _, _, _ := testDB(t)
	if _, err := e.QueryContext(context.Background(), "SELECT 1/0 FROM osm LIMIT 1"); err == nil {
		t.Fatal("division by zero should fail")
	}
	if _, err := e.QueryContext(context.Background(), "SELECT 1 % 0 FROM osm LIMIT 1"); err == nil {
		t.Fatal("modulo by zero should fail")
	}
	if _, err := e.QueryContext(context.Background(), "SELECT 'a' + 1 FROM osm LIMIT 1"); err == nil {
		t.Fatal("string arithmetic should fail")
	}
	if _, err := e.QueryContext(context.Background(), "SELECT name FROM osm WHERE name BETWEEN 1 AND 2"); err == nil {
		t.Fatal("string BETWEEN should fail")
	}
}

func TestStringComparisons(t *testing.T) {
	e, _, _, _ := testDB(t)
	res := mustQuery(t, e, "SELECT count(*) FROM osm WHERE class >= 'r'")
	res2 := mustQuery(t, e, "SELECT count(*) FROM osm WHERE class < 'r'")
	all := mustQuery(t, e, "SELECT count(*) FROM osm")
	if res.Rows()[0][0].Num+res2.Rows()[0][0].Num != all.Rows()[0][0].Num {
		t.Fatal("string comparison partition broken")
	}
}

func TestModuloAndUnaryMinus(t *testing.T) {
	e, _, _, _ := testDB(t)
	res := mustQuery(t, e, "SELECT 7 % 3, -4 + 1 FROM osm LIMIT 1")
	if res.Rows()[0][0].Num != 1 || res.Rows()[0][1].Num != -3 {
		t.Fatalf("arithmetic = %v", res.Rows()[0])
	}
}

func TestBooleanLiterals(t *testing.T) {
	e, _, _, _ := testDB(t)
	res := mustQuery(t, e, "SELECT count(*) FROM osm WHERE TRUE")
	all := mustQuery(t, e, "SELECT count(*) FROM osm")
	if res.Rows()[0][0].Num != all.Rows()[0][0].Num {
		t.Fatal("WHERE TRUE should keep everything")
	}
	res2 := mustQuery(t, e, "SELECT count(*) FROM osm WHERE FALSE")
	if res2.Rows()[0][0].Num != 0 {
		t.Fatal("WHERE FALSE should keep nothing")
	}
	res3 := mustQuery(t, e, "SELECT TRUE = TRUE, TRUE <> FALSE FROM osm LIMIT 1")
	if !res3.Rows()[0][0].Bool || !res3.Rows()[0][1].Bool {
		t.Fatal("boolean comparisons wrong")
	}
}

func TestQualifiedColumnsAndAliases(t *testing.T) {
	e, _, _, _ := testDB(t)
	res := mustQuery(t, e, "SELECT a.z FROM ahn2 AS a WHERE a.z > 0 LIMIT 1")
	if res.Len() != 1 || res.Rows()[0][0].Num <= 0 {
		t.Fatalf("qualified select = %v", res.Rows())
	}
	// Bare alias (no AS).
	res2 := mustQuery(t, e, "SELECT b.class FROM osm b LIMIT 1")
	if res2.Len() != 1 {
		t.Fatal("bare alias failed")
	}
	// Unknown qualifier.
	if _, err := e.QueryContext(context.Background(), "SELECT nosuch.z FROM ahn2 LIMIT 1"); err == nil {
		t.Fatal("unknown qualifier should fail")
	}
}

func TestCountRequiresArgument(t *testing.T) {
	e, _, _, _ := testDB(t)
	if _, err := e.QueryContext(context.Background(), "SELECT count() FROM ahn2"); err == nil {
		t.Fatal("count() should fail")
	}
	// count(column) counts rows with numeric values.
	res := mustQuery(t, e, "SELECT count(z) FROM ahn2")
	all := mustQuery(t, e, "SELECT count(*) FROM ahn2")
	if res.Rows()[0][0].Num != all.Rows()[0][0].Num {
		t.Fatal("count(z) should equal count(*) on a dense column")
	}
}

func TestExplainSurfacesAcceleratedJoin(t *testing.T) {
	e, _, _, _ := testDB(t)
	res := mustQuery(t, e, `SELECT count(*) FROM ahn2, ua
		WHERE ua.class = '12210' AND ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 20)`)
	trace := res.Explain.String()
	for _, op := range []string{"filter.class", "join.collect", "imprints.filter", "grid.refine"} {
		if !strings.Contains(trace, op) {
			t.Fatalf("trace missing %s:\n%s", op, trace)
		}
	}
}

func TestVectorOrderByNumericAttr(t *testing.T) {
	e, _, _, _ := testDB(t)
	res := mustQuery(t, e, "SELECT pop_density FROM ua ORDER BY pop_density LIMIT 5")
	for i := 1; i < res.Len(); i++ {
		if res.Cols[0].Value(i-1).Num > res.Cols[0].Value(i).Num {
			t.Fatal("ascending order violated")
		}
	}
}
