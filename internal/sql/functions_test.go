package sql

import (
	"context"
	"math"
	"testing"
)

func TestMeasureFunctions(t *testing.T) {
	e, _, _, _ := testDB(t)
	res := mustQuery(t, e, `
		SELECT ST_Length(ST_GeomFromText('LINESTRING (0 0, 3 4)')),
		       ST_Area(ST_MakeEnvelope(0, 0, 4, 5)),
		       ST_AsText(ST_Centroid(ST_MakeEnvelope(0, 0, 10, 10))),
		       ST_AsText(ST_Envelope(ST_GeomFromText('LINESTRING (1 2, 5 7)')))
		FROM osm LIMIT 1`)
	r := res.Rows()[0]
	if r[0].Num != 5 {
		t.Fatalf("st_length = %v", r[0])
	}
	if r[1].Num != 20 {
		t.Fatalf("st_area = %v", r[1])
	}
	if r[2].Str != "POINT (5 5)" {
		t.Fatalf("st_centroid = %v", r[2])
	}
	if r[3].Str != "POLYGON ((1 2, 5 2, 5 7, 1 7, 1 2))" {
		t.Fatalf("st_envelope = %v", r[3])
	}
}

func TestTotalRoadLengthByClass(t *testing.T) {
	e, _, osm, _ := testDB(t)
	res := mustQuery(t, e,
		"SELECT class, sum(ST_Length(geom)) AS total FROM osm GROUP BY class ORDER BY total DESC")
	if res.Len() < 3 {
		t.Fatalf("groups = %d", res.Len())
	}
	// Sanity: totals are positive for line classes and ordered.
	for i := 1; i < res.Len(); i++ {
		if res.Cols[1].Nums[i-1] < res.Cols[1].Nums[i] {
			t.Fatal("order by total desc violated")
		}
	}
	_ = osm
}

func TestConvexHullFunction(t *testing.T) {
	e, _, _, _ := testDB(t)
	res := mustQuery(t, e, `
		SELECT ST_Area(ST_ConvexHull(ST_GeomFromText('MULTIPOINT (0 0, 10 0, 10 10, 0 10, 5 5)')))
		FROM osm LIMIT 1`)
	if res.Rows()[0][0].Num != 100 {
		t.Fatalf("hull area = %v", res.Rows()[0][0])
	}
}

func TestFunctionArgValidation(t *testing.T) {
	e, _, _, _ := testDB(t)
	bad := []string{
		"SELECT ST_Length(5) FROM osm LIMIT 1",
		"SELECT ST_Centroid('not a geom') FROM osm LIMIT 1",
		"SELECT ST_Point(1) FROM osm LIMIT 1",
		"SELECT ST_DWithin(ST_Point(0,0), ST_Point(1,1)) FROM osm LIMIT 1",
		"SELECT ST_X(ST_MakeEnvelope(0,0,1,1)) FROM osm LIMIT 1",
	}
	for _, q := range bad {
		if _, err := e.QueryContext(context.Background(), q); err == nil {
			t.Errorf("query %q should fail", q)
		}
	}
}

func TestAvgZNearRiverWithMeasures(t *testing.T) {
	e, _, _, _ := testDB(t)
	// End-to-end: combine measures, join, group by in one statement.
	res := mustQuery(t, e, `
		SELECT classification, count(*) AS n, avg(z) AS mz
		FROM ahn2, osm
		WHERE osm.class = 'river'
		  AND ST_DWithin(osm.geom, ST_Point(ahn2.x, ahn2.y), 60)
		GROUP BY classification
		ORDER BY n DESC`)
	total := 0.0
	for _, row := range res.Rows() {
		total += row[1].Num
		if row[2].Kind == KindNum && math.IsNaN(row[2].Num) {
			t.Fatal("NaN average")
		}
	}
	resFlat := mustQuery(t, e, `
		SELECT count(*) FROM ahn2, osm
		WHERE osm.class = 'river'
		  AND ST_DWithin(osm.geom, ST_Point(ahn2.x, ahn2.y), 60)`)
	if total != resFlat.Rows()[0][0].Num {
		t.Fatalf("grouped total %v != flat count %v", total, resFlat.Rows()[0][0].Num)
	}
}
