package sql

import (
	"context"
	"math"
	"testing"

	"gisnav/internal/engine"
)

func TestGroupByClassification(t *testing.T) {
	e, pc, _, _ := testDB(t)
	res := mustQuery(t, e,
		"SELECT classification, count(*) AS n, avg(z) AS mean_z FROM ahn2 GROUP BY classification")
	if len(res.Columns) != 3 || res.Columns[1] != "n" {
		t.Fatalf("columns = %v", res.Columns)
	}
	// Reference aggregation.
	cls := pc.Column(engine.ColClassification)
	counts := map[float64]int{}
	sums := map[float64]float64{}
	for i := 0; i < pc.Len(); i++ {
		c := cls.Value(i)
		counts[c]++
		sums[c] += pc.Z()[i]
	}
	if res.Len() != len(counts) {
		t.Fatalf("groups = %d, want %d", res.Len(), len(counts))
	}
	total := 0
	for _, row := range res.Rows() {
		c := row[0].Num
		n := int(row[1].Num)
		if counts[c] != n {
			t.Fatalf("class %v: count %d, want %d", c, n, counts[c])
		}
		wantAvg := sums[c] / float64(counts[c])
		if math.Abs(row[2].Num-wantAvg) > 1e-9 {
			t.Fatalf("class %v: avg %v, want %v", c, row[2].Num, wantAvg)
		}
		total += n
	}
	if total != pc.Len() {
		t.Fatalf("group counts sum to %d, want %d", total, pc.Len())
	}
	// Output is ordered by key value (ascending numeric since PR 5; the
	// pre-vectorization tail sorted by key STRING, which put 10 before 2).
	for i := 1; i < res.Len(); i++ {
		if res.Cols[0].Nums[i-1] >= res.Cols[0].Nums[i] {
			t.Fatal("groups not key-ordered")
		}
	}
}

func TestGroupByWithWhereAndOrderLimit(t *testing.T) {
	e, _, _, _ := testDB(t)
	res := mustQuery(t, e, `
		SELECT classification, count(*) AS n
		FROM ahn2
		WHERE z > 0
		GROUP BY classification
		ORDER BY n DESC
		LIMIT 3`)
	if res.Len() > 3 {
		t.Fatalf("limit ignored: %d rows", res.Len())
	}
	for i := 1; i < res.Len(); i++ {
		if res.Cols[1].Nums[i-1] < res.Cols[1].Nums[i] {
			t.Fatal("order by n desc violated")
		}
	}
}

func TestGroupByVectorTable(t *testing.T) {
	e, _, _, ua := testDB(t)
	res := mustQuery(t, e,
		"SELECT class, count(*) AS zones, avg(pop_density) AS density FROM ua GROUP BY class")
	// Reference.
	counts := map[string]int{}
	for i := 0; i < ua.Len(); i++ {
		counts[ua.Class(i)]++
	}
	if res.Len() != len(counts) {
		t.Fatalf("groups = %d, want %d", res.Len(), len(counts))
	}
	for _, row := range res.Rows() {
		if counts[row[0].Str] != int(row[1].Num) {
			t.Fatalf("class %s: %v vs %d", row[0].Str, row[1].Num, counts[row[0].Str])
		}
	}
}

func TestGroupByExpressionsAndAliases(t *testing.T) {
	e, _, _, _ := testDB(t)
	// Group on a computed bucket (floor via integer-ish arithmetic is not
	// available; use z-range buckets through comparison-free arithmetic).
	res := mustQuery(t, e,
		"SELECT number_of_returns, max(z) FROM ahn2 GROUP BY number_of_returns")
	if res.Len() < 1 {
		t.Fatal("no groups")
	}
	// Alias used in GROUP BY.
	res2 := mustQuery(t, e,
		"SELECT classification AS cls, count(*) FROM ahn2 GROUP BY cls")
	if res2.Len() < 2 {
		t.Fatal("alias grouping failed")
	}
	// A bare item naming the underlying column of an aliased key must
	// classify as that key (select items match the RESOLVED key list).
	res3 := mustQuery(t, e,
		"SELECT classification AS cls, classification, count(*) FROM ahn2 GROUP BY cls")
	for _, row := range res3.Rows() {
		if row[0].Num != row[1].Num {
			t.Fatalf("aliased and bare key diverge: %v vs %v", row[0], row[1])
		}
	}
}

func TestGroupByErrors(t *testing.T) {
	e, _, _, _ := testDB(t)
	// Non-grouped bare column.
	if _, err := e.QueryContext(context.Background(), "SELECT z, count(*) FROM ahn2 GROUP BY classification"); err == nil {
		t.Fatal("bare non-key column should fail")
	}
	// ORDER BY something that is not a select item.
	if _, err := e.QueryContext(context.Background(), "SELECT classification, count(*) FROM ahn2 GROUP BY classification ORDER BY z"); err == nil {
		t.Fatal("order by non-item should fail")
	}
	// Aggregate of a string.
	if _, err := e.QueryContext(context.Background(), "SELECT class, sum(name) FROM ua GROUP BY class"); err == nil {
		t.Fatal("sum of string should fail")
	}
	// Parser: GROUP without BY.
	if _, err := Parse("SELECT a FROM t GROUP a"); err == nil {
		t.Fatal("GROUP without BY should fail")
	}
}

func TestGroupByJoin(t *testing.T) {
	e, pc, _, ua := testDB(t)
	// Per-classification breakdown of points near fast transit zones.
	res := mustQuery(t, e, `
		SELECT classification, count(*) AS n
		FROM ahn2, ua
		WHERE ua.class = '12210'
		  AND ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 30)
		GROUP BY classification`)
	// Cross-check totals against the ungrouped join.
	resTotal := mustQuery(t, e, `
		SELECT count(*) FROM ahn2, ua
		WHERE ua.class = '12210'
		  AND ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 30)`)
	sum := 0.0
	for _, row := range res.Rows() {
		sum += row[1].Num
	}
	if sum != resTotal.Rows()[0][0].Num {
		t.Fatalf("grouped sum %v != total %v", sum, resTotal.Rows()[0][0].Num)
	}
	_ = pc
	_ = ua
}

func TestGroupByStatementString(t *testing.T) {
	stmt, err := Parse("SELECT classification, count(*) FROM ahn2 GROUP BY classification ORDER BY classification LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(stmt.String()); err != nil {
		t.Fatalf("canonical grouped form reparse: %v", err)
	}
}
