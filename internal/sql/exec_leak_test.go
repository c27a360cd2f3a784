package sql

import (
	"context"
	"math"
	"strings"
	"testing"

	"gisnav/internal/engine"
)

// Pool-accounting regression tests: every engine-owned selection vector a
// query draws must return to the pool on every exit path, including errors
// raised after the spatial step. Outstanding counts pool gets minus
// recycles, so a closed workload must leave it unchanged.

// outstandingDelta runs fn and returns the selection-pool drift it caused.
func outstandingDelta(t *testing.T, fn func()) int64 {
	t.Helper()
	before := engine.SelectionPoolStats().Outstanding
	fn()
	return engine.SelectionPoolStats().Outstanding - before
}

func TestNoVectorLeakOnGenericFilterError(t *testing.T) {
	e, _, _, _ := testDB(t)
	// The region selects rows (engine-owned pooled vector), then the
	// unknown column makes the generic conjunct fail row evaluation.
	q := `SELECT count(*) FROM ahn2
	      WHERE ST_Contains(ST_MakeEnvelope(0, 0, 1500, 1500), ST_Point(x, y))
	        AND nosuchcol > 1`
	delta := outstandingDelta(t, func() {
		if _, err := e.QueryContext(context.Background(), q); err == nil || !strings.Contains(err.Error(), "unknown column") {
			t.Fatalf("want unknown-column error, got %v", err)
		}
	})
	if delta != 0 {
		t.Fatalf("generic-filter error leaked %d pooled vectors", delta)
	}
}

func TestNoVectorLeakOnCompiledFilterError(t *testing.T) {
	e, _, _, _ := testDB(t)
	// Compiled conjunct with a runtime division-by-zero.
	q := `SELECT count(*) FROM ahn2
	      WHERE ST_Contains(ST_MakeEnvelope(0, 0, 1500, 1500), ST_Point(x, y))
	        AND z / (classification - classification) > 1`
	delta := outstandingDelta(t, func() {
		if _, err := e.QueryContext(context.Background(), q); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("want division-by-zero error, got %v", err)
		}
	})
	if delta != 0 {
		t.Fatalf("compiled-filter error leaked %d pooled vectors", delta)
	}
}

func TestNoVectorLeakOnJoinGenericError(t *testing.T) {
	e, _, _, _ := testDB(t)
	// The spatial join produces engine-owned rows; the point-side generic
	// conjunct then errors.
	q := `SELECT count(*) FROM ahn2, ua
	      WHERE ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 30)
	        AND st_x(ST_Point(ahn2.x, ahn2.y)) / (ahn2.classification - ahn2.classification) > 1`
	delta := outstandingDelta(t, func() {
		if _, err := e.QueryContext(context.Background(), q); err == nil {
			t.Fatal("want an error from the point-side conjunct")
		}
	})
	if delta != 0 {
		t.Fatalf("join error path leaked %d pooled vectors", delta)
	}
}

func TestNoVectorLeakOnSuccess(t *testing.T) {
	e, _, _, _ := testDB(t)
	q := `SELECT count(*) FROM ahn2
	      WHERE ST_Contains(ST_MakeEnvelope(0, 0, 1500, 1500), ST_Point(x, y))
	        AND classification = 2 AND z - intensity < 1000`
	delta := outstandingDelta(t, func() {
		mustQuery(t, e, q)
	})
	if delta != 0 {
		t.Fatalf("successful query leaked %d pooled vectors", delta)
	}
}

// TestJoinVTIntersectsFastPath verifies the join's vector phase routes
// ST_Intersects(geom, <const>) through the R-tree (visible as a
// vector.intersects step) instead of the row-wise interpreter, and agrees
// with the interpreter on the result.
func TestJoinVTIntersectsFastPath(t *testing.T) {
	e, _, _, _ := testDB(t)
	q := `SELECT count(*) FROM ahn2, ua
	      WHERE ST_Intersects(ua.geom, ST_MakeEnvelope(0, 0, 900, 900))
	        AND ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 25)`
	res := mustQuery(t, e, q)
	var sawRtree bool
	for _, s := range res.Explain.Steps {
		if s.Op == "vector.intersects" {
			sawRtree = true
		}
		if s.Op == "filter.generic" && strings.Contains(s.Detail, "st_intersects") {
			t.Fatalf("vt-side ST_Intersects fell to the interpreter: %+v", s)
		}
	}
	if !sawRtree {
		t.Fatalf("no vector.intersects step in join trace: %+v", res.Explain.Steps)
	}

	// Same query with the geometry argument order flipped still hits it.
	flipped := mustQuery(t, e, `SELECT count(*) FROM ahn2, ua
	      WHERE ST_Intersects(ST_MakeEnvelope(0, 0, 900, 900), ua.geom)
	        AND ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 25)`)
	if res.Rows()[0][0].Num != flipped.Rows()[0][0].Num {
		t.Fatalf("flipped argument order changed the count: %v vs %v",
			res.Rows()[0][0].Num, flipped.Rows()[0][0].Num)
	}
}

// TestSQLDWithinBadDistances covers the SQL surface of the distance
// edge-case hardening: scalar form, accelerated region form, and join form
// must all yield zero rows (not errors, not full tables) for negative, NaN
// and infinite distances.
func TestSQLDWithinBadDistances(t *testing.T) {
	e, _, _, _ := testDB(t)
	// 1e308 * 10 overflows to +Inf in float64 arithmetic.
	for _, d := range []string{"-5", "(0 - 1) * 10", "1e308 * 10", "0 - 1e308 * 10"} {
		q := `SELECT count(*) FROM ahn2
		      WHERE ST_DWithin(ST_GeomFromText('LINESTRING (0 1000, 2000 1000)'), ST_Point(x, y), ` + d + `)`
		res := mustQuery(t, e, q)
		if got := res.Rows()[0][0].Num; got != 0 {
			t.Fatalf("pc DWithin d=%s matched %g rows, want 0", d, got)
		}

		jq := `SELECT count(*) FROM ahn2, ua
		       WHERE ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), ` + d + `)`
		res = mustQuery(t, e, jq)
		if got := res.Rows()[0][0].Num; got != 0 {
			t.Fatalf("join DWithin d=%s matched %g rows, want 0", d, got)
		}
	}

	// Double-check the overflow trick produced the infinity the loop above
	// claims to exercise.
	v := mustQuery(t, e, "SELECT 1e308 * 10 FROM ua LIMIT 1")
	if !math.IsInf(v.Rows()[0][0].Num, 1) {
		t.Fatalf("1e308 * 10 evaluated to %v, want +Inf", v.Rows()[0][0].Num)
	}

	// Empty geometry through WKT: zero matches, no error.
	res := mustQuery(t, e, `SELECT count(*) FROM ahn2
	      WHERE ST_DWithin(ST_GeomFromText('POLYGON EMPTY'), ST_Point(x, y), 100)`)
	if got := res.Rows()[0][0].Num; got != 0 {
		t.Fatalf("empty geometry DWithin matched %g rows, want 0", got)
	}
}

// TestSQLInfiniteEnvelopeContains: an envelope with an infinite side
// contains every point of the table, whichever side is infinite — the
// ray cast's crossing of a vertical edge at ±Inf is that edge's abscissa.
func TestSQLInfiniteEnvelopeContains(t *testing.T) {
	e, pc, _, _ := testDB(t)
	for _, box := range []string{"0, 0, 1e308 * 10, 2000", "0 - 1e308 * 10, 0, 2000, 2000"} {
		res := mustQuery(t, e, "SELECT count(*) FROM ahn2 WHERE ST_Contains(ST_MakeEnvelope("+box+"), ST_Point(x, y))")
		if got := res.Rows()[0][0].Num; got != float64(pc.Len()) || got != 46947 {
			t.Fatalf("ST_MakeEnvelope(%s) contains %g rows, want all %d (46947)", box, got, pc.Len())
		}
	}
}
