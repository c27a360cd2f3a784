//go:build faultinject

package sql

import (
	"context"
	"errors"
	"testing"
	"time"

	"gisnav/internal/faultpoint"
)

// Armed-build tests for the query lifecycle: injected errors and panics at
// real kernel boundaries must surface as typed errors with the pool
// accounting at pre-query values, and a panicked statement's next run must
// answer exactly, from the plan it already had.

// faultQueries routes a query shape through each error-capable fault
// point. The filter query needs a thematic predicate (engine.filter.block
// fires per predicate kernel); the grouped query drives the
// grouped-aggregate passes; the plain aggregate covers the sql-layer
// points on every shape.
var faultQueries = map[string]string{
	"engine.filter.block":  "SELECT count(*) FROM ahn2 WHERE classification = 2 AND z > 5",
	"engine.groupagg.pass": "SELECT classification, count(*), avg(z) FROM ahn2 GROUP BY classification",
	"sql.run.filter":       lcQuery,
	"sql.run.output":       lcQuery,
}

var errInjected = errors.New("injected fault")

func TestFaultInjectedErrors(t *testing.T) {
	e, _, _, _ := testDB(t)
	for point, q := range faultQueries {
		t.Run(point, func(t *testing.T) {
			t.Cleanup(faultpoint.Reset)
			mustQuery(t, e, q) // warm: plan cached, pools primed
			faultpoint.Arm(point, faultpoint.Action{Err: errInjected})
			delta := outstandingDelta(t, func() {
				_, err := e.QueryContext(context.Background(), q)
				if !errors.Is(err, errInjected) {
					t.Fatalf("err = %v, want the injected fault", err)
				}
			})
			if delta != 0 {
				t.Fatalf("injected error at %s drifted pool by %d", point, delta)
			}
			if faultpoint.HitCount(point) == 0 {
				t.Fatalf("point %s never hit — the query does not route through it", point)
			}
			faultpoint.Disarm(point)
			mustQuery(t, e, q) // the executor recovers without replumbing
		})
	}
}

// panicPoints adds the loop-embedded points that cannot return errors but
// can still panic: the typed-kernel chunk loop (hit by thematic predicate
// kernels under FilterRows) and the spatial refinement entry.
var panicPoints = map[string]string{
	"engine.filter.block":  faultQueries["engine.filter.block"],
	"engine.groupagg.pass": faultQueries["engine.groupagg.pass"],
	"engine.kernel.chunk":  faultQueries["engine.filter.block"],
	"engine.select.refine": lcQuery,
	"sql.run.filter":       lcQuery,
	"sql.run.output":       lcQuery,
}

func TestFaultPanicIsolation(t *testing.T) {
	e, _, _, _ := testDB(t)
	for point, q := range panicPoints {
		t.Run(point, func(t *testing.T) {
			t.Cleanup(faultpoint.Reset)
			want := mustQuery(t, e, q).Rows() // pre-panic truth
			before := e.ExecStats().Panicked

			faultpoint.Arm(point, faultpoint.Action{Panic: "kernel fault at " + point})
			delta := outstandingDelta(t, func() {
				res, err := e.QueryContext(context.Background(), q)
				if res != nil {
					t.Fatal("panicked query returned a result")
				}
				var qe *QueryError
				if !errors.As(err, &qe) {
					t.Fatalf("err = %v (%T), want *QueryError", err, err)
				}
				if qe.Panic != "kernel fault at "+point {
					t.Fatalf("recovered %v, want the armed panic value", qe.Panic)
				}
				if len(qe.Stack) == 0 {
					t.Fatal("no stack captured at recovery")
				}
			})
			if delta != 0 {
				t.Fatalf("mid-kernel panic at %s drifted pool by %d", point, delta)
			}
			if got := e.ExecStats().Panicked; got != before+1 {
				t.Fatalf("Panicked = %d, want %d", got, before+1)
			}

			// The process survived; disarmed, the statement runs its
			// cached plan — a run writes nothing a panic could tear —
			// and the result matches the pre-panic run exactly.
			faultpoint.Disarm(point)
			res, err := e.QueryContext(context.Background(), q)
			if err != nil {
				t.Fatalf("post-panic run: %v", err)
			}
			if res.Len() != len(want) {
				t.Fatalf("post-panic run: %d rows, want %d", res.Len(), len(want))
			}
			for i := range want {
				for j := range want[i] {
					if got := res.Cols[j].Value(i).Num; got != want[i][j].Num {
						t.Fatalf("post-panic row %d col %d = %v, want %v", i, j, got, want[i][j].Num)
					}
				}
			}
			var origin string
			for _, s := range res.Explain.Steps {
				if s.Op == "plan" {
					origin = s.Detail
				}
			}
			if origin != originCached {
				t.Fatalf("post-panic plan origin = %q, want %q", origin, originCached)
			}
		})
	}
}

// TestFaultPostPanicEqualsFreshPrepare pins the after-panic contract at the
// PreparedQuery level: after a recovered panic, the next run must behave
// exactly like a freshly prepared statement, without planning again.
func TestFaultPostPanicEqualsFreshPrepare(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	e, _, _, _ := testDB(t)
	pq, err := e.Prepare(lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	faultpoint.Arm("sql.run.filter", faultpoint.Action{Panic: errInjected})
	_, perr := pq.RunContext(context.Background())
	var qe *QueryError
	if !errors.As(perr, &qe) {
		t.Fatalf("err = %v, want *QueryError", perr)
	}
	// A panic value that is itself an error unwraps through QueryError.
	if !errors.Is(perr, errInjected) {
		t.Fatal("QueryError does not unwrap the panicked error value")
	}
	faultpoint.Disarm("sql.run.filter")

	builds := e.builds.Load()
	postRes, err := runTraced(pq)
	if err != nil {
		t.Fatalf("post-panic run: %v", err)
	}
	if got := e.builds.Load() - builds; got != 0 || postRes.Explain.Steps[0].Detail != originPrepared {
		t.Fatalf("post-panic run planned %d times, origin %q; want its prepared plan", got, postRes.Explain.Steps[0].Detail)
	}
	fresh, err := e.Prepare(lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	freshRes, err := runTraced(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(postRes, freshRes) {
		t.Fatalf("post-panic run = %v, fresh prepare = %v", postRes.Rows(), freshRes.Rows())
	}
}

// TestFaultCancellationLatency bounds how long a cancelled query keeps
// running: with every compiled-kernel chunk stretched to 20ms, a ~40-chunk
// scan would take ~800ms uncancelled, but a 10ms deadline must stop it at
// the next chunk boundary — well under the full-scan time.
func TestFaultCancellationLatency(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	e, _, _, _ := testDB(t)
	q := panicPoints["engine.kernel.chunk"]
	mustQuery(t, e, q)

	const perChunk = 20 * time.Millisecond
	faultpoint.Arm("engine.kernel.chunk", faultpoint.Action{Delay: perChunk})
	// Clear the latency estimate so the gate admits the short deadline
	// instead of pre-shedding it (this test measures in-flight latency).
	e.gate.ewmaNs.Store(0)
	ctx, cancelCtx := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancelCtx()
	start := time.Now()
	_, err := e.QueryContext(ctx, q)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// One block past the deadline plus generous scheduling slack, still an
	// order of magnitude under the uncancelled scan.
	if elapsed > 200*time.Millisecond {
		t.Fatalf("cancelled scan ran %v; cancellation is not stopping within a block", elapsed)
	}
	hits := faultpoint.HitCount("engine.kernel.chunk")
	if hits == 0 {
		t.Fatal("kernel chunk point never hit")
	}
	if hits > 4 {
		t.Fatalf("cancelled scan still processed %d chunks, want <= 4", hits)
	}
}
