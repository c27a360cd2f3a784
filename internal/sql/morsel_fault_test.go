//go:build faultinject

package sql

import (
	"context"
	"errors"
	"testing"
	"time"

	"gisnav/internal/engine"
	"gisnav/internal/faultpoint"
)

// Armed-build tests for the morsel fan-out behind the SQL layer: with a
// table past the parallel crossover and an executor degree cap set
// (morselTestDB, morsel_test.go), a worker panic must surface as a
// *QueryError (the next run answers exactly from the same plan), and a
// merge error as a plain error — both with the pool accounting at
// pre-query values.

// morselDrift runs fn and returns the summed drift of every pool the
// parallel paths draw from (selection vectors, candidate ranges, f64
// scratch — the grouped merge uses all three).
func morselDrift(t *testing.T, fn func()) int64 {
	t.Helper()
	before := engine.SelectionPoolStats().Outstanding +
		engine.RangePoolStats().Outstanding +
		engine.F64PoolStats().Outstanding
	fn()
	return engine.SelectionPoolStats().Outstanding +
		engine.RangePoolStats().Outstanding +
		engine.F64PoolStats().Outstanding - before
}

func TestFaultMorselWorkerPanicRecovers(t *testing.T) {
	e := morselTestDB(t)
	for name, q := range morselQueries {
		t.Run(name, func(t *testing.T) {
			t.Cleanup(faultpoint.Reset)
			want := mustQuery(t, e, q).Rows() // pre-panic truth
			before := e.ExecStats().Panicked

			// After: 1 lets one partition through so siblings hold partial
			// buffers when the panic fires.
			faultpoint.Arm("engine.morsel.worker", faultpoint.Action{Panic: "morsel fault", After: 1})
			delta := morselDrift(t, func() {
				res, err := e.QueryContext(context.Background(), q)
				if res != nil {
					t.Fatal("panicked query returned a result")
				}
				var qe *QueryError
				if !errors.As(err, &qe) {
					t.Fatalf("err = %v (%T), want *QueryError", err, err)
				}
				if qe.Panic != "morsel fault" {
					t.Fatalf("recovered %v, want the armed panic value", qe.Panic)
				}
			})
			if delta != 0 {
				t.Fatalf("morsel worker panic drifted pools by %d", delta)
			}
			if faultpoint.HitCount("engine.morsel.worker") == 0 {
				t.Fatalf("query %q never fanned out — worker point not hit", q)
			}
			if got := e.ExecStats().Panicked; got != before+1 {
				t.Fatalf("Panicked = %d, want %d", got, before+1)
			}

			// The next run serves the cached plan and matches the
			// pre-panic truth exactly.
			faultpoint.Disarm("engine.morsel.worker")
			res, err := e.QueryContext(context.Background(), q)
			if err != nil {
				t.Fatalf("post-panic run: %v", err)
			}
			if res.Len() != len(want) {
				t.Fatalf("post-panic run: %d rows, want %d", res.Len(), len(want))
			}
			for i := range want {
				for j := range want[i] {
					if got := res.Cols[j].Value(i).String(); got != want[i][j].String() {
						t.Fatalf("post-panic row %d col %d = %s, want %s", i, j, got, want[i][j].String())
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

func TestFaultMorselMergeErrorSurfaces(t *testing.T) {
	e := morselTestDB(t)
	for name, q := range morselQueries {
		t.Run(name, func(t *testing.T) {
			t.Cleanup(faultpoint.Reset)
			mustQuery(t, e, q) // warm: plan cached, pools primed
			faultpoint.Arm("engine.morsel.merge", faultpoint.Action{Err: errInjected})
			delta := morselDrift(t, func() {
				_, err := e.QueryContext(context.Background(), q)
				if !errors.Is(err, errInjected) {
					t.Fatalf("err = %v, want the injected merge fault", err)
				}
			})
			if delta != 0 {
				t.Fatalf("morsel merge error drifted pools by %d", delta)
			}
			if faultpoint.HitCount("engine.morsel.merge") == 0 {
				t.Fatalf("query %q never fanned out — merge point not hit", q)
			}
			faultpoint.Disarm("engine.morsel.merge")
			mustQuery(t, e, q) // the executor recovers without replumbing
		})
	}
}

// TestFaultMorselSerialUnderCap pins the degree plumbing itself: with the
// executor capped at 1 the same statements must never reach the morsel
// points, so a panic armed there cannot fire.
func TestFaultMorselSerialUnderCap(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	e := morselTestDB(t)
	e.SetParallelism(1)
	faultpoint.Arm("engine.morsel.worker", faultpoint.Action{Panic: "should not fan out"})
	faultpoint.Arm("engine.morsel.merge", faultpoint.Action{Err: errInjected})
	for _, q := range morselQueries {
		mustQuery(t, e, q)
	}
	if n := faultpoint.HitCount("engine.morsel.worker"); n != 0 {
		t.Fatalf("serial cap still hit the worker point %d times", n)
	}
}

// TestFaultPipelineProducerPanic arms the filter kernel's block point to
// panic mid-way through the pipelined GROUP BY at degree 2. The consumer's
// fold is slowed per block, so the producer runs ahead and is the one
// filtering when the point fires; whichever partition it hits, the
// consumer must not wait on a morsel that will never be published. The
// run returns a *QueryError without hanging, with pool accounting at
// pre-query values, and the statement's next run matches a fresh
// Prepare.
func TestFaultPipelineProducerPanic(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	e := morselTestDB(t)
	e.SetParallelism(2)
	q := morselQueries["piped"]
	mustQuery(t, e, q) // warm: plan cached, pools primed

	faultpoint.Arm("engine.groupagg.block", faultpoint.Action{Delay: 5 * time.Millisecond})
	faultpoint.Arm("engine.kernel.chunk", faultpoint.Action{Panic: "producer fault", After: 40})
	delta := morselDrift(t, func() {
		var err error
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			_, err = e.QueryContext(context.Background(), q)
		}()
		select {
		case <-finished:
		case <-time.After(30 * time.Second):
			t.Fatal("pipelined query hung after a partition panic")
		}
		var qe *QueryError
		if !errors.As(err, &qe) || qe.Panic != "producer fault" {
			t.Fatalf("err = %v (%T), want a *QueryError carrying the armed panic", err, err)
		}
	})
	if delta != 0 {
		t.Fatalf("producer panic drifted pools by %d", delta)
	}
	faultpoint.Reset()

	res := mustQuery(t, e, q)
	fresh, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resultRowsEqual(t, "post-panic run vs fresh Prepare", res, want)
}
