package sql

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"gisnav/internal/geom"
	"gisnav/internal/synth"
)

// Lifecycle tests: context plumbing, admission control, ExecStats, and the
// concurrent cancel/invalidate stress the -race runs lean on. The panic
// isolation and cancellation-latency properties need armed fault points and
// live in fault_test.go (-tags faultinject).

const lcQuery = `SELECT count(*) FROM ahn2
	WHERE ST_Contains(ST_MakeEnvelope(150, 150, 1700, 1620), ST_Point(x, y))
	  AND classification = 2`

func TestQueryContextPreCancelled(t *testing.T) {
	e, _, _, _ := testDB(t)
	mustQuery(t, e, lcQuery) // warm the caches so the delta below is pure
	ctx, cancelCtx := context.WithCancel(context.Background())
	cancelCtx()
	before := e.ExecStats()
	delta := outstandingDelta(t, func() {
		res, err := e.QueryContext(ctx, lcQuery)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res != nil {
			t.Fatal("cancelled query returned a result")
		}
	})
	if delta != 0 {
		t.Fatalf("pre-cancelled query drifted pool by %d", delta)
	}
	after := e.ExecStats()
	if after.Cancelled != before.Cancelled+1 {
		t.Fatalf("Cancelled = %d, want %d", after.Cancelled, before.Cancelled+1)
	}
	if after.Admitted != before.Admitted {
		t.Fatalf("pre-cancelled query was admitted (%d -> %d)", before.Admitted, after.Admitted)
	}
}

func TestQueryContextExpiredDeadline(t *testing.T) {
	e, _, _, _ := testDB(t)
	ctx, cancelCtx := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelCtx()
	before := e.ExecStats()
	_, err := e.QueryContext(ctx, lcQuery)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := e.ExecStats().DeadlineExceeded; got != before.DeadlineExceeded+1 {
		t.Fatalf("DeadlineExceeded = %d, want %d", got, before.DeadlineExceeded+1)
	}
}

func TestRunContextMatchesRun(t *testing.T) {
	e, _, _, _ := testDB(t)
	pq, err := e.Prepare(lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := pq.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := pq.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Rows()[0][0].Num != ctxed.Rows()[0][0].Num {
		t.Fatalf("RunContext = %v, Run = %v", ctxed.Rows()[0][0].Num, plain.Rows()[0][0].Num)
	}
	// nil context degrades to Background instead of panicking.
	if _, err := pq.RunContext(nil); err != nil { //nolint:staticcheck
		t.Fatalf("RunContext(nil): %v", err)
	}
}

func TestAdmissionGateSheds(t *testing.T) {
	e, _, _, _ := testDB(t)
	e.SetMaxInFlight(1)
	// Occupy the only slot (white-box), then every query must shed.
	slots, err := e.gate.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	before := e.ExecStats()
	if _, qerr := e.QueryContext(context.Background(), lcQuery); !errors.Is(qerr, ErrOverloaded) {
		t.Fatalf("saturated gate returned %v, want ErrOverloaded", qerr)
	}
	if got := e.ExecStats().Shed; got != before.Shed+1 {
		t.Fatalf("Shed = %d, want %d", got, before.Shed+1)
	}
	e.gate.release(slots, time.Millisecond)
	// With the slot free the same query runs.
	mustQuery(t, e, lcQuery)
	if got := e.ExecStats().MaxInFlight; got != 1 {
		t.Fatalf("MaxInFlight = %d, want 1", got)
	}
}

func TestDeadlineAwareShedding(t *testing.T) {
	e, _, _, _ := testDB(t)
	// Pretend recent runs took an hour; a 50ms deadline can never fit.
	e.gate.ewmaNs.Store(int64(time.Hour))
	ctx, cancelCtx := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelCtx()
	before := e.ExecStats()
	if _, err := e.QueryContext(ctx, lcQuery); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("doomed-deadline query returned %v, want ErrOverloaded", err)
	}
	if got := e.ExecStats().Shed; got != before.Shed+1 {
		t.Fatalf("Shed = %d, want %d", got, before.Shed+1)
	}
	// A deadline-free context is admitted regardless of the estimate.
	mustQuery(t, e, lcQuery)
}

func TestExecStatsCounters(t *testing.T) {
	e, _, _, _ := testDB(t)
	st := e.ExecStats()
	if st.MaxInFlight <= 0 {
		t.Fatalf("default MaxInFlight = %d, want > 0", st.MaxInFlight)
	}
	mustQuery(t, e, lcQuery)
	mustQuery(t, e, lcQuery)
	st = e.ExecStats()
	if st.Admitted < 2 {
		t.Fatalf("Admitted = %d, want >= 2", st.Admitted)
	}
	if st.EWMARunNanos <= 0 {
		t.Fatalf("EWMARunNanos = %d, want > 0 after runs", st.EWMARunNanos)
	}
}

func TestQueryErrorUnwrap(t *testing.T) {
	qe := &QueryError{Panic: io.ErrUnexpectedEOF}
	if !errors.Is(qe, io.ErrUnexpectedEOF) {
		t.Fatal("QueryError does not unwrap an error panic value")
	}
	plain := &QueryError{Panic: "boom"}
	if plain.Unwrap() != nil {
		t.Fatal("non-error panic value unwrapped to an error")
	}
	if plain.Error() == "" {
		t.Fatal("empty rendering")
	}
}

// TestConcurrentCancelInvalidateStress is the -race workhorse: concurrent
// runners issue the same statement shape under randomly-cancelled contexts
// while another goroutine bumps the table epoch (the append signal), so
// cancellation, admission, shape-cache rebinds and epoch replans all
// interleave. Afterwards the pool must be level, the invalidation counter
// must have moved, and a real append must be visible to the next query —
// no stale plan.
func TestConcurrentCancelInvalidateStress(t *testing.T) {
	e, pc, _, _ := testDB(t)
	mustQuery(t, e, lcQuery)
	invBefore := e.StmtCacheStats().Invalidations

	delta := outstandingDelta(t, func() {
		var wg, bumper sync.WaitGroup
		stop := make(chan struct{})
		// Epoch bumper: InvalidateIndexes is the append-path signal and is
		// safe against concurrent readers (arrays do not move). It joins
		// separately because it only exits once the runners are done.
		bumper.Add(1)
		go func() {
			defer bumper.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pc.InvalidateIndexes()
				time.Sleep(200 * time.Microsecond)
			}
		}()
		const runners = 4
		for r := 0; r < runners; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 60; i++ {
					ctx, cancelCtx := context.WithCancel(context.Background())
					if rng.Intn(3) == 0 {
						cancelCtx()
					} else if rng.Intn(2) == 0 {
						go func(d time.Duration) {
							time.Sleep(d)
							cancelCtx()
						}(time.Duration(rng.Intn(300)) * time.Microsecond)
					}
					_, err := e.QueryUntracedContext(ctx, lcQuery)
					switch {
					case err == nil,
						errors.Is(err, context.Canceled),
						errors.Is(err, ErrOverloaded):
					default:
						t.Errorf("unexpected error: %v", err)
					}
					cancelCtx()
				}
			}(int64(r + 1))
		}
		wg.Wait()
		close(stop)
		bumper.Wait()
	})
	if delta != 0 {
		t.Fatalf("stress drifted selection pool by %d", delta)
	}
	if inv := e.StmtCacheStats().Invalidations; inv == invBefore {
		t.Fatal("epoch bumps never forced a replan")
	}

	// A real append (single-writer, queries quiesced) must be observed by
	// the very next run: the replanned statement sees the new rows.
	rows := pc.Len()
	region := geom.NewEnvelope(0, 0, 2000, 2000)
	terrain := synth.NewTerrain(81, region)
	pc.AppendLAS(synth.GenerateTile(terrain, synth.TileSpec{Env: region, Density: 0.001, Seed: 12}))
	if pc.Len() == rows {
		t.Fatal("append added no rows; the staleness check is vacuous")
	}
	afterCount := mustQuery(t, e, `SELECT count(*) FROM ahn2`).Rows()[0][0].Num
	if int(afterCount) != pc.Len() {
		t.Fatalf("post-append count(*) = %v, table has %d rows (stale plan?)", afterCount, pc.Len())
	}
}

// TestRunContextSteadyStateAllocs pins the context-threaded steady path to
// the same budget as the plain prepared run: the gate, run-state binding
// and cancellation polling must add zero allocations per query.
func TestRunContextSteadyStateAllocs(t *testing.T) {
	e, _, _, _ := testDB(t)
	pq, err := e.Prepare(lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelCtx := context.WithCancel(context.Background())
	defer cancelCtx()
	_ = ctx.Done() // materialise the done channel outside the measurement
	if _, err := pq.RunContext(ctx); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := pq.RunContext(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("RunContext steady state allocates %.1f objects/op, want <= 3 (result only)", allocs)
	}
}

// cancelAtNode wraps a compiled projection item: it counts the chunks it
// evaluates and calls cancel at chunk number at.
type cancelAtNode struct {
	numNode
	blocks *int
	at     int
	cancel func()
}

func (n *cancelAtNode) eval(fr *frame, ps *paramStore, rows []int, dst []float64) error {
	if *n.blocks++; *n.blocks == n.at {
		n.cancel()
	}
	return n.numNode.eval(fr, ps, rows, dst)
}

// TestCancelMidProjection fires the context from inside the projection's
// second expression chunk: the compiled items poll the token once per
// block, so the run must stop at the next block boundary — no further
// kernel call, context.Canceled to the caller, no result, pool level —
// rather than gathering the rest of the selection. The same statement then
// completes under a live context, and its fallible item
// z / (classification - 2) still raises the interpreter's error once a
// ground return is let through.
func TestCancelMidProjection(t *testing.T) {
	e, _, _, _ := testDB(t)
	const q = `SELECT x, z - 2*intensity, z / (classification - 2) FROM ahn2
		WHERE ST_Contains(ST_MakeEnvelope(150, 150, 1700, 1620), ST_Point(x, y)) AND classification <> 2`
	pq, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	full, err := pq.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() < 4*exprChunk {
		t.Fatalf("projection selects %d rows; need over 4 chunks for a mid-run cancel", full.Len())
	}
	for i, ev := range planOf(pq).proj {
		if ev == nil {
			t.Fatalf("item %d did not compile; the test would cancel the interpreter arm", i)
		}
	}

	ctx, cancelCtx := context.WithCancel(context.Background())
	defer cancelCtx()
	blocks := 0
	gather := planOf(pq).proj[0]
	planOf(pq).proj[0] = &cancelAtNode{numNode: gather, blocks: &blocks, at: 2, cancel: cancelCtx}
	before := e.ExecStats().Cancelled
	delta := outstandingDelta(t, func() {
		res, err := pq.RunContext(ctx)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("RunContext = %v, %v; want nil, context.Canceled", res, err)
		}
	})
	if blocks != 2 {
		t.Fatalf("projection ran %d blocks after a cancel in block 2", blocks)
	}
	if delta != 0 {
		t.Fatalf("cancelled projection drifted pool by %d", delta)
	}
	if got := e.ExecStats().Cancelled; got != before+1 {
		t.Fatalf("Cancelled = %d, want %d", got, before+1)
	}

	planOf(pq).proj[0] = gather
	again, err := pq.RunContext(context.Background())
	if err != nil || !resultsEqual(again, full) {
		t.Fatalf("run after the cancelled one: err %v, equal to the first run: %v", err, err == nil && resultsEqual(again, full))
	}
	_, err = e.QueryContext(context.Background(), strings.Replace(q, "classification <> 2", "classification <> 3", 1))
	if err == nil || err.Error() != "sql: division by zero" {
		t.Fatalf("ground returns through z / (classification - 2): err = %v, want division by zero", err)
	}
}
