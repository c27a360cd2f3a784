package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"gisnav/internal/bench"
	"gisnav/internal/sql"
)

// --- E15: query lifecycle — cancellation overhead + admission control ---------

// expCancel measures what the PR 6 lifecycle layer costs on the steady
// path and demonstrates its control surface. The overhead arm runs the
// same prepared navigation query with and without a live (cancellable)
// context: the admission gate, run-state binding and per-block
// cancellation polling must stay within noise of the plain run and add
// zero allocations. The second half drives every ExecStats counter —
// cancellations, deadline expiries, gate sheds — so the JSON trajectory
// records the lifecycle behaviour, not just its price.
func expCancel(env *benchEnv, w io.Writer, repeats int) {
	reps := repeats * 5
	tbl := bench.NewTable("E15 query lifecycle: cancellation plumbing overhead (prepared navigation query)",
		"query", "arm", "mean time", "allocs/op", "rows")

	exec := sql.New(env.db)
	e := env.region
	q := fmt.Sprintf(`SELECT count(*) FROM ahn2
		WHERE ST_Contains(ST_MakeEnvelope(%g, %g, %g, %g), ST_Point(x, y))
		  AND classification = 2`,
		e.MinX+e.Width()*0.30, e.MinY+e.Height()*0.30,
		e.MinX+e.Width()*0.62, e.MinY+e.Height()*0.62)
	pq, err := exec.Prepare(q)
	if err != nil {
		fmt.Fprintln(w, "E15:", err)
		return
	}
	res, err := pq.Run()
	if err != nil {
		fmt.Fprintln(w, "E15:", err)
		return
	}
	matches := int(res.Cols[0].Nums[0])

	dPlain := bench.MeasureN(reps, func() { pq.Run() })
	allocsPlain := testing.AllocsPerRun(20, func() { pq.Run() })

	ctx, cancelCtx := context.WithCancel(context.Background())
	defer cancelCtx()
	_ = ctx.Done() // materialise the done channel outside the measurement
	if _, err := pq.RunContext(ctx); err != nil {
		fmt.Fprintln(w, "E15:", err)
		return
	}
	dCtx := bench.MeasureN(reps, func() { pq.RunContext(ctx) })
	allocsCtx := testing.AllocsPerRun(20, func() { pq.RunContext(ctx) })

	overhead := 0.0
	if dPlain > 0 {
		overhead = (float64(dCtx) - float64(dPlain)) / float64(dPlain) * 100
	}
	tbl.AddRow("count over bbox", "prepared steady", dPlain, fmt.Sprintf("%.0f", allocsPlain), matches)
	tbl.AddRow("count over bbox", "ctx prepared steady", dCtx, fmt.Sprintf("%.0f", allocsCtx), matches)
	tbl.WriteTo(w)
	fmt.Fprintf(w, "context plumbing overhead: %+.1f%% (extra allocs/op: %.0f)\n",
		overhead, allocsCtx-allocsPlain)
	env.report.addAllocs("cancel", "sql_lifecycle", "prepared_steady", env.pc.Len(), matches, dPlain, allocsPlain)
	env.report.addAllocs("cancel", "sql_lifecycle", "ctx_prepared_steady", env.pc.Len(), matches, dCtx, allocsCtx)

	// Drive the lifecycle counters so the report captures the control
	// surface. Pre-cancelled contexts count as cancellations; an expired
	// deadline counts separately; a gate bounded to one slot under
	// concurrent callers sheds with ErrOverloaded.
	for i := 0; i < 3; i++ {
		cctx, cc := context.WithCancel(context.Background())
		cc()
		exec.QueryContext(cctx, q)
	}
	dctx, dc := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	exec.QueryContext(dctx, q)
	dc()

	// Deadline-aware shedding, deterministically: a deadline closer than
	// the executor's run-latency estimate is rejected at admission. (The
	// estimate is live, so retry a few times if scheduling ate the window
	// before the gate saw it.)
	for i := 0; i < 10 && exec.ExecStats().Shed == 0; i++ {
		est := time.Duration(exec.ExecStats().EWMARunNanos)
		if est <= 0 {
			est = time.Millisecond
		}
		sctx, sc := context.WithTimeout(context.Background(), est/2)
		exec.QueryContext(sctx, q)
		sc()
	}

	exec.SetMaxInFlight(1)
	var wg sync.WaitGroup
	var shedMu sync.Mutex
	shed := 0
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := exec.QueryUntracedContext(context.Background(), q); errors.Is(err, sql.ErrOverloaded) {
					shedMu.Lock()
					shed++
					shedMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	exec.SetMaxInFlight(0) // restore the default bound

	st := exec.ExecStats()
	fmt.Fprintf(w, "lifecycle counters: admitted %d, shed %d (%d observed under 1-slot gate), cancelled %d, deadline-exceeded %d, panicked %d\n",
		st.Admitted, st.Shed, shed, st.Cancelled, st.DeadlineExceeded, st.Panicked)
	env.report.addExec("cancel", st)
	env.report.addCache("cancel", exec.StmtCacheStats(), env.pc.PlanCacheStats())
}
