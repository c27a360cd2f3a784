// Query lifecycle: the layer between the public entry points and the
// plan/execute machinery. Every external run — QueryContext,
// QueryUntracedContext, PreparedQuery.RunContext, each taking the caller's
// context — funnels through lifecycleRun, which
//
//  1. passes the executor's admission gate (bounded in-flight queries,
//     deadline-aware shedding against an EWMA of recent run latency),
//  2. binds a pooled run record to the context's done channel so every
//     kernel loop below can poll cancellation at block boundaries and every
//     pooled buffer acquisition lands in one release list; the record also
//     carries the run's frame, the scratch its compiled nodes and grouped
//     fold write,
//  3. recovers panics from anywhere in the execution stack into a typed
//     *QueryError and drains the release list so the engine pools'
//     accounting returns to its pre-query values. Nothing else needs
//     repair: a run writes only its own frame, never the plan or bound it
//     ran, so the statement's next run is exactly a fresh Prepare's.
//
// The gate and run record are allocation-free on the steady path: the
// slot semaphore is a buffered channel, the latency estimate an atomic,
// and the run records recycle through a mutex-backed free list.
package sql

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gisnav/internal/cancel"
	"gisnav/internal/engine"
	"gisnav/internal/morsel"
)

// ErrOverloaded reports an admission-gate rejection: either every
// in-flight slot was taken (the executor is saturated and queueing would
// only grow latency), or the context's deadline was closer than the
// executor's current run-latency estimate, so the query would have burnt
// a slot only to time out. Callers are expected to back off or re-issue
// with a longer deadline.
var ErrOverloaded = errors.New("sql: executor overloaded")

// QueryError wraps a panic recovered during query execution. The process
// survives: the panicking run's pooled buffers are drained back to their
// pools, and the panic surfaces as this error instead of unwinding the
// caller.
type QueryError struct {
	Panic any    // the recovered panic value
	Stack []byte // stack of the panicking goroutine at recovery
}

// Error renders the panic value.
func (e *QueryError) Error() string { return fmt.Sprintf("sql: query panicked: %v", e.Panic) }

// Unwrap exposes a panic value that was itself an error (e.g. a
// fault-injected error re-raised as a panic) to errors.Is/As chains.
func (e *QueryError) Unwrap() error {
	if err, ok := e.Panic.(error); ok {
		return err
	}
	return nil
}

// --- admission gate ---------------------------------------------------------

// gate is the executor's admission control: a slot semaphore bounding
// in-flight queries, an EWMA of run latency for deadline-aware shedding,
// and the lifecycle outcome counters ExecStats reports. Acquisition never
// queues — a full gate sheds immediately with ErrOverloaded, keeping the
// failure mode crisp under saturation (callers see backpressure, not
// silently growing latency).
type gate struct {
	mu    sync.Mutex
	slots chan struct{}
	max   int

	// EWMA of run wall time in nanoseconds (α = 1/8), updated lock-free
	// on release. Zero means "no estimate yet" and disables deadline
	// shedding.
	ewmaNs atomic.Int64

	admitted         atomic.Uint64
	shed             atomic.Uint64
	cancelled        atomic.Uint64
	deadlineExceeded atomic.Uint64
	panicked         atomic.Uint64
}

// slotsChan returns the live slot channel, creating it on first use.
// The default bound is 2×GOMAXPROCS: enough concurrency to keep every
// core busy through cache misses, small enough that a stampede degrades
// into visible shedding instead of memory growth.
func (g *gate) slotsChan() chan struct{} {
	g.mu.Lock()
	if g.slots == nil {
		if g.max <= 0 {
			g.max = 2 * runtime.GOMAXPROCS(0)
		}
		g.slots = make(chan struct{}, g.max)
	}
	s := g.slots
	g.mu.Unlock()
	return s
}

// acquire admits the query or sheds it. On admission it returns the slot
// channel the matching release must drain (SetMaxInFlight may swap the
// channel while runs are in flight, so the slot's home rides with the
// admission).
func (g *gate) acquire(ctx context.Context) (chan struct{}, error) {
	if err := ctx.Err(); err != nil {
		return nil, g.countCtx(err)
	}
	if dl, ok := ctx.Deadline(); ok {
		if est := g.ewmaNs.Load(); est > 0 && time.Until(dl) < time.Duration(est) {
			// The deadline is closer than a typical run: admitting would
			// spend a slot on a query that cancels mid-scan anyway.
			g.shed.Add(1)
			return nil, ErrOverloaded
		}
	}
	slots := g.slotsChan()
	select {
	case slots <- struct{}{}:
		g.admitted.Add(1)
		return slots, nil
	default:
		g.shed.Add(1)
		return nil, ErrOverloaded
	}
}

// release frees the slot and folds the run's wall time into the latency
// estimate (CAS loop; contention is bounded by the slot count).
func (g *gate) release(slots chan struct{}, elapsed time.Duration) {
	<-slots
	ns := int64(elapsed)
	for {
		old := g.ewmaNs.Load()
		next := ns
		if old > 0 {
			next = old + (ns-old)/8
		}
		if g.ewmaNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// countCtx attributes a context failure to the right counter and passes
// the error through.
func (g *gate) countCtx(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		g.deadlineExceeded.Add(1)
	} else {
		g.cancelled.Add(1)
	}
	return err
}

// SetMaxInFlight rebounds the admission gate. Any n <= 0 selects the
// default (2×GOMAXPROCS) — the executor-wide clamping rule shared with
// SetParallelism: nonsensical arguments degrade to the default, never to
// a zero-slot gate that would shed every query. Queries already in flight
// drain against the channel they were admitted on; new admissions see the
// new bound.
func (e *Executor) SetMaxInFlight(n int) {
	g := &e.gate
	g.mu.Lock()
	if n < 0 {
		n = 0 // slotsChan treats 0 as "apply the default bound"
	}
	g.max = n
	g.slots = nil
	g.mu.Unlock()
}

// ExecStats reports the executor's query-lifecycle counters: admissions,
// gate sheds, context cancellations, deadline expiries, recovered panics,
// and the current run-latency estimate the deadline shedding compares
// against.
type ExecStats struct {
	MaxInFlight      int
	Admitted         uint64
	Shed             uint64
	Cancelled        uint64
	DeadlineExceeded uint64
	Panicked         uint64
	EWMARunNanos     int64
}

// ExecStats snapshots the lifecycle counters.
func (e *Executor) ExecStats() ExecStats {
	g := &e.gate
	g.mu.Lock()
	maxInFlight := g.max
	if maxInFlight <= 0 {
		maxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	g.mu.Unlock()
	return ExecStats{
		MaxInFlight:      maxInFlight,
		Admitted:         g.admitted.Load(),
		Shed:             g.shed.Load(),
		Cancelled:        g.cancelled.Load(),
		DeadlineExceeded: g.deadlineExceeded.Load(),
		Panicked:         g.panicked.Load(),
		EWMARunNanos:     g.ewmaNs.Load(),
	}
}

// --- the lifecycle wrapper --------------------------------------------------

// runState is one run's record: the engine's release list and
// cancellation token, and the frame of scratch the run writes.
type runState struct {
	engine.Run
	frame
}

// runStates recycles run records across queries, keeping the lifecycle
// wrapper allocation-free in steady state; a record's frame keeps the
// blocks of the largest plan it served. Contention is bounded by the
// admission gate's slot count.
var runStates morsel.FreeList[runState]

// lifecycleRun is the single execution funnel: admission, run-state
// binding, panic isolation, pool drain, cancellation mapping, slot
// release. All public entry points delegate here.
func (pq *PreparedQuery) lifecycleRun(ctx context.Context, ex *engine.Explain, params []Value, origin string) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g := &pq.ex.gate
	slots, aerr := g.acquire(ctx)
	if aerr != nil {
		return nil, aerr
	}
	start := time.Now()
	rs := runStates.Get()
	rs.Bind(ctx.Done())
	// Run records recycle across queries (and executors), so the degree
	// cap is stamped on every run, never inherited from the previous one.
	rs.SetMaxParallel(int(pq.ex.parallel.Load()))
	defer func() {
		if p := recover(); p != nil {
			// A panic anywhere below — kernel, interpreter, refinement
			// worker (re-raised by the grid layer) — lands here. The
			// release list returns every pooled buffer the run still
			// owned; the frame it may have left torn is scratch every
			// run writes before it reads.
			g.panicked.Add(1)
			res, err = nil, &QueryError{Panic: p, Stack: debug.Stack()}
		}
		rs.Drain()
		rs.Bind(nil)
		runStates.Put(rs)
		g.release(slots, time.Since(start))
	}()
	res, err = pq.run(rs, ex, params, origin)
	if err != nil && errors.Is(err, cancel.ErrCancelled) {
		// Kernels report the token firing; callers asked with a context,
		// so hand back the context's own verdict.
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		g.countCtx(err)
	}
	return res, err
}
