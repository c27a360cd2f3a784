// Package faultpoint is the build-tag-gated fault-injection harness of
// the query lifecycle tests. Production code marks block boundaries with
// named points — faultpoint.Hit("engine.filter.block") — and tests built
// with `-tags faultinject` arm those points to panic, delay, or return an
// error there, proving the cancellation latency bounds, the pool-release
// unwinding and the replan-after-panic contract against real kernel
// loops instead of mocks.
//
// In normal builds (no tag) Hit compiles to an inlinable `return nil`
// with an unused constant argument: the hot loops keep their shape and
// the zero-allocation steady state is untouched. The registered point
// names live in the files that hit them; the current set is
//
//	engine.filter.block    — FilterRows, before each predicate kernel
//	engine.kernel.chunk    — chunkKernel, once per scanChunk block
//	engine.groupagg.pass   — grouped drivers, before the accumulate passes
//	engine.groupagg.block  — fold passes and the tile scan, once per
//	                         foldBlock after the cancellation poll
//	engine.morsel.worker   — morsel passes (grid refinement, tile decode of
//	                         a load or a first touch included), top of
//	                         each partition (deg > 1)
//	engine.morsel.merge    — morsel drivers, before the ascending fold (deg > 1)
//	engine.select.refine   — SelectRegionRowsRun, before grid refinement
//	engine.save.column     — PointCloud.Save, before each column file
//	sql.run.filter         — finishPointCloud, before the filter phases
//	sql.run.output         — output, before projection/aggregation
//	server.handler         — query handler entry, before request parsing
//	server.response.write  — between status and body of every response
package faultpoint

import "time"

// Action is what an armed point does when hit. Fields combine: After
// skips the first After hits, Delay sleeps, then Panic panics, else Err
// is returned (a nil-everything Action counts hits and does nothing).
type Action struct {
	// Err is returned by Hit at error-capable points. Points in loops
	// that cannot propagate errors ignore it.
	Err error
	// Panic is panicked with when non-nil, after Delay.
	Panic any
	// Delay is slept before the panic/error — the knob the cancellation
	// latency tests use to stretch one block of work.
	Delay time.Duration
	// After skips the first After hits, so a fault can land mid-query
	// rather than on the first block.
	After int
}
