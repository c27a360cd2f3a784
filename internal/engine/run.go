// Per-run query lifecycle state: the cancellation token and the release
// list that makes pool accounting panic-safe. Every pooled buffer an
// execution path acquires is registered here (track-after-production: a
// buffer is tracked only once the call that could still grow it has
// returned, because append growth reallocates the backing array and
// tracking is by backing-array identity). Recycling through the Run
// untracks; whatever is still tracked when a run unwinds — error or
// panic — is drained back to its pool in one sweep, so the striped
// pools' Outstanding counters return to their pre-query values on every
// exit path. This is the generalisation of the PR 2 error-path recycling
// audit: instead of auditing each return, the invariant is structural.
//
// A nil *Run degrades every method to the untracked behaviour (plain
// pool put / no-op track / never cancelled), so engine entry points keep
// working for callers outside the SQL lifecycle (benchmarks, tests,
// ad-hoc tools) without a second code path.
package engine

import (
	"unsafe"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
)

// Run is one query execution's lifecycle record: the cooperative
// cancellation token kernel loops poll at block boundaries, plus the
// release list of pooled buffers currently owned by the run. It is
// reusable: Drain + Bind between runs, so a pooled Run record adds no
// steady-state allocations.
type Run struct {
	tok    cancel.Token
	rows   [][]int
	ranges [][]colstore.Range
	f64    [][]float64
	par    int
}

// Bind points the run's cancellation token at done (nil = never
// cancelled) and clears any previous verdict.
func (r *Run) Bind(done <-chan struct{}) { r.tok.Reset(done) }

// Token exposes the run's cancellation token for kernel-level plumbing
// (KernelArgs, grid.Options). Nil-safe: a nil run yields a nil token,
// which never reports cancelled.
func (r *Run) Token() *cancel.Token {
	if r == nil {
		return nil
	}
	return &r.tok
}

// Cancelled reports whether the run's context fired. Nil-safe.
func (r *Run) Cancelled() bool {
	if r == nil {
		return false
	}
	return r.tok.Cancelled()
}

// SetMaxParallel caps the morsel fan-out degree of this run's operators:
// n partitions at most, 1 forcing the serial path, 0 (the default)
// deferring to the table's auto-parallel setting. The engine clamps the
// effective degree per operator from the row count (small selections stay
// serial; see morselDegree). Nil-safe no-op, so callers can thread an
// optional run unconditionally.
func (r *Run) SetMaxParallel(n int) {
	if r != nil {
		r.par = n
	}
}

// MaxParallel reports the run's degree cap (0 = unset). Nil-safe.
func (r *Run) MaxParallel() int {
	if r == nil {
		return 0
	}
	return r.par
}

// sameBase reports whether two slices share a backing array. Tracking
// identity is the base pointer: in-place narrowing (rows[:0] compaction)
// preserves it, growth does not — hence track-after-production.
func sameBase[T any](a, b []T) bool {
	return unsafe.SliceData(a) == unsafe.SliceData(b)
}

// track appends b to list unless it cannot be recycled anyway (cap 0 —
// the pool ignores such buffers, and their base pointer is unspecified).
func track[T any](list [][]T, b []T) [][]T {
	if cap(b) == 0 {
		return list
	}
	return append(list, b)
}

// untrack removes the entry sharing b's backing array, scanning from the
// end (LIFO: the buffer being recycled is usually the last acquired).
func untrack[T any](list [][]T, b []T) [][]T {
	for i := len(list) - 1; i >= 0; i-- {
		if sameBase(list[i], b) {
			copy(list[i:], list[i+1:])
			list[len(list)-1] = nil
			return list[:len(list)-1]
		}
	}
	return list
}

// TrackRows registers a selection vector in the release list and returns
// it, so producer calls wrap directly. Nil-safe (no-op on a nil run).
func (r *Run) TrackRows(b []int) []int {
	if r != nil {
		r.rows = track(r.rows, b)
	}
	return b
}

// AcquireRows draws a tracked selection vector from the engine's pool.
// The capacity hint must cover everything the caller appends: growth
// past it would reallocate the backing array out from under the release
// list. Producers that cannot bound their output acquire untracked and
// TrackRows the final slice instead.
func (r *Run) AcquireRows(capHint int) []int { return r.TrackRows(getRowBuf(capHint)) }

// SwapRows re-points old's release-list entry at new. Producers that hand
// a pooled buffer to a call that may grow it track the buffer BEFORE the
// call (so a panic inside the call cannot strand it between acquisition
// and tracking) and swap in the call's final slice afterwards, whose
// backing array may have moved. When growth abandoned the original, its
// pool Get stays balanced by the eventual put of the final slice — the
// striped pools account by count, not identity. Nil-safe.
func (r *Run) SwapRows(old, new []int) []int {
	if r == nil || sameBase(old, new) {
		return new
	}
	r.rows = untrack(r.rows, old)
	r.rows = track(r.rows, new)
	return new
}

// RecycleRows returns a selection vector to the pool and removes it from
// the release list. On a nil run this is plain RecycleRows.
func (r *Run) RecycleRows(b []int) {
	if r != nil {
		r.rows = untrack(r.rows, b)
	}
	rowPool.Put(b)
}

// trackRanges / recycleRanges are the candidate-range counterparts.
func (r *Run) trackRanges(b []colstore.Range) []colstore.Range {
	if r != nil {
		r.ranges = track(r.ranges, b)
	}
	return b
}

func (r *Run) recycleRanges(b []colstore.Range) {
	if r != nil {
		r.ranges = untrack(r.ranges, b)
	}
	rangePool.Put(b)
}

// trackF64 / recycleF64Run are the float64-scratch counterparts
// (grouped-aggregate banks, hash key stores).
func (r *Run) trackF64(b []float64) []float64 {
	if r != nil {
		r.f64 = track(r.f64, b)
	}
	return b
}

func (r *Run) recycleF64(b []float64) {
	if r != nil {
		r.f64 = untrack(r.f64, b)
	}
	f64Pool.Put(b)
}

// AcquireF64 draws a tracked float64 scratch buffer from the engine's
// pool. As with AcquireRows, the capacity hint must cover everything the
// caller appends. Buffer contents are stale: initialise every element
// before reading.
func (r *Run) AcquireF64(capHint int) []float64 { return r.trackF64(getF64Buf(capHint)) }

// RecycleF64 returns a float64 buffer to the pool and removes it from the
// release list. On a nil run it only returns the buffer to the pool.
func (r *Run) RecycleF64(b []float64) { r.recycleF64(b) }

// Live reports how many pooled buffers the run currently owns — zero
// after a clean run, and the quantity Drain returns to the pools after
// an unwind. Nil-safe.
func (r *Run) Live() int {
	if r == nil {
		return 0
	}
	return len(r.rows) + len(r.ranges) + len(r.f64)
}

// Drain returns every still-tracked buffer to its pool — the unwind
// sweep run on error and panic paths. Idempotent; nil-safe.
func (r *Run) Drain() {
	if r == nil {
		return
	}
	for i := len(r.rows) - 1; i >= 0; i-- {
		rowPool.Put(r.rows[i])
		r.rows[i] = nil
	}
	r.rows = r.rows[:0]
	for i := len(r.ranges) - 1; i >= 0; i-- {
		rangePool.Put(r.ranges[i])
		r.ranges[i] = nil
	}
	r.ranges = r.ranges[:0]
	for i := len(r.f64) - 1; i >= 0; i-- {
		f64Pool.Put(r.f64[i])
		r.f64[i] = nil
	}
	r.f64 = r.f64[:0]
}
