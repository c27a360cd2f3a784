// Per-run query lifecycle state: the cancellation token and the release
// lists that make pool accounting panic-safe.
//
// A pooled buffer leaves the engine's pools (pool.go) only through a
// release list: acquire draws and registers it, swap re-points the entry
// at the final slice of a call that grew it, recycle untracks and returns
// it, and drain returns whatever is still registered. A Run holds one list
// per pooled element type and drains them when it unwinds — error, cancel
// or panic — so the pools' Outstanding counters return to their pre-query
// values on every exit path; a morsel pass gives each partition slot lists
// of its own, which the operator drains after the merge. Tracking is by
// backing-array identity, which in-place narrowing keeps and append growth
// does not: a producer that hands a buffer to a call that may grow it
// acquires first, so a panic inside the call cannot strand it, and swaps
// in the call's result.
//
// A nil *Run, like a nil list, draws and recycles untracked and is never
// cancelled, so engine entry points serve callers outside the SQL
// lifecycle (benchmarks, tests, ad-hoc tools) without a second code path.
package engine

import (
	"unsafe"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
)

// relList is the release list of one engine pool: the buffers drawn from
// it that are still owned. The zero value is an empty list; the pool
// follows from the element type.
type relList[T any] struct{ bufs [][]T }

// pool is the engine pool of the list's element type.
func (*relList[T]) pool() *colstore.Pool[T] {
	for _, p := range pools {
		if p, ok := p.(*colstore.Pool[T]); ok {
			return p
		}
	}
	panic("engine: no pool holds this element type")
}

// acquire draws an empty buffer of capacity at least capHint and
// registers it. The hint must cover everything the caller appends, unless
// the caller swaps in the grown slice. Buffer contents past len are
// stale: initialise every element before reading. Nil-safe.
func (l *relList[T]) acquire(capHint int) []T {
	b := l.pool().Get(capHint)
	if l != nil {
		l.bufs = append(l.bufs, b)
	}
	return b
}

// swap re-points old's entry at new, the final slice of a call that may
// have grown old, and returns new. When growth abandoned old, its pool Get
// stays balanced by the eventual put of new: the pools account by count,
// not identity. Nil-safe.
func (l *relList[T]) swap(old, new []T) []T {
	if l == nil || unsafe.SliceData(old) == unsafe.SliceData(new) {
		return new
	}
	l.untrack(old)
	if cap(new) > 0 { // the pool ignores such buffers, and their base pointer is unspecified
		l.bufs = append(l.bufs, new)
	}
	return new
}

// append appends v to b, which the list owns, growing b through the list:
// a full b is copied into a buffer of twice its capacity and recycled.
func (l *relList[T]) append(b []T, v T) []T {
	if len(b) == cap(b) {
		next := append(l.acquire(2*cap(b)), b...)
		l.recycle(b)
		b = next
	}
	return append(b, v)
}

// recycle untracks b and returns it to the pool. Nil-safe: a nil list only
// returns it.
func (l *relList[T]) recycle(b []T) {
	if l != nil {
		l.untrack(b)
	}
	l.pool().Put(b)
}

// drain returns every registered buffer to the pool. Idempotent; nil-safe.
func (l *relList[T]) drain() {
	if l == nil {
		return
	}
	p := l.pool()
	for i := len(l.bufs) - 1; i >= 0; i-- {
		p.Put(l.bufs[i])
		l.bufs[i] = nil
	}
	l.bufs = l.bufs[:0]
}

// untrack removes the entry sharing b's backing array, scanning from the
// end (LIFO: the buffer being recycled is usually the last acquired).
func (l *relList[T]) untrack(b []T) {
	for i := len(l.bufs) - 1; i >= 0; i-- {
		if unsafe.SliceData(l.bufs[i]) == unsafe.SliceData(b) {
			copy(l.bufs[i:], l.bufs[i+1:])
			l.bufs[len(l.bufs)-1] = nil
			l.bufs = l.bufs[:len(l.bufs)-1]
			return
		}
	}
}

// Run is one query execution's lifecycle record: the cooperative
// cancellation token kernel loops poll at block boundaries, plus one
// release list per pooled element type. It is reusable: Drain + Bind
// between runs, so a pooled Run record adds no steady-state allocations.
type Run struct {
	tok    cancel.Token
	rows   relList[int]
	ranges relList[colstore.Range]
	f64    relList[float64]
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

// rowList, rangeList and f64List are the run's release lists, nil for a
// nil run (whose lists draw and recycle untracked).
func (r *Run) rowList() *relList[int] {
	if r == nil {
		return nil
	}
	return &r.rows
}

func (r *Run) rangeList() *relList[colstore.Range] {
	if r == nil {
		return nil
	}
	return &r.ranges
}

func (r *Run) f64List() *relList[float64] {
	if r == nil {
		return nil
	}
	return &r.f64
}

// AcquireRows draws a tracked selection vector from the engine's pool.
// The capacity hint must cover everything the caller appends, unless the
// caller swaps in the grown slice (SwapRows).
func (r *Run) AcquireRows(capHint int) []int { return r.rowList().acquire(capHint) }

// SwapRows re-points old's release-list entry at new and returns new:
// producers that hand an acquired buffer to a call that may grow it swap
// in the call's final slice afterwards.
func (r *Run) SwapRows(old, new []int) []int { return r.rowList().swap(old, new) }

// RecycleRows returns a selection vector to the pool and removes it from
// the release list. On a nil run it only returns the vector to the pool.
func (r *Run) RecycleRows(b []int) { r.rowList().recycle(b) }

// AcquireF64 draws a tracked float64 scratch buffer from the engine's
// pool. As with AcquireRows, the capacity hint must cover everything the
// caller appends. Buffer contents are stale: initialise every element
// before reading.
func (r *Run) AcquireF64(capHint int) []float64 { return r.f64List().acquire(capHint) }

// RecycleF64 returns a float64 buffer to the pool and removes it from the
// release list. On a nil run it only returns the buffer to the pool.
func (r *Run) RecycleF64(b []float64) { r.f64List().recycle(b) }

// Live reports how many pooled buffers the run currently owns — zero
// after a clean run, and the quantity Drain returns to the pools after
// an unwind. Nil-safe.
func (r *Run) Live() int {
	if r == nil {
		return 0
	}
	return len(r.rows.bufs) + len(r.ranges.bufs) + len(r.f64.bufs)
}

// Drain returns every still-tracked buffer to its pool — the unwind
// sweep run on error and panic paths. Idempotent; nil-safe.
func (r *Run) Drain() {
	if r == nil {
		return
	}
	r.rows.drain()
	r.ranges.drain()
	r.f64.drain()
}
