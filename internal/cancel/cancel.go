// Package cancel carries a cooperative cancellation token through the
// query engine's kernel loops. It exists as a leaf package because the
// engine cannot import context plumbing from the SQL layer and the grid
// package cannot import the engine; both only need the answer to one
// question — "should this block of work still run?" — asked at block
// boundaries, thousands of times per query. Every block loop asks it
// through Blocks, which polls before each span it yields, so a loop
// cannot forget the poll or pay it per row.
//
// The token is built for that read rate: Cancelled() first loads a cached
// atomic flag (one relaxed load, no fence traffic after the first
// positive) and only when the flag is unset polls the done channel with a
// non-blocking select. A nil token, or a token bound to no channel (the
// context.Background() paths), short-circuits on the nil check /
// nil-channel check, so uncancellable runs pay a test-and-branch per
// block and nothing else — preserving the engine's zero-allocation and
// steady-state throughput contracts.
package cancel

import (
	"errors"
	"iter"
	"sync/atomic"
)

// ErrCancelled is the sentinel the engine layers return when a token
// fires mid-query. The SQL layer maps it back to the context's own error
// (context.Canceled or context.DeadlineExceeded) before it reaches the
// caller, so errors.Is against the context sentinels works end to end.
var ErrCancelled = errors.New("query cancelled")

// Token is one run's cancellation flag. The zero value (and a nil
// pointer) is a valid, never-cancelled token. Reset rebinds it to a new
// done channel between runs, so a pooled per-run record can reuse one
// token allocation forever.
type Token struct {
	done <-chan struct{}
	hit  atomic.Bool
}

// Reset binds the token to done (nil means "never cancelled") and clears
// the cached verdict. Must not race with Cancelled; the per-run record
// owning the token resets it before handing it to kernel code.
func (t *Token) Reset(done <-chan struct{}) {
	t.done = done
	t.hit.Store(false)
}

// Cancelled reports whether the run should stop. Safe on a nil token.
// The answer is monotonic for one binding: once true, always true (the
// cached flag), so kernels may check it at different loop depths without
// seeing it flicker.
func (t *Token) Cancelled() bool {
	if t == nil || t.done == nil {
		return false
	}
	if t.hit.Load() {
		return true
	}
	select {
	case <-t.done:
		t.hit.Store(true)
		return true
	default:
		return false
	}
}

// Blocks yields the spans [b, min(b+n, hi)) of [lo, hi) in ascending
// order, polling the token before each one, and stops at the first poll
// that reports cancelled. n must be positive. Safe on a nil token, which
// yields every span. A loop over it cannot tell a finished range from a
// cancelled one; a caller that must not return partial work checks
// Cancelled once after the loop.
func (t *Token) Blocks(lo, hi, n int) iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		for b := lo; b < hi; b += n {
			if t.Cancelled() || !yield(b, min(b+n, hi)) {
				return
			}
		}
	}
}
