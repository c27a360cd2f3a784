package morsel

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// countRunner records which slots ran and panics on request.
type countRunner struct {
	ran      []atomic.Int64
	panicsAt int // slot to panic in, -1 for none
}

func (r *countRunner) RunPartition(slot int) {
	r.ran[slot].Add(1)
	if slot == r.panicsAt {
		panic(fmt.Sprintf("boom in slot %d", slot))
	}
}

func TestPassRunsEverySlot(t *testing.T) {
	var p Pass
	for _, n := range []int{1, 2, 3, 8, 33} {
		r := &countRunner{ran: make([]atomic.Int64, n), panicsAt: -1}
		if v := p.Run(n, r); v != nil {
			t.Fatalf("clean pass of %d returned panic %v", n, v)
		}
		for slot := range r.ran {
			if got := r.ran[slot].Load(); got != 1 {
				t.Fatalf("n=%d slot %d ran %d times, want 1", n, slot, got)
			}
		}
	}
}

// TestPassParksPanicUntilAllSettle pins the unwinding contract: a panic in
// one partition must not stop the others, must come back from Run (not
// unwind a resident worker), and the pass must stay usable afterwards.
func TestPassParksPanicUntilAllSettle(t *testing.T) {
	var p Pass
	const n = 6
	for _, at := range []int{0, 3, n - 1} {
		r := &countRunner{ran: make([]atomic.Int64, n), panicsAt: at}
		v := p.Run(n, r)
		if v != fmt.Sprintf("boom in slot %d", at) {
			t.Fatalf("panic at slot %d: Run returned %v", at, v)
		}
		for slot := range r.ran {
			if got := r.ran[slot].Load(); got != 1 {
				t.Fatalf("slot %d ran %d times despite panic in slot %d, want 1", slot, got, at)
			}
		}
		// The same pass serves a clean run right after the poisoned one.
		clean := &countRunner{ran: make([]atomic.Int64, n), panicsAt: -1}
		if v := p.Run(n, clean); v != nil {
			t.Fatalf("pass unusable after parked panic: %v", v)
		}
	}
}

func TestWorkersStable(t *testing.T) {
	a, b := Workers(), Workers()
	if a <= 0 || a != b {
		t.Fatalf("Workers() = %d then %d, want one stable positive count", a, b)
	}
}

// TestFreeListRecyclesUpToCap pins the free list: a put pointer comes back
// from the next get, an empty list makes a new one, and puts past the cap
// are dropped.
func TestFreeListRecyclesUpToCap(t *testing.T) {
	var l FreeList[int]
	a := l.Get()
	l.Put(a)
	if b := l.Get(); b != a {
		t.Fatal("get after put did not return the recycled pointer")
	}
	if c := l.Get(); c == a {
		t.Fatal("get on an empty list returned a pointer still in use")
	}
	for i := 0; i < freeListCap+5; i++ {
		l.Put(new(int))
	}
	if len(l.free) != freeListCap {
		t.Fatalf("list holds %d entries, cap %d", len(l.free), freeListCap)
	}
}
