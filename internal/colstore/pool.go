package colstore

import (
	"sync"
	"sync/atomic"
)

// Pool is a striped, capacity-budgeted free list of []T buffers — the
// allocation-recycling substrate of the engine's repeated-query fast path
// (selection vectors, imprint candidate ranges, grid cell states). It is a
// mutex-backed free list rather than a sync.Pool: returning a slice through
// sync.Pool boxes the header into an interface, costing one heap
// allocation per recycle, which would break the zero-allocation steady
// state. Striping spreads producers and consumers across independent
// shards so concurrent queries don't serialise on one mutex; a Get that
// misses its first shard walks the others before allocating, so
// single-stream workloads still reuse every buffer they return.
//
// The zero value retains nothing (MaxElts 0); set MaxElts at construction.
type Pool[T any] struct {
	// MaxElts bounds the pool's total retained capacity in elements so a
	// burst of huge queries can't pin worst-case buffers for the process
	// lifetime. The budget is pool-wide, not per-shard: a single buffer as
	// large as the whole budget must still pool, or workloads bigger than
	// one shard's slice of the budget would silently lose buffer reuse.
	MaxElts int64

	shards [poolShards]poolShard[T]
	// held is the pool-wide retained capacity governed by MaxElts.
	held atomic.Int64
	// next scatters Puts (and Get start positions) across shards.
	next atomic.Uint32
	// outstanding counts Gets minus Puts — the accounting signal leak
	// regression tests assert on. Buffers that callers drop on the floor
	// (recycling is optional) inflate it, so tests own every buffer.
	outstanding atomic.Int64
}

// poolShards is the number of independent free lists per pool; a power of
// two so shard selection is a mask. Eight shards keep mutex contention off
// the profile at typical query concurrency without fragmenting the pool.
const poolShards = 8

// maxPooledPerShard bounds how many buffers one shard retains; beyond
// that, recycled buffers are released to the garbage collector.
const maxPooledPerShard = 8

// poolShard is one stripe: a small free list behind its own mutex.
type poolShard[T any] struct {
	mu   sync.Mutex
	free [][]T
	// Pad shards apart so neighbouring mutexes don't share a cache line.
	_ [64]byte
}

// Get returns an empty buffer with capacity at least capHint when a pooled
// buffer that large exists in any shard; otherwise it allocates one.
// capHint is a hint — appends beyond it grow the slice normally.
func (p *Pool[T]) Get(capHint int) []T {
	if capHint < 64 {
		capHint = 64
	}
	p.outstanding.Add(1)
	start := p.next.Load()
	for s := uint32(0); s < poolShards; s++ {
		sh := &p.shards[(start+s)&(poolShards-1)]
		sh.mu.Lock()
		for i := len(sh.free) - 1; i >= 0; i-- {
			if cap(sh.free[i]) >= capHint {
				b := sh.free[i]
				last := len(sh.free) - 1
				sh.free[i] = sh.free[last]
				sh.free[last] = nil // past len it would keep b reachable after the pool drops it
				sh.free = sh.free[:last]
				sh.mu.Unlock()
				p.held.Add(-int64(cap(b)))
				return b[:0]
			}
		}
		sh.mu.Unlock()
	}
	return make([]T, 0, capHint)
}

// Put returns a buffer to one shard's free list, unless retaining it would
// exceed the shard's entry bound or the pool-wide capacity budget. The
// budget reservation may transiently overshoot by one in-flight buffer per
// concurrent putter; the reservation is rolled back, never leaked.
func (p *Pool[T]) Put(b []T) {
	if cap(b) == 0 {
		// Zero-capacity slices (empty-result sentinels) never came from
		// the pool; returning them must not skew the accounting balance.
		return
	}
	p.outstanding.Add(-1)
	c := int64(cap(b))
	sh := &p.shards[p.next.Add(1)&(poolShards-1)]
	sh.mu.Lock()
	if len(sh.free) < maxPooledPerShard {
		if p.held.Add(c) <= p.MaxElts {
			sh.free = append(sh.free, b[:0])
		} else {
			p.held.Add(-c)
		}
	}
	sh.mu.Unlock()
}

// Stats reports the retained buffer count, their summed capacity in
// elements, and the Get-minus-Put balance (see outstanding).
func (p *Pool[T]) Stats() (buffers int, elts, outstanding int64) {
	for s := range p.shards {
		sh := &p.shards[s]
		sh.mu.Lock()
		buffers += len(sh.free)
		sh.mu.Unlock()
	}
	return buffers, p.held.Load(), p.outstanding.Load()
}
