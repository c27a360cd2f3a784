// Package morsel is the engine's resident worker set: one pool of
// GOMAXPROCS goroutines, started lazily on the first parallel pass, that
// every morsel-at-a-time operator fans its partitions across. It was
// promoted out of the grid package so grid refinement, the compiled
// filter kernels and the aggregate passes all share one set of cores
// instead of competing goroutine fleets; every pass is driven from
// engine/morsel.go.
//
// The contract:
//
//   - a Pass fans n partitions of a Runner across the set, running
//     partition 0 on the calling goroutine (the caller never idles on the
//     WaitGroup while there is work);
//   - a panic in any partition is recovered and parked in a per-slot
//     panic slot — a poisoned partition can never strand the resident
//     workers or leave the pass's WaitGroup hanging;
//   - Run returns only after ALL partitions settled, handing the first
//     parked panic back to the caller, which recycles whatever partial
//     state survived and re-raises it for the query layer's recovery.
//
// Runners own their per-partition scratch: RunPartition must release any
// pooled buffers it acquired before letting a panic escape (a deferred
// recover-recycle-repanic), because the pass machinery has no knowledge
// of what a partition allocated.
//
// Scheduling is deliberately dumb: partitions queue on one channel and
// excess partitions (a degree larger than the resident set) simply wait
// for a free worker — work never reorders within a pass's result slots,
// so merges stay deterministic regardless of which worker ran which
// partition.
package morsel

import (
	"runtime"
	"sync"
)

// Runner executes one partition of a parallel pass. Implementations are
// indexed by slot: partition boundaries, result slots and scratch all
// live on the Runner, so the task sent over the channel is two words.
type Runner interface {
	RunPartition(slot int)
}

// Pass is the reusable fan-out record of one parallel pass: the
// WaitGroup the caller parks on and the per-slot panic slots. Embed one
// in pooled operator scratch — it is reusable across passes and adds no
// steady-state allocations once its panic slice has grown to the
// operator's usual degree.
type Pass struct {
	wg     sync.WaitGroup
	panics []any
	r      Runner
}

// task is one queued partition. Sent by value: two words, no allocation.
type task struct {
	p    *Pass
	slot int
}

// The resident worker set: GOMAXPROCS goroutines consuming partition
// tasks from one channel, started lazily on the first parallel pass.
var (
	once    sync.Once
	nworker int
	tasks   chan task
)

func ensureWorkers() {
	once.Do(func() {
		nworker = runtime.GOMAXPROCS(0)
		tasks = make(chan task, 4*nworker)
		for i := 0; i < nworker; i++ {
			go func() {
				for t := range tasks {
					runSlot(t.p, t.slot)
				}
			}()
		}
	})
}

// Workers reports the size of the resident worker set (GOMAXPROCS at
// first use) — the natural upper bound for auto-selected degrees.
// Explicit degrees above it still complete: excess partitions queue.
func Workers() int {
	ensureWorkers()
	return nworker
}

// runSlot executes one partition, recovering any panic below it into the
// pass's per-slot panic slot so the worker (or the calling goroutine)
// survives and the WaitGroup always settles.
func runSlot(p *Pass, slot int) {
	defer p.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			p.panics[slot] = v
		}
	}()
	p.r.RunPartition(slot)
}

// Run fans partitions 0..n-1 of r across the resident worker set,
// running partition 0 on the calling goroutine, and waits for all of
// them to settle. It returns the first parked panic value (nil for a
// clean pass); the caller owns cleanup of surviving partial state and
// the re-raise.
func (p *Pass) Run(n int, r Runner) any {
	if n <= 0 {
		return nil
	}
	p.r = r
	if cap(p.panics) < n {
		p.panics = make([]any, n)
	}
	p.panics = p.panics[:n]
	for i := range p.panics {
		p.panics[i] = nil
	}
	if n == 1 {
		p.wg.Add(1)
		runSlot(p, 0)
		p.r = nil
		return p.panics[0]
	}
	ensureWorkers()
	p.wg.Add(n)
	for slot := 1; slot < n; slot++ {
		tasks <- task{p: p, slot: slot}
	}
	runSlot(p, 0)
	p.wg.Wait()
	p.r = nil
	for _, v := range p.panics {
		if v != nil {
			return v
		}
	}
	return nil
}
