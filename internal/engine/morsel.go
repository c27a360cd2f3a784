// Morsel execution: every engine operator — fused aggregate, dense and
// hash grouped aggregate, tile scatter, grid refinement — is ONE partition
// body over a span [start, end) of its input plus one driver.
// The driver picks a degree, runs the body once per partition through
// morsel.Pass (which executes a single partition inline on the caller, so
// serial execution is simply degree 1 of the same code), and folds
// partitions 1..deg-1 into partition 0 in ascending order — a loop of zero
// iterations at degree 1.
//
// Partition 0 is the output: it accumulates in the caller's tile banks,
// the dense base slab, the hash table that becomes the global table and
// the result columns themselves, and appends into the caller's selection
// vector. Only partitions >= 1 draw scratch, so degree 1 pays no copy and
// no merge.
//
// The whole-table filter is the one operator cut into morsels rather than
// spans: the pipelined filter pass (pipePass) filters morsels on every
// partition into the row-offset slots of one vector while partition 0
// consumes them in row order — compacting them (FilterRowsRun) or folding
// them into dense grouped banks (GroupedAggregateRun with predicates).
//
// Determinism contract: output is bit-identical at every degree. That is
// cheap for filters (partitions are disjoint ascending row ranges;
// concatenating partials in ascending-partition order IS row order) and
// provable for count/min/max (counts are exact integers in float64;
// min/max use strict compares seeded at ±Inf, so folding per-partition
// results in ascending-partition order reproduces the ascending row fold
// bit-for-bit — equal-valued ties keep their earliest winner and NaN never
// wins). It is NOT true for sum/avg: float addition is not associative,
// and the aggregate-semantics invariant pins sums bit-identical to the
// ascending row-at-a-time loop — so an operator carrying a sum or avg runs
// at degree 1 (specsMergeExact), where one running accumulator crosses
// every block boundary and nothing is ever reassociated. Behind the
// pipelined filter pass a sum's fold stays on partition 0 in ascending row
// order; only the filter feeding it fans out.
//
// Degree selection lives in morselDegree alone: SetMaxParallel on the run
// caps the fan-out (the SQL layer sets it per run; 0 defers to
// PointCloud.Parallel, which grid refinement ignores), clamped by the
// driving row count so each partition carries at least morselMinRows rows
// — small inputs stay at degree 1, where fan-out costs more than it saves.
//
// Lifecycle contract (PR 6): partition scratch is pooled and owned by the
// pass — a partition either recycles what it drew before letting a panic
// escape or parks it in its pass slot, the pass machinery holds per-slot
// panics until every partition settles, and the driver recycles every
// surviving partial before re-raising the first panic for the query
// layer's recovery. Every partition loop ranges over the run token's
// cancel.Token.Blocks, which polls before each block: scanChunk blocks in
// the filter kernels and the fused aggregate, foldBlock blocks in the tile
// scatter and the grouped fold passes (one pass per value column, every
// accumulator of that column in one loop; groupagg.go), and the grid
// package's refineBlock blocks in refinement. A fired token ends the loop
// at the next block boundary; the driver checks the token once after the
// pass and surfaces the cancellation with every buffer back in its pool.
// The engine.morsel.worker and engine.morsel.merge faultpoints prove both
// paths under -tags faultinject; they fire only when a pass actually fans
// out (deg > 1).
package engine

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
	"gisnav/internal/faultpoint"
	"gisnav/internal/grid"
	"gisnav/internal/morsel"
)

// morselMinRows is the minimum row count per partition: below two
// partitions' worth degree 1 wins (a 1<<17-row crossover for every
// operator, grid refinement included).
const morselMinRows = 1 << 16

// morselDegree picks the fan-out degree for an operator driving rows
// rows: the run's explicit cap (SetMaxParallel), else — for an operator
// whose fan-out pays (auto) — the resident worker count when the table
// opted into auto-parallel execution, clamped so every partition carries
// at least morselMinRows rows. 1 means the whole input is partition 0,
// executed on the caller.
//
// Grid refinement passes auto = false: it fans out under an explicit cap
// only. Fanned out by default it cost navbench's served pan.bbox 9 % of
// step_p50_ms on a 2-vCPU Xeon (0 of 5 pairs better), although a hot
// in-process loop over one 1 M-row table gains from it (a box selecting
// 95 %: 5.1 ms at degree 1, 3.5 ms at degree 2).
func (pc *PointCloud) morselDegree(run *Run, rows int, auto bool) int {
	limit := run.MaxParallel()
	if limit == 0 {
		if !pc.Parallel || !auto {
			return 1
		}
		limit = morsel.Workers()
	}
	if limit <= 1 {
		return 1
	}
	d := rows / morselMinRows
	if d < 2 {
		return 1
	}
	if d > limit {
		d = limit
	}
	return d
}

// specsMergeExact reports whether every requested aggregate merges
// exactly across partitions: count (exact integer arithmetic in float64)
// and min/max (strict folds, order-associative). Sum and avg are
// excluded — float addition is not associative, and the aggregate
// semantics contract pins sums bit-identical to the ascending
// row-at-a-time fold — so plans containing them run at degree 1.
func specsMergeExact(specs []GroupedAggSpec) bool {
	for _, s := range specs {
		switch s.Fn {
		case AggCount, AggMin, AggMax:
		default:
			return false
		}
	}
	return true
}

// hitMorselWorker is the top-of-partition fault point. It fires only when
// the pass fans out: a degree-1 run must never look like a worker.
func hitMorselWorker(deg int) {
	if deg > 1 {
		if err := faultpoint.Hit("engine.morsel.worker"); err != nil {
			panic(err)
		}
	}
}

// hitMorselMerge is the fault point ahead of the ascending fold; like the
// worker point it exists only when there is something to fold.
func hitMorselMerge(deg int) error {
	if deg > 1 {
		return faultpoint.Hit("engine.morsel.merge")
	}
	return nil
}

// passFree is the mutex-backed free list behind the pooled operator pass
// scratch. A sync.Pool would be idiomatic, but the race detector drops
// sync.Pool puts, which would fail the AllocsPerRun == 0 steady-state
// tests under the -race CI job (the SQL layer's runStatePool documents
// the same trade-off).
type passFree[T any] struct {
	mu   sync.Mutex
	free []*T
}

func (p *passFree[T]) get() *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free = p.free[:n-1]
		return t
	}
	return new(T)
}

func (p *passFree[T]) put(t *T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < 16 {
		p.free = append(p.free, t)
	}
}

// --- pipelined filter pass ------------------------------------------------------

// pipeMorselRows is the morsel of the pipelined filter pass: two fold
// blocks, so a morsel a worker filtered is still cache-warm when the
// consumer takes it.
const pipeMorselRows = 2 * foldBlock

// pipeFailed is the state word of a morsel whose producer panicked.
const pipeFailed = -1

// pipePred is one bound predicate of a pipelined pass.
type pipePred struct {
	k *Kernel
	a KernelArgs
}

// pipePass is the pooled scaffolding of the pipelined filter pass: a
// predicate chain over rows [0, n) feeding one consumer. The table is cut
// into morsels of pipeMorselRows rows that partitions claim from one
// counter. Morsel i is filtered into its row-offset slot out[i·m:] of one
// table-sized vector — no other morsel's matches reach it, so partitions
// share the vector with no buffer of their own and no merge — and
// published by one atomic store into its state word: 0 while unpublished,
// 1+count once filtered, pipeFailed if its producer panicked.
//
// Partition 0, on the caller, is the consumer: it takes the morsels in
// ascending order, and while the next one is unpublished it claims and
// filters unclaimed morsels itself instead of waiting. At degree 1 it
// claims every morsel in turn, so serial execution is the fused
// filter→consume loop. Two consumers:
//
//   - fold: foldSpecs over each morsel's rows, the banks carried across
//     morsels and seeded by the first, so every slot keeps one running
//     accumulator over ascending rows and sums are bit-identical at every
//     degree — only the filter fans out;
//   - compact: each morsel's rows move down to the output's end; a morsel
//     the consumer filters in turn is written there directly.
type pipePass struct {
	pass   morsel.Pass
	preds  []pipePred
	n, deg int
	out    []int
	claim  atomic.Int64
	state  []atomic.Int64
	w      int // matches taken: the compact output's end

	// The fold consumer (fold set): the dense slot source, the plan and
	// the banks of one dense partition slab.
	fold   bool
	seeded bool
	src    foldSrc
	pc     *PointCloud
	specs  []GroupedAggSpec
	cnt    []float64
	fb     foldBanks
	sink   []float64
	tok    *cancel.Token
}

var pipePasses passFree[pipePass]

// RunPartition runs the consumer on slot 0 and a producer elsewhere. A
// producer that panics publishes the morsel it holds as failed on the way
// out, so the consumer never waits on it.
func (pp *pipePass) RunPartition(slot int) {
	if slot == 0 {
		pp.consume()
		return
	}
	held := -1
	defer func() {
		if held >= 0 {
			pp.state[held].Store(pipeFailed)
		}
	}()
	hitMorselWorker(pp.deg)
	for held = pp.claimMorsel(); held >= 0; held = pp.claimMorsel() {
		pp.state[held].Store(int64(pp.filterMorsel(held, held*pipeMorselRows)) + 1)
	}
}

// consume takes the morsels in ascending order. It stops at a failed
// morsel (the producer's panic re-raises from the pass) and, on every
// exit, exhausts the claim counter so producers stop claiming.
func (pp *pipePass) consume() {
	m := len(pp.state)
	defer pp.claim.Store(int64(m))
	hitMorselWorker(pp.deg)
	for next := 0; next < m; {
		if st := pp.state[next].Load(); st == pipeFailed {
			return
		} else if st > 0 {
			pp.take(next*pipeMorselRows, int(st-1))
			next++
			continue
		}
		i := pp.claimMorsel()
		if i < 0 {
			runtime.Gosched() // morsel next is in a producer's hands
			continue
		}
		at := i * pipeMorselRows
		if i == next && !pp.fold {
			at = pp.w
		}
		c := pp.filterMorsel(i, at)
		if i == next {
			pp.take(at, c)
			next++
		} else {
			pp.state[i].Store(int64(c) + 1)
		}
	}
}

// claimMorsel claims the next unclaimed morsel, or returns -1 when every
// morsel is claimed.
func (pp *pipePass) claimMorsel() int {
	if i := int(pp.claim.Add(1)) - 1; i < len(pp.state) {
		return i
	}
	return -1
}

// filterMorsel writes the matches of morsel i to out[at:] and returns how
// many there are: the first predicate's block kernel over the morsel's
// rows, then each further predicate compacting that slice in place. at
// never exceeds the morsel's first row, so the writes stay below the next
// morsel's slot (and the vector never grows). Cancellation is polled per
// scanChunk block inside the kernels.
func (pp *pipePass) filterMorsel(i, at int) int {
	lo := i * pipeMorselRows
	p := pp.preds[0]
	rows := p.k.FilterBlock(p.a, lo, min(lo+pipeMorselRows, pp.n), pp.out[at:at])
	for _, p := range pp.preds[1:] {
		rows = p.k.FilterSel(p.a, rows, rows[:0])
	}
	return len(rows)
}

// take consumes the c matches at out[at:]: the fold consumer folds them,
// the compact one moves them to the output's end.
func (pp *pipePass) take(at, c int) {
	rows := pp.out[at : at+c]
	if pp.fold {
		foldSpecs(pp.src, pp.pc, pp.specs, rows, false, 0, c, pp.cnt, pp.fb, pp.sink, !pp.seeded, pp.tok)
		pp.seeded = true
	} else if at != pp.w {
		copy(pp.out[pp.w:], rows)
	}
	pp.w += c
}

// bind compiles and binds preds into the pass.
func (pp *pipePass) bind(run *Run, pc *PointCloud, preds []ColumnPred) error {
	for _, pred := range preds {
		k, a, err := pc.bindPred(run, pred)
		if err != nil {
			return err
		}
		pp.preds = append(pp.preds, pipePred{k, a})
	}
	return nil
}

// run drives the bound pass over rows [0, n) at degree deg, out (capacity
// at least n) being the slot vector, and returns the match count. It
// returns the pass to its free list on every path; a partition panic
// re-raises here once every partition settled.
func (pp *pipePass) run(n, deg int, out []int) (int, error) {
	nm := (n + pipeMorselRows - 1) / pipeMorselRows
	if cap(pp.state) < nm {
		pp.state = make([]atomic.Int64, nm)
	}
	pp.state = pp.state[:nm]
	for i := range pp.state {
		pp.state[i].Store(0)
	}
	pp.claim.Store(0)
	pp.n, pp.deg, pp.out, pp.w = n, deg, out[:n], 0
	p := pp.pass.Run(deg, pp)
	w := pp.w
	pp.release()
	if p != nil {
		panic(p)
	}
	return w, hitMorselMerge(deg)
}

// release clears the pass's references and returns it to its free list.
func (pp *pipePass) release() {
	clear(pp.preds)
	pp.preds, pp.out = pp.preds[:0], nil
	pp.fold, pp.seeded, pp.src, pp.pc, pp.specs = false, false, foldSrc{}, nil, nil
	pp.cnt, pp.fb, pp.sink, pp.tok = nil, foldBanks{}, nil, nil
	pipePasses.put(pp)
}

// filterAll is the compact consumer: the rows of [0, n) matching the bound
// kernel, in row order, in out (capacity at least n).
func filterAll(k *Kernel, a KernelArgs, n, deg int, out []int) ([]int, error) {
	pp := pipePasses.get()
	pp.preds = append(pp.preds, pipePred{k, a})
	w, err := pp.run(n, deg, out)
	return out[:w], err
}

// runPipeFold is the dense strategy behind a whole-table predicate chain:
// the fold consumer over the matches of preds into one dense slab, then
// runDensePass's ascending domain scan. It returns the match count.
func runPipeFold(run *Run, pc *PointCloud, src foldSrc, dom int, preds []ColumnPred, specs []GroupedAggSpec, res *GroupedResult, deg int) (int, error) {
	n := pc.Len()
	stride := denseStride(dom, len(specs))
	slab := run.trackF64(getF64Buf(stride))[:stride]
	defer run.recycleF64(slab)
	out := run.TrackRows(getRowBuf(n))
	defer run.RecycleRows(out)
	if err := groupPassCheckpoint(run); err != nil {
		return 0, err
	}
	pp := pipePasses.get()
	if err := pp.bind(run, pc, preds); err != nil {
		pp.release()
		return 0, err
	}
	seedBank(slab[:dom], AggCount)
	pp.fold, pp.src, pp.pc, pp.specs, pp.tok = true, src, pc, specs, run.Token()
	pp.cnt, pp.fb, pp.sink = slab[:dom], foldBanks{flat: slab[dom:], n: dom}, slab[stride-dom-1:]
	matched, err := pp.run(n, deg, out)
	if err != nil {
		return 0, err
	}
	if run.Cancelled() {
		return 0, cancel.ErrCancelled
	}
	emitDense(slab, dom, specs, res)
	return matched, nil
}

// --- refinement --------------------------------------------------------------------

// refinePass drives grid refinement: the candidate ranges split into
// partitions, the caller's output vector (partition 0), the result slots
// and statistics of every partition, the coordinate columns and the region.
type refinePass struct {
	pass    morsel.Pass
	partBuf []colstore.Range
	cuts    []int
	parts   [][]colstore.Range
	results [][]int
	stats   []grid.Stats
	out     []int
	xs, ys  []float64
	region  grid.Region
	opts    grid.Options
}

var refinePasses passFree[refinePass]

// RunPartition refines one partition's ranges into the caller's vector
// (partition 0) or a pooled one sized for the partition's rows, an upper
// bound on its matches. Cancellation is polled inside grid.RefineInto per
// candidate block (the token rides in opts).
func (rp *refinePass) RunPartition(slot int) {
	buf := rp.out
	if slot > 0 {
		buf = getRowBuf(colstore.RangesLen(rp.parts[slot]))
		defer rp.settle(slot, buf)
	}
	hitMorselWorker(len(rp.parts))
	rp.results[slot], rp.stats[slot] = grid.RefineInto(rp.xs, rp.ys, rp.parts[slot], rp.region, rp.opts, buf)
}

// settle hands a panicking partition's pooled vector back before the panic
// re-raises into the morsel recovery.
func (rp *refinePass) settle(slot int, buf []int) {
	if p := recover(); p != nil {
		rp.results[slot] = nil
		rowPool.Put(buf)
		panic(p)
	}
}

// refineRanges refines the candidate ranges against region in at most deg
// partitions (grid.SplitRangesInto: at degree 1 the sole partition is cand
// itself), appending matches to out, and sums the partitions' grid
// statistics (grid.Stats.Add). Unless a partition panicked or the merge
// faultpoint fired, partitions 1.. concatenate behind partition 0 in
// ascending order — disjoint ascending row ranges, so that is row order at
// every degree. Every partial goes back to its pool on every path; a
// partition panic re-raises once the pass is back on its free list.
func refineRanges(xs, ys []float64, cand []colstore.Range, region grid.Region, opts grid.Options, deg int, out []int) ([]int, grid.Stats, error) {
	rp := refinePasses.get()
	rp.xs, rp.ys, rp.region, rp.opts, rp.out = xs, ys, region, opts, out
	rp.partBuf, rp.cuts, rp.parts = grid.SplitRangesInto(cand, deg, rp.partBuf, rp.cuts, rp.parts)
	n := len(rp.parts)
	if cap(rp.results) < n {
		rp.results = make([][]int, n)
		rp.stats = make([]grid.Stats, n)
	}
	rp.results, rp.stats = rp.results[:n], rp.stats[:n]
	p := rp.pass.Run(n, rp)
	var st grid.Stats
	for _, s := range rp.stats {
		st.Add(s)
	}
	var err error
	if p == nil {
		err = hitMorselMerge(n)
	}
	if n > 0 {
		out = rp.results[0]
	}
	for i := 1; i < n; i++ {
		if p == nil && err == nil {
			out = append(out, rp.results[i]...)
		}
		rowPool.Put(rp.results[i])
	}
	clear(rp.results)
	clear(rp.parts) // a degree-1 partition is the caller's candidate list
	rp.xs, rp.ys, rp.region, rp.opts, rp.out = nil, nil, nil, grid.Options{}, nil
	refinePasses.put(rp)
	if p != nil {
		panic(p)
	}
	return out, st, err
}

// --- fused sum/min/max aggregate ------------------------------------------------

// aggFold is one partition's fused fold result.
type aggFold struct{ sum, lo, hi float64 }

// aggPass is the pooled scaffolding of one fused aggregate pass. Partition
// bounds derive from (n, len(folds)) per slot and the folds land in
// preallocated slots — partitions own no pooled buffers, so a partition
// panic has nothing to drain.
type aggPass struct {
	pass  morsel.Pass
	col   colstore.Column
	rows  []int
	all   bool
	n     int
	folds []aggFold
	tok   *cancel.Token
}

var aggPasses passFree[aggPass]

// RunPartition folds one partition's sum/min/max in scanChunk blocks,
// polling the run's token at every block boundary. The accumulators are
// carried ACROSS blocks (never sum += blockSum, which would reassociate),
// so the fold is the ascending row-at-a-time fold whatever the block size.
func (ap *aggPass) RunPartition(slot int) {
	deg := len(ap.folds)
	hitMorselWorker(deg)
	sum, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
	end := (slot + 1) * ap.n / deg
	for b0, b1 := range ap.tok.Blocks(slot*ap.n/deg, end, scanChunk) {
		sum, lo, hi = aggColumn(ap.col, ap.rows, ap.all, b0, b1, sum, lo, hi)
	}
	ap.folds[slot] = aggFold{sum, lo, hi}
}

// runAggPass computes the fused sum/min/max over the selection in deg
// partitions and folds min/max of partitions 1.. into partition 0 in
// ascending order. The sum is partition 0's alone: callers that read it
// pass deg == 1 (sum/avg pin the degree), where partition 0 is the whole
// selection.
func runAggPass(run *Run, col colstore.Column, rows []int, all bool, n, deg int) (sum, lo, hi float64, err error) {
	ap := aggPasses.get()
	ap.col, ap.rows, ap.all, ap.n = col, rows, all, n
	ap.tok = run.Token()
	if cap(ap.folds) < deg {
		ap.folds = make([]aggFold, deg)
	}
	ap.folds = ap.folds[:deg]
	p := ap.pass.Run(deg, ap)
	f := ap.folds[0]
	for _, w := range ap.folds[1:] {
		if w.lo < f.lo {
			f.lo = w.lo
		}
		if w.hi > f.hi {
			f.hi = w.hi
		}
	}
	ap.col, ap.rows, ap.tok = nil, nil, nil
	aggPasses.put(ap)
	if p != nil {
		panic(p)
	}
	return f.sum, f.lo, f.hi, hitMorselMerge(deg)
}

// --- dense grouped aggregation --------------------------------------------------

// densePass is the pooled scaffolding of one dense grouped pass. Partition
// slabs are disjoint stretches of one run-tracked buffer, each laid out
// [count | spec 0 | spec 1 | ... | sink] — slab 0 is the base the emit
// reads — so partitions own no pooled buffers and a partition panic has
// nothing to drain.
type densePass struct {
	pass        morsel.Pass
	src         foldSrc
	pc          *PointCloud
	rows        []int
	all         bool
	n, deg, dom int
	specs       []GroupedAggSpec
	banks       []float64
	tok         *cancel.Token
}

var densePasses passFree[densePass]

// denseStride is the slab length of one dense partition: the count bank,
// one bank per spec, and the fold sink.
func denseStride(dom, nspecs int) int { return dom*(2+nspecs) + 1 }

// RunPartition folds one partition into this slot's slab through the
// shared fold plan: one pass per value column, the count riding the first.
func (dp *densePass) RunPartition(slot int) {
	hitMorselWorker(dp.deg)
	stride := denseStride(dp.dom, len(dp.specs))
	slab := dp.banks[slot*stride : (slot+1)*stride]
	cnt, sink := slab[:dp.dom], slab[stride-dp.dom-1:]
	seedBank(cnt, AggCount)
	fb := foldBanks{flat: slab[dp.dom:], n: dp.dom}
	start, end := slot*dp.n/dp.deg, (slot+1)*dp.n/dp.deg
	foldSpecs(dp.src, dp.pc, dp.specs, dp.rows, dp.all, start, end, cnt, fb, sink, true, dp.tok)
}

// runDensePass is the array-indexed strategy: per-partition slabs of dom
// slots per aggregate (plus the shared count bank), slabs 1.. folded into
// the base slab in ascending order (counts sum exactly; min/max fold
// strictly; sum/avg only ever see degree 1), then an ascending domain
// scan emits the non-empty groups — the keys therefore come out already
// in FloatOrderKey order. src carries the u8 or u16 key slice.
func runDensePass(run *Run, pc *PointCloud, src foldSrc, dom int, rows []int, all bool, n int, specs []GroupedAggSpec, res *GroupedResult, deg int) error {
	stride := denseStride(dom, len(specs))
	banks := run.trackF64(getF64Buf(deg * stride))[:deg*stride]
	defer run.recycleF64(banks)
	if err := groupPassCheckpoint(run); err != nil {
		return err
	}
	dp := densePasses.get()
	dp.src, dp.pc, dp.rows, dp.all = src, pc, rows, all
	dp.n, dp.deg, dp.dom = n, deg, dom
	dp.specs, dp.banks = specs, banks
	dp.tok = run.Token()
	p := dp.pass.Run(deg, dp)
	dp.src, dp.pc, dp.rows, dp.specs, dp.banks, dp.tok = foldSrc{}, nil, nil, nil, nil, nil
	densePasses.put(dp)
	if p != nil {
		panic(p)
	}
	if err := hitMorselMerge(deg); err != nil {
		return err
	}
	if run.Cancelled() {
		return cancel.ErrCancelled
	}
	base := banks[:stride]
	for w := 1; w < deg; w++ {
		wb := banks[w*stride : (w+1)*stride]
		foldBank(base[:dom], wb[:dom], AggCount)
		for j, s := range specs {
			if s.Fn != AggCount {
				foldBank(base[(1+j)*dom:(2+j)*dom], wb[(1+j)*dom:(2+j)*dom], s.Fn)
			}
		}
	}
	emitDense(base, dom, specs, res)
	return nil
}

// emitDense appends the non-empty groups of a folded dense slab to res in
// ascending key order — already FloatOrderKey order.
func emitDense(base []float64, dom int, specs []GroupedAggSpec, res *GroupedResult) {
	for k, c := range base[:dom] {
		if c == 0 {
			continue
		}
		res.Keys = append(res.Keys, float64(k))
		for j, s := range specs {
			v := base[(1+j)*dom+k]
			switch s.Fn {
			case AggCount:
				v = c
			case AggAvg:
				v /= c
			}
			res.Cols[j] = append(res.Cols[j], v)
		}
	}
}

// --- hash grouped aggregation ---------------------------------------------------

// hashPass is the pooled scaffolding of one hash grouped pass. Each
// partition builds a local group table, a span-aligned slot vector and a
// scratch bank (the fold sink; for partitions >= 1 the accumulators too),
// published in its pass slot as they are drawn — so whichever way a partition ends, the driver's finish
// recycles exactly what was acquired.
type hashPass struct {
	pass   morsel.Pass
	keyCol colstore.Column
	specs  []GroupedAggSpec
	pc     *PointCloud
	rows   []int
	all    bool
	n      int
	res    *GroupedResult
	gs     []groupHash
	slotsv [][]int
	banks  [][]float64
	tok    *cancel.Token
}

var hashPasses passFree[hashPass]

// RunPartition builds this partition's groups: pass 0 assigns a local
// group slot to every row of the span (recorded in the slot vector); the
// shared fold plan then runs one re-hash-free pass per value column over
// the slot vector, the group sizes riding the first. The partition's
// scratch bank is the fold sink followed, for partitions >= 1, by one
// groups-long segment per spec; partition 0 accumulates straight into the
// result columns.
func (hp *hashPass) RunPartition(slot int) {
	deg := len(hp.gs)
	hitMorselWorker(deg)
	start, end := slot*hp.n/deg, (slot+1)*hp.n/deg
	pn := end - start
	tabSize := 1 << 10
	for tabSize < 4*pn && tabSize < 1<<20 {
		tabSize <<= 1
	}
	hp.gs[slot] = groupHash{
		table: getRowBuf(tabSize)[:tabSize],
		keys:  getF64Buf(64),
		cnt:   getF64Buf(64),
	}
	g := &hp.gs[slot]
	clear(g.table)
	slots := getRowBuf(pn)[:pn]
	hp.slotsv[slot] = slots
	hashKeyCol(hp.keyCol, hp.rows, hp.all, start, end, g, slots)
	groups := len(g.keys)
	size := groups + 1
	if slot > 0 {
		size += len(hp.specs) * groups
	}
	bank := getF64Buf(size)[:size]
	hp.banks[slot] = bank
	fb := foldBanks{flat: bank[groups+1:], n: groups}
	if slot == 0 {
		fb = foldBanks{segs: hp.res.Cols}
		for j, s := range hp.specs {
			if s.Fn == AggCount {
				continue // appended from the group counts at emit
			}
			if cap(fb.segs[j]) < groups {
				fb.segs[j] = make([]float64, groups)
			}
			fb.segs[j] = fb.segs[j][:groups]
		}
	}
	foldSpecs(foldSrc{slots: slots}, hp.pc, hp.specs, hp.rows, hp.all, start, end, g.cnt, fb, bank[:groups+1], true, hp.tok)
}

// finish recycles every partition buffer and returns the pass to its free
// list; deferred by the driver so it runs on every exit path, the
// re-raised partition panic included.
func (hp *hashPass) finish() {
	for w := range hp.gs {
		rowPool.Put(hp.gs[w].table)
		f64Pool.Put(hp.gs[w].keys)
		f64Pool.Put(hp.gs[w].cnt)
		rowPool.Put(hp.slotsv[w])
		f64Pool.Put(hp.banks[w])
	}
	clear(hp.gs)
	clear(hp.slotsv)
	clear(hp.banks)
	hp.keyCol, hp.specs, hp.pc, hp.rows, hp.res, hp.tok = nil, nil, nil, nil, nil, nil
	hashPasses.put(hp)
}

// runHashPass is the general-key strategy: per-partition group tables
// over disjoint spans, partitions 1.. merged into partition 0's table in
// ascending order. Ascending merge makes the global first-appearance
// order the row order (partition w's rows all precede partition w+1's),
// so the stored key value of every group — NaN payload included — is its
// first-seen value at every degree; counts sum exactly and min/max fold
// strictly, and the final FloatOrderKey sort orders the emitted record.
func runHashPass(run *Run, pc *PointCloud, keyCol colstore.Column, rows []int, all bool, n int, specs []GroupedAggSpec, res *GroupedResult, deg int) error {
	if err := groupPassCheckpoint(run); err != nil {
		return err
	}
	hp := hashPasses.get()
	hp.keyCol, hp.specs, hp.pc = keyCol, specs, pc
	hp.rows, hp.all, hp.n, hp.res = rows, all, n, res
	hp.tok = run.Token()
	if cap(hp.gs) < deg {
		hp.gs = make([]groupHash, deg)
		hp.slotsv = make([][]int, deg)
		hp.banks = make([][]float64, deg)
	}
	hp.gs, hp.slotsv, hp.banks = hp.gs[:deg], hp.slotsv[:deg], hp.banks[:deg]
	defer hp.finish()
	if p := hp.pass.Run(deg, hp); p != nil {
		panic(p)
	}
	if err := hitMorselMerge(deg); err != nil {
		return err
	}
	if run.Cancelled() {
		return cancel.ErrCancelled
	}

	g := &hp.gs[0]
	for w := 1; w < deg; w++ {
		lg := &hp.gs[w]
		lgroups := len(lg.keys)
		// The partition's slot vector is dead once its accumulate passes
		// ran; its head becomes the local→global slot map, so the bank
		// folds below never re-hash.
		remap := hp.slotsv[w][:lgroups]
		for l, key := range lg.keys {
			s := g.slotOf(key)
			g.cnt[s] += lg.cnt[l]
			remap[l] = s
		}
		for j, s := range specs {
			if s.Fn != AggMin && s.Fn != AggMax {
				continue
			}
			col := res.Cols[j]
			for len(col) < len(g.keys) {
				col = append(col, aggSeed(s.Fn)) // groups first seen in partition w
			}
			res.Cols[j] = col
			for l, v := range hp.banks[w][lgroups+1:][j*lgroups : (j+1)*lgroups] {
				if s.Fn == AggMin {
					if v < col[remap[l]] {
						col[remap[l]] = v
					}
				} else if v > col[remap[l]] {
					col[remap[l]] = v
				}
			}
		}
	}
	res.Keys = append(res.Keys, g.keys...)
	for j, s := range specs {
		switch s.Fn {
		case AggCount:
			res.Cols[j] = append(res.Cols[j], g.cnt...)
		case AggAvg:
			for i := range res.Cols[j] {
				res.Cols[j][i] /= g.cnt[i]
			}
		}
	}
	sortGrouped(res)
	return nil
}
