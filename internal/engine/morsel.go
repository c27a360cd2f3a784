// Morsel execution: every engine operator — block filter, fused
// aggregate, dense and hash grouped aggregate, tile scatter, grid
// refinement — is ONE partition body over a span [start, end) of its input
// plus one driver.
// The driver picks a degree, runs the body once per partition through
// morsel.Pass (which executes a single partition inline on the caller, so
// serial execution is simply degree 1 of the same code), and folds
// partitions 1..deg-1 into partition 0 in ascending order — a loop of zero
// iterations at degree 1.
//
// Partition 0 is the output: it appends into the caller's selection
// vector, accumulates in the caller's tile banks, the dense base slab, the
// hash table that becomes the global table and the result columns
// themselves. Only partitions >= 1 draw scratch, so degree 1 pays no copy
// and no merge.
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
// every block boundary and nothing is ever reassociated.
//
// Degree selection lives in morselDegree alone: SetMaxParallel on the run
// caps the fan-out (the SQL layer sets it per run; 0 defers to
// PointCloud.Parallel), clamped by the driving row count so each partition
// carries at least morselMinRows rows — small inputs stay at degree 1,
// where fan-out costs more than it saves.
//
// Lifecycle contract (PR 6): partition scratch is pooled and owned by the
// pass — a partition either recycles what it drew before letting a panic
// escape or parks it in its pass slot, the pass machinery holds per-slot
// panics until every partition settles, and the driver recycles every
// surviving partial before re-raising the first panic for the query
// layer's recovery. Partitions poll the run's cancel token at block
// boundaries (scanChunk blocks in the filter and fused-aggregate loops,
// foldBlock blocks in the grouped fold passes — one pass per value column,
// every accumulator of that column in one loop; groupagg.go — and the grid
// package's refineBlock blocks in refinement); a fired token surfaces from
// the driver with every buffer back in its pool. The engine.morsel.worker
// and engine.morsel.merge faultpoints prove both paths under -tags
// faultinject; they fire only when a pass actually fans out (deg > 1).
package engine

import (
	"math"
	"sync"

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
// rows: the run's explicit cap (SetMaxParallel), else the resident worker
// count when the table opted into auto-parallel execution, clamped so
// every partition carries at least morselMinRows rows. 1 means the whole
// input is partition 0, executed on the caller.
func (pc *PointCloud) morselDegree(run *Run, rows int) int {
	limit := run.MaxParallel()
	if limit == 0 {
		if !pc.Parallel {
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

// --- row-producing passes: block filter, grid refinement -------------------------

// rowSplit is the state the two row-producing passes share: the candidate
// ranges split into partitions, the caller's output vector (partition 0)
// and the result slots of partitions >= 1.
type rowSplit struct {
	pass    morsel.Pass
	partBuf []colstore.Range
	cuts    []int
	parts   [][]colstore.Range
	results [][]int
	out     []int
}

// split cuts cand into at most deg partitions (grid.SplitRangesInto: at
// degree 1 the sole partition is cand itself) and sizes the result slots.
func (s *rowSplit) split(cand []colstore.Range, deg int, out []int) int {
	s.out = out
	s.partBuf, s.cuts, s.parts = grid.SplitRangesInto(cand, deg, s.partBuf, s.cuts, s.parts)
	n := len(s.parts)
	if cap(s.results) < n {
		s.results = make([][]int, n)
	}
	s.results = s.results[:n]
	return n
}

// buf is partition slot's output vector: the caller's for partition 0, a
// pooled one sized for the partition's rows (an upper bound on its
// matches) otherwise. Partitions >= 1 defer settle with it.
func (s *rowSplit) buf(slot int) []int {
	if slot == 0 {
		return s.out
	}
	return getRowBuf(colstore.RangesLen(s.parts[slot]))
}

// settle hands a panicking partition's pooled vector back before the panic
// re-raises into the morsel recovery.
func (s *rowSplit) settle(slot int, buf []int) {
	if p := recover(); p != nil {
		s.results[slot] = nil
		rowPool.Put(buf)
		panic(p)
	}
}

// merge folds a settled pass: unless a partition panicked (p) or the merge
// faultpoint fired, partitions 1.. concatenate behind partition 0 in
// ascending order — disjoint ascending row ranges, so that is row order at
// every degree. Every partial goes back to its pool on every path; the
// caller re-raises p once its pass is back on the free list.
func (s *rowSplit) merge(p any) ([]int, error) {
	n := len(s.parts)
	var err error
	if p == nil {
		err = hitMorselMerge(n)
	}
	out := s.out
	if n > 0 {
		out = s.results[0]
	}
	for i := 1; i < n; i++ {
		if p == nil && err == nil {
			out = append(out, s.results[i]...)
		}
		rowPool.Put(s.results[i])
	}
	clear(s.results)
	clear(s.parts) // a degree-1 partition is the caller's candidate list
	s.out = nil
	return out, err
}

// filterPass drives a compiled kernel with its bound constant record.
type filterPass struct {
	rowSplit
	k   *Kernel
	a   KernelArgs
	all [1]colstore.Range // filterAll's candidate list
}

var filterPasses passFree[filterPass]

// RunPartition drives the block kernel over one partition's ranges.
// Cancellation is polled inside FilterBlock per scanChunk block (the token
// rides in the bound args), so a fired token leaves a partial vector the
// caller discards.
func (fp *filterPass) RunPartition(slot int) {
	buf := fp.buf(slot)
	if slot > 0 {
		defer fp.settle(slot, buf)
	}
	hitMorselWorker(len(fp.parts))
	for _, r := range fp.parts[slot] {
		buf = fp.k.FilterBlock(fp.a, r.Start, r.End, buf)
	}
	fp.results[slot] = buf
}

// filterRanges drives the block kernel over the candidate ranges in deg
// partitions, appending matches to out. A partition panic re-raises here
// after all partitions settle, with every surviving partial already
// recycled; the merge faultpoint's error path proves the same accounting
// without a panic.
func filterRanges(k *Kernel, a KernelArgs, cand []colstore.Range, deg int, out []int) ([]int, error) {
	return filterPasses.get().run(k, a, cand, deg, out)
}

// filterAll is filterRanges over rows [0, n). The one-range candidate
// list lives in the pooled pass: a degree-1 split hands its input on as
// the partition, so a list on the caller's stack would escape to the heap
// on every call.
func filterAll(k *Kernel, a KernelArgs, n, deg int, out []int) ([]int, error) {
	fp := filterPasses.get()
	fp.all[0] = colstore.Range{End: n}
	return fp.run(k, a, fp.all[:], deg, out)
}

func (fp *filterPass) run(k *Kernel, a KernelArgs, cand []colstore.Range, deg int, out []int) ([]int, error) {
	fp.k, fp.a = k, a
	n := fp.split(cand, deg, out)
	p := fp.pass.Run(n, fp)
	out, err := fp.merge(p)
	fp.k, fp.a = nil, KernelArgs{}
	filterPasses.put(fp)
	if p != nil {
		panic(p)
	}
	return out, err
}

// refinePass drives grid refinement: the coordinate columns, the region
// and the per-partition refinement statistics.
type refinePass struct {
	rowSplit
	xs, ys []float64
	region grid.Region
	opts   grid.Options
	stats  []grid.Stats
}

var refinePasses passFree[refinePass]

// RunPartition refines one partition's ranges. Cancellation is polled
// inside grid.RefineInto per candidate block (the token rides in opts).
func (rp *refinePass) RunPartition(slot int) {
	buf := rp.buf(slot)
	if slot > 0 {
		defer rp.settle(slot, buf)
	}
	hitMorselWorker(len(rp.parts))
	rp.results[slot], rp.stats[slot] = grid.RefineInto(rp.xs, rp.ys, rp.parts[slot], rp.region, rp.opts, buf)
}

// refineRanges refines the candidate ranges against region in deg
// partitions, appending matches to out, and sums the partitions' grid
// statistics (CellsTouched counts a cell once per partition that touched
// it; the grid dimensions are the largest any partition chose). Panic and
// error accounting are filterRanges'.
func refineRanges(xs, ys []float64, cand []colstore.Range, region grid.Region, opts grid.Options, deg int, out []int) ([]int, grid.Stats, error) {
	rp := refinePasses.get()
	rp.xs, rp.ys, rp.region, rp.opts = xs, ys, region, opts
	n := rp.split(cand, deg, out)
	if cap(rp.stats) < n {
		rp.stats = make([]grid.Stats, n)
	}
	rp.stats = rp.stats[:n]
	p := rp.pass.Run(n, rp)
	var st grid.Stats
	for _, s := range rp.stats {
		st.CandidateRows += s.CandidateRows
		st.GridCellsX = max(st.GridCellsX, s.GridCellsX)
		st.GridCellsY = max(st.GridCellsY, s.GridCellsY)
		st.CellsTouched += s.CellsTouched
		st.InsideCells += s.InsideCells
		st.BoundaryCells += s.BoundaryCells
		st.OutsideCells += s.OutsideCells
		st.BulkAccepted += s.BulkAccepted
		st.ExactTests += s.ExactTests
		st.Matches += s.Matches
	}
	out, err := rp.merge(p)
	rp.xs, rp.ys, rp.region, rp.opts = nil, nil, nil, grid.Options{}
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
	for b := slot * ap.n / deg; b < end; b += scanChunk {
		if ap.tok.Cancelled() {
			break
		}
		sum, lo, hi = aggColumn(ap.col, ap.rows, ap.all, b, min(b+scanChunk, end), sum, lo, hi)
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
	return nil
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
