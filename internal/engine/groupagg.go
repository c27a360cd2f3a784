// Grouped-aggregation kernels: GROUP BY over one key column with typed
// accumulate passes over the value columns, executed column-at-a-time in the
// MonetDB style the paper's performance case rests on (§2.1.1). The paper's
// navigation workload re-aggregates the viewport on every pan/zoom step
// (class histograms, per-class elevation stats), so this layer is built for
// the repeated case: accumulator scratch comes from the striped pools and
// the result lands in a caller-owned reusable record, leaving a steady-state
// dense-path run with zero heap allocations.
//
// Two strategies, chosen per run from the key column type and the selection
// size:
//
//   - dense: small-domain integer keys (u8/u16 class-style columns). The
//     accumulator is an array bank indexed directly by key value — the same
//     insight as the vector table's per-class posting lists: a class-coded
//     column IS its own perfect hash. One gather-free pass per aggregate.
//   - hash: general keys (f64/i64/i32, or u16 selections too small to repay
//     clearing a 64K bank). Open-addressed table over the float64-widened
//     key bits, group slots assigned on first appearance; a slot vector
//     aligned with the selection lets every aggregate pass run without
//     re-hashing.
//
// Semantics contract (shared with Aggregate and the SQL layer's interpreter
// fallback): values widen to float64 exactly as Column.Value does;
// accumulation runs in ascending row order per group, so sums are
// bit-identical to a row-at-a-time loop; min/max seed at ±Inf with strict
// compares, so NaN values never win them; sum/avg propagate NaN. Key
// identity is float64-bit identity with every NaN collapsed to one group
// (matching the SQL layer, where all NaNs render as one key) and -0/+0 kept
// distinct. Groups are emitted in the total order of FloatOrderKey —
// ascending numeric, -0 before +0, NaN last — on both strategies.
package engine

import (
	"fmt"
	"math"
	"time"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
	"gisnav/internal/faultpoint"
)

// GroupedAggSpec is one requested aggregate of a grouped run. Column names
// the value column; AggCount ignores it (count(*) and count(col) over the
// NULL-free flat table are both the group size).
type GroupedAggSpec struct {
	Fn     AggFunc
	Column string
}

// Grouped-aggregation strategy labels, surfaced through EXPLAIN.
const (
	GroupDense = "dense"
	GroupHash  = "hash"
)

// GroupedResult is the reusable output record of GroupedAggregate: Keys[i]
// is the float64-widened key of group i, Cols[j][i] the j-th requested
// aggregate over it. Buffers are retained across calls — a caller that keeps
// one GroupedResult per repeated statement reaches a zero-allocation steady
// state. Contents are valid until the next GroupedAggregate call on the
// same record.
type GroupedResult struct {
	Keys     []float64
	Cols     [][]float64
	Strategy string
}

// reset prepares the record for nspecs aggregates, retaining capacity.
func (r *GroupedResult) reset(nspecs int) {
	r.Keys = r.Keys[:0]
	if cap(r.Cols) < nspecs {
		r.Cols = make([][]float64, nspecs)
	}
	r.Cols = r.Cols[:nspecs]
	for j := range r.Cols {
		r.Cols[j] = r.Cols[j][:0]
	}
}

// Groups reports the number of groups in the result.
func (r *GroupedResult) Groups() int { return len(r.Keys) }

// FloatOrderKey maps a float64 to a uint64 whose unsigned order is a total
// order over all float values: ascending numerically, -0 before +0, and
// every NaN (canonicalised) after +Inf. Grouped results are emitted in this
// order on every strategy, and the SQL layer sorts its interpreter-fallback
// groups with the same key so the two paths are order-identical.
func FloatOrderKey(v float64) uint64 {
	b := canonicalBits(v)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// canonicalBits is the group-identity bit pattern of a key value: the IEEE
// bits with every NaN payload collapsed to one representative, so NaN keys
// form a single group instead of one per payload.
func canonicalBits(v float64) uint64 {
	if v != v {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

// denseMinRowsPerSlot gates the dense strategy for the u16 domain: clearing
// and scanning a 64K-slot bank per aggregate only repays when the selection
// carries enough rows. Below dom/denseMinRowsPerSlot rows the hash path wins.
const denseMinRowsPerSlot = 4

// GroupedAggregate computes the specs over the rows selection (nil means all
// rows) grouped by the key column, into res. The strategy — dense
// array-indexed banks for u8/u16 keys, the hash table otherwise — is
// recorded in res.Strategy and the EXPLAIN step. Scratch comes from the
// engine's striped pools; with res reused across calls, a steady-state run
// allocates nothing.
func (pc *PointCloud) GroupedAggregate(rows []int, key string, specs []GroupedAggSpec, res *GroupedResult, ex *Explain) error {
	return pc.GroupedAggregateRun(nil, rows, key, specs, res, ex)
}

// groupPassCheckpoint is the checkpoint every grouped driver (dense, hash,
// tile) crosses before its accumulate passes fan out, with the run-scoped
// slab already tracked: a fault-injection point plus one cancellation
// poll. Inside a partition this layer executes operator-at-a-time — one
// full accumulate pass is its "block" — and the token is polled between
// passes.
func groupPassCheckpoint(run *Run) error {
	if err := faultpoint.Hit("engine.groupagg.pass"); err != nil {
		return err
	}
	if run.Cancelled() {
		return cancel.ErrCancelled
	}
	return nil
}

// GroupedAggregateRun is GroupedAggregate under a query lifecycle: the
// pooled accumulator banks and hash scratch register in run's release
// list, and the pass boundaries poll the run's cancellation token — a
// fired context stops the aggregation between passes with every buffer
// back in its pool and res in an unspecified (but safe to reuse) state.
func (pc *PointCloud) GroupedAggregateRun(run *Run, rows []int, key string, specs []GroupedAggSpec, res *GroupedResult, ex *Explain) error {
	start := time.Now()
	keyCol := pc.Column(key)
	if keyCol == nil {
		return fmt.Errorf("engine: unknown group key column %q", key)
	}
	n := len(rows)
	all := rows == nil
	if all {
		n = pc.Len()
	}
	// Validate specs before touching any scratch: value columns must exist
	// and the function must be known (count ignores its column).
	for _, s := range specs {
		switch s.Fn {
		case AggCount:
		case AggSum, AggAvg, AggMin, AggMax:
			if pc.Column(s.Column) == nil {
				return fmt.Errorf("engine: unknown aggregate column %q", s.Column)
			}
		default:
			return fmt.Errorf("engine: unknown aggregate %d", s.Fn)
		}
	}
	res.reset(len(specs))

	// Strategy choice is independent of the degree (so the recorded
	// strategy and the output are the same at every degree); within a
	// strategy, large inputs fan across the resident worker set when every
	// spec merges exactly across partitions (specsMergeExact — sum/avg
	// plans pin degree 1 to keep sums bit-identical to the ascending fold).
	deg := 1
	if specsMergeExact(specs) {
		deg = pc.morselDegree(run, n)
	}
	var err error
	switch k := keyCol.(type) {
	case *colstore.U8Column:
		res.Strategy = GroupDense
		err = runDensePass(run, pc, k.Values(), nil, 1<<8, rows, all, n, specs, res, deg)
	case *colstore.U16Column:
		if n >= (1<<16)/denseMinRowsPerSlot {
			res.Strategy = GroupDense
			err = runDensePass(run, pc, nil, k.Values(), 1<<16, rows, all, n, specs, res, deg)
			break
		}
		res.Strategy = GroupHash
		err = runHashPass(run, pc, keyCol, rows, all, n, specs, res, deg)
	default:
		res.Strategy = GroupHash
		err = runHashPass(run, pc, keyCol, rows, all, n, specs, res, deg)
	}
	if err != nil {
		return err
	}
	if ex != nil {
		detail := fmt.Sprintf("%s key %s, %d aggs", res.Strategy, key, len(specs))
		ex.Add(opGroupAgg, parDetail(detail, deg), n, len(res.Keys), time.Since(start))
	}
	return nil
}

// --- dense path ----------------------------------------------------------------

// denseKey covers the key column element types with array-indexable domains.
type denseKey interface {
	~uint8 | ~uint16
}

// colSpan narrows a column's backing slice to a partition span: the
// all-rows form scans vals[start:end] directly, the selection form gathers
// through rows[start:end] and keeps the whole column addressable.
func colSpan[V any](vals []V, all bool, start, end int) []V {
	if all {
		return vals[start:end]
	}
	return vals
}

// denseCount is the group-size pass over the span [start, end) of the
// selection: one increment per selected row into the key-indexed count bank.
// Kept out of line: inlined into the partition body its loop inherits that
// function's register pressure and reloads a spilled value on every row
// (measured ~2x on this pass, ~5% on a whole dense grouped run).
//
//go:noinline
func denseCount[K denseKey](keys []K, rows []int, all bool, start, end int, cnt []float64) {
	if all {
		for _, k := range keys[start:end] {
			cnt[k]++
		}
		return
	}
	for _, r := range rows[start:end] {
		cnt[keys[r]]++
	}
}

// denseAccumCol dispatches one accumulate pass over the span [start, end)
// of the selection to the value column's concrete type; the default arm
// preserves Column.Value semantics for types without a typed fast path.
func denseAccumCol[K denseKey](keys []K, col colstore.Column, rows []int, all bool, start, end int, fn AggFunc, bank []float64) {
	if all {
		keys = keys[start:end]
	} else {
		rows = rows[start:end]
	}
	switch c := col.(type) {
	case *colstore.F64Column:
		denseAccum(keys, colSpan(c.Values(), all, start, end), rows, all, fn, bank)
	case *colstore.I64Column:
		denseAccum(keys, colSpan(c.Values(), all, start, end), rows, all, fn, bank)
	case *colstore.I32Column:
		denseAccum(keys, colSpan(c.Values(), all, start, end), rows, all, fn, bank)
	case *colstore.U16Column:
		denseAccum(keys, colSpan(c.Values(), all, start, end), rows, all, fn, bank)
	case *colstore.U8Column:
		denseAccum(keys, colSpan(c.Values(), all, start, end), rows, all, fn, bank)
	default:
		if all {
			for i, k := range keys {
				accumOne(fn, bank, int(k), col.Value(start+i))
			}
			return
		}
		for _, r := range rows {
			accumOne(fn, bank, int(keys[r]), col.Value(r))
		}
	}
}

// denseAccum is the monomorphic scatter-accumulate loop: for each selected
// row, fold the float64-widened value into the key-indexed slot. The fn
// switch is hoisted above the loops so each shape scans branch-predictably.
func denseAccum[K denseKey, V number](keys []K, vals []V, rows []int, all bool, fn AggFunc, bank []float64) {
	switch fn {
	case AggMin:
		if all {
			for i, v := range vals {
				f := float64(v)
				if f < bank[keys[i]] {
					bank[keys[i]] = f
				}
			}
			return
		}
		for _, r := range rows {
			f := float64(vals[r])
			if f < bank[keys[r]] {
				bank[keys[r]] = f
			}
		}
	case AggMax:
		if all {
			for i, v := range vals {
				f := float64(v)
				if f > bank[keys[i]] {
					bank[keys[i]] = f
				}
			}
			return
		}
		for _, r := range rows {
			f := float64(vals[r])
			if f > bank[keys[r]] {
				bank[keys[r]] = f
			}
		}
	default: // AggSum (AggAvg divides at emit)
		if all {
			for i, v := range vals {
				bank[keys[i]] += float64(v)
			}
			return
		}
		for _, r := range rows {
			bank[keys[r]] += float64(vals[r])
		}
	}
}

// accumOne is the generic-column fallback of one accumulate step.
func accumOne(fn AggFunc, bank []float64, k int, v float64) {
	switch fn {
	case AggMin:
		if v < bank[k] {
			bank[k] = v
		}
	case AggMax:
		if v > bank[k] {
			bank[k] = v
		}
	default:
		bank[k] += v
	}
}

// aggSeed is fn's fold identity: ±Inf for min/max (strict compares, so NaN
// never wins and an empty group keeps the seed), zero for count/sum/avg.
func aggSeed(fn AggFunc) float64 {
	switch fn {
	case AggMin:
		return math.Inf(1)
	case AggMax:
		return math.Inf(-1)
	}
	return 0
}

// seedBank initialises a fold bank to fn's identity (pooled banks carry
// stale contents).
func seedBank(bank []float64, fn AggFunc) {
	seed := aggSeed(fn)
	for i := range bank {
		bank[i] = seed
	}
}

// foldBank folds a later partition's bank into partition 0's, slot for
// slot: strict min/max compares, exact integer addition for counts.
func foldBank(dst, src []float64, fn AggFunc) {
	switch fn {
	case AggMin:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	case AggMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	default:
		for i, v := range src {
			dst[i] += v
		}
	}
}

// --- hash path -----------------------------------------------------------------

// groupHash is the open-addressed group table of the hash strategy. All
// three buffers are pooled; the struct itself lives on the caller's stack.
// table holds slot+1 (0 = empty) indexed by the canonical key bits' hash;
// keys and cnt are indexed by slot in first-appearance order.
type groupHash struct {
	table []int
	keys  []float64
	cnt   []float64
}

// hashSeed is the multiplicative mixer of the canonical key bits
// (Fibonacci hashing); the table-sized mask is applied by the probe loops.
const hashSeed = 0x9E3779B97F4A7C15

// slotOf returns the group slot of key value v, inserting a new slot (and
// growing the table at 50% load) on first appearance.
func (g *groupHash) slotOf(v float64) int {
	b := canonicalBits(v)
	mask := len(g.table) - 1
	i := int((b*hashSeed)>>33) & mask
	for {
		s := g.table[i]
		if s == 0 {
			if 2*(len(g.keys)+1) > len(g.table) {
				g.grow()
				mask = len(g.table) - 1
				i = int((b*hashSeed)>>33) & mask
				for g.table[i] != 0 {
					i = (i + 1) & mask
				}
			}
			g.keys = append(g.keys, v)
			g.cnt = append(g.cnt, 0)
			g.table[i] = len(g.keys)
			return len(g.keys) - 1
		}
		if canonicalBits(g.keys[s-1]) == b {
			return s - 1
		}
		i = (i + 1) & mask
	}
}

// grow rehashes into a table four times the size.
func (g *groupHash) grow() {
	old := g.table
	next := getRowBuf(4 * len(old))[:4*len(old)]
	for i := range next {
		next[i] = 0
	}
	mask := len(next) - 1
	for s, k := range g.keys {
		i := int((canonicalBits(k)*hashSeed)>>33) & mask
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = s + 1
	}
	g.table = next
	RecycleRows(old)
}

// hashKeyCol dispatches pass 0 over the span [start, end) of the selection
// to the key column's concrete type; slots is span-aligned (slots[i]
// belongs to the span's i-th row).
func hashKeyCol(col colstore.Column, rows []int, all bool, start, end int, g *groupHash, slots []int) {
	if !all {
		rows = rows[start:end]
	}
	switch c := col.(type) {
	case *colstore.F64Column:
		hashKeys(colSpan(c.Values(), all, start, end), rows, all, g, slots)
	case *colstore.I64Column:
		hashKeys(colSpan(c.Values(), all, start, end), rows, all, g, slots)
	case *colstore.I32Column:
		hashKeys(colSpan(c.Values(), all, start, end), rows, all, g, slots)
	case *colstore.U16Column:
		hashKeys(colSpan(c.Values(), all, start, end), rows, all, g, slots)
	case *colstore.U8Column:
		hashKeys(colSpan(c.Values(), all, start, end), rows, all, g, slots)
	default:
		for i := range slots {
			r := start + i
			if !all {
				r = rows[i]
			}
			s := g.slotOf(col.Value(r))
			g.cnt[s]++
			slots[i] = s
		}
	}
}

// hashKeys assigns slots for one key column: the float64 widening matches
// Column.Value, so an i64 key groups exactly as the row-at-a-time path does
// (lossy widening included).
func hashKeys[K number](vals []K, rows []int, all bool, g *groupHash, slots []int) {
	for i := range slots {
		r := i
		if !all {
			r = rows[i]
		}
		s := g.slotOf(float64(vals[r]))
		g.cnt[s]++
		slots[i] = s
	}
}

// fusePartner returns the index k > j of the first spec forming a fused
// min/max pair with specs[j] — the opposite extreme over the same value
// column — or -1. A fused pair shares one gather pass over the column
// (hashAccumMinMax) instead of two. Sum/avg never fuse (their pass shape
// differs and sums stay pinned to the ascending fold); indices cap at 64
// so the caller's done-bitmask covers every fusable spec.
func fusePartner(specs []GroupedAggSpec, j int) int {
	if j >= 64 {
		return -1
	}
	want := AggMin
	if specs[j].Fn == AggMin {
		want = AggMax
	}
	for k := j + 1; k < len(specs) && k < 64; k++ {
		if specs[k].Fn == want && specs[k].Column == specs[j].Column {
			return k
		}
	}
	return -1
}

// hashAccumCol dispatches one accumulate pass over the span [start, end)
// of the selection, with its span-aligned slot vector, to the value column
// type.
func hashAccumCol(col colstore.Column, rows []int, all bool, start, end int, slots []int, fn AggFunc, bank []float64) {
	if !all {
		rows = rows[start:end]
	}
	switch c := col.(type) {
	case *colstore.F64Column:
		hashAccum(colSpan(c.Values(), all, start, end), rows, all, slots, fn, bank)
	case *colstore.I64Column:
		hashAccum(colSpan(c.Values(), all, start, end), rows, all, slots, fn, bank)
	case *colstore.I32Column:
		hashAccum(colSpan(c.Values(), all, start, end), rows, all, slots, fn, bank)
	case *colstore.U16Column:
		hashAccum(colSpan(c.Values(), all, start, end), rows, all, slots, fn, bank)
	case *colstore.U8Column:
		hashAccum(colSpan(c.Values(), all, start, end), rows, all, slots, fn, bank)
	default:
		for i, s := range slots {
			r := start + i
			if !all {
				r = rows[i]
			}
			accumOne(fn, bank, s, col.Value(r))
		}
	}
}

// hashAccum is the slot-vector scatter-accumulate loop of the hash path.
func hashAccum[V number](vals []V, rows []int, all bool, slots []int, fn AggFunc, bank []float64) {
	switch fn {
	case AggMin:
		for i, s := range slots {
			r := i
			if !all {
				r = rows[i]
			}
			f := float64(vals[r])
			if f < bank[s] {
				bank[s] = f
			}
		}
	case AggMax:
		for i, s := range slots {
			r := i
			if !all {
				r = rows[i]
			}
			f := float64(vals[r])
			if f > bank[s] {
				bank[s] = f
			}
		}
	default: // AggSum / AggAvg
		for i, s := range slots {
			r := i
			if !all {
				r = rows[i]
			}
			bank[s] += float64(vals[r])
		}
	}
}

// hashAccumMinMaxCol dispatches one fused min+max gather pass over the
// span [start, end) of the selection to the value column type.
func hashAccumMinMaxCol(col colstore.Column, rows []int, all bool, start, end int, slots []int, lo, hi []float64) {
	if !all {
		rows = rows[start:end]
	}
	switch c := col.(type) {
	case *colstore.F64Column:
		hashAccumMinMax(colSpan(c.Values(), all, start, end), rows, all, slots, lo, hi)
	case *colstore.I64Column:
		hashAccumMinMax(colSpan(c.Values(), all, start, end), rows, all, slots, lo, hi)
	case *colstore.I32Column:
		hashAccumMinMax(colSpan(c.Values(), all, start, end), rows, all, slots, lo, hi)
	case *colstore.U16Column:
		hashAccumMinMax(colSpan(c.Values(), all, start, end), rows, all, slots, lo, hi)
	case *colstore.U8Column:
		hashAccumMinMax(colSpan(c.Values(), all, start, end), rows, all, slots, lo, hi)
	default:
		for i, s := range slots {
			r := start + i
			if !all {
				r = rows[i]
			}
			v := col.Value(r)
			if v < lo[s] {
				lo[s] = v
			}
			if v > hi[s] {
				hi[s] = v
			}
		}
	}
}

// hashAccumMinMax is the fused gather loop of a min/max pair: one read of
// the value column feeds two independent strict compares, so each bank is
// bit-identical to its own single-spec hashAccum pass — NaN loses both
// compares, ±Inf seeds survive empty groups, and the fold order over rows
// is unchanged.
func hashAccumMinMax[V number](vals []V, rows []int, all bool, slots []int, lo, hi []float64) {
	for i, s := range slots {
		r := i
		if !all {
			r = rows[i]
		}
		f := float64(vals[r])
		if f < lo[s] {
			lo[s] = f
		}
		if f > hi[s] {
			hi[s] = f
		}
	}
}

// sortGrouped orders the result groups by FloatOrderKey, permuting the key
// and every aggregate column together. Heapsort keeps it allocation-free
// (sort.Interface would box the sorter); grouped results are small relative
// to the scan that produced them, so the non-stable order is irrelevant —
// keys are unique, making the sort a permutation with a single fixed point.
func sortGrouped(r *GroupedResult) {
	n := len(r.Keys)
	for start := n/2 - 1; start >= 0; start-- {
		siftGrouped(r, start, n)
	}
	for end := n - 1; end > 0; end-- {
		swapGrouped(r, 0, end)
		siftGrouped(r, 0, end)
	}
}

func siftGrouped(r *GroupedResult, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && FloatOrderKey(r.Keys[child]) < FloatOrderKey(r.Keys[child+1]) {
			child++
		}
		if FloatOrderKey(r.Keys[root]) >= FloatOrderKey(r.Keys[child]) {
			return
		}
		swapGrouped(r, root, child)
		root = child
	}
}

func swapGrouped(r *GroupedResult, i, j int) {
	r.Keys[i], r.Keys[j] = r.Keys[j], r.Keys[i]
	for _, c := range r.Cols {
		c[i], c[j] = c[j], c[i]
	}
}
