// Grouped-aggregation kernels: GROUP BY over one key column — or none: an
// ungrouped aggregate is the one-group fold of an empty key — with typed
// accumulate passes over the value columns, executed column-at-a-time in the
// MonetDB style the paper's performance case rests on (§2.1.1) — one pass
// per value column, every accumulator of that column in one loop. The paper's
// navigation workload re-aggregates the viewport on every pan/zoom step
// (class histograms, per-class elevation stats, the viewport's count and
// mean elevation), so this layer is built for
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
//     column IS its own perfect hash.
//   - hash: general keys (f64/i64/i32, or u16 selections too small to repay
//     clearing a 64K bank). Open-addressed table over the float64-widened
//     key bits, group slots assigned on first appearance; a slot vector
//     aligned with the selection lets every value column's pass run without
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

// Reset prepares the record for nspecs aggregates, retaining capacity.
func (r *GroupedResult) Reset(nspecs int) {
	r.Keys = r.Keys[:0]
	if cap(r.Cols) < nspecs {
		r.Cols = make([][]float64, nspecs)
	}
	r.Cols = r.Cols[:nspecs]
	for j := range r.Cols {
		r.Cols[j] = r.Cols[j][:0]
	}
}

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
	return pc.GroupedAggregateRun(nil, rows, nil, key, specs, res, ex)
}

// groupPassCheckpoint is the checkpoint every grouped driver (dense, hash,
// tile) crosses before its accumulate passes fan out, with the run-scoped
// slab already tracked: a fault-injection point plus one cancellation
// poll. Inside a partition the fold passes poll the token once per
// foldBlock.
func groupPassCheckpoint(run *Run) error {
	if err := faultpoint.Hit("engine.groupagg.pass"); err != nil {
		return err
	}
	if run.Cancelled() {
		return cancel.ErrCancelled
	}
	return nil
}

// denseKeys returns the dense slot source and domain of keyCol for a fold
// over n rows, or a zero domain when the hash strategy takes it. A nil
// keyCol is the key-less fold: one group, domain 1.
func denseKeys(keyCol colstore.Column, n int) (foldSrc, int) {
	switch k := keyCol.(type) {
	case nil:
		return foldSrc{keyless: true}, 1
	case *colstore.U8Column:
		return foldSrc{keys8: k.Values()}, 1 << 8
	case *colstore.U16Column:
		if n >= (1<<16)/denseMinRowsPerSlot {
			return foldSrc{keys16: k.Values()}, 1 << 16
		}
	}
	return foldSrc{}, 0
}

// GroupedAggregateRun is GroupedAggregate under a query lifecycle, over
// the rows of the selection that match every predicate of preds: the
// pooled accumulator banks and hash scratch register in run's release
// list, and the fold passes poll the run's cancellation token per block — a
// fired context stops the aggregation within one block with every buffer
// back in its pool and res in an unspecified (but safe to reuse) state.
//
// An empty key is the ungrouped aggregate: the whole selection folds into
// one group (domain 1) through the dense strategy, and res holds that group
// or, over an empty selection, none.
//
// Over the whole table (rows == nil) with a dense key, the predicates
// feed the fold as the pipelined filter pass (morsel.go): the filter fans
// out, the fold stays on the caller in ascending row order. Otherwise the
// selection is filtered first (FilterRowsRun) and then folded.
func (pc *PointCloud) GroupedAggregateRun(run *Run, rows []int, preds []ColumnPred, key string, specs []GroupedAggSpec, res *GroupedResult, ex *Explain) error {
	start := time.Now()
	if key != "" && pc.columnBit(key) == 0 {
		return fmt.Errorf("engine: unknown group key column %q", key)
	}
	// Validate specs before touching any scratch: value columns must exist
	// and the function must be known (count ignores its column).
	for _, s := range specs {
		switch s.Fn {
		case AggCount:
		case AggSum, AggAvg, AggMin, AggMax:
			if pc.columnBit(s.Column) == 0 {
				return fmt.Errorf("engine: unknown aggregate column %q", s.Column)
			}
		default:
			return fmt.Errorf("engine: unknown aggregate %d", s.Fn)
		}
	}
	if err := pc.ensureColumns(0, ex, pc.specColumns(key, specs)); err != nil {
		return err
	}
	keyCol := pc.Column(key) // nil for the empty key
	n := len(rows)
	all := rows == nil
	if all {
		n = pc.Len()
	}
	src, dom := denseKeys(keyCol, n)
	if len(preds) > 0 && (!all || dom == 0) {
		filtered, err := pc.FilterRowsRun(run, rows, preds, ex)
		if err != nil {
			return err
		}
		defer run.RecycleRows(filtered)
		rows, all, n, preds = filtered, false, len(filtered), nil
		src, dom = denseKeys(keyCol, n)
		start = time.Now() // the filter steps carry their own time
	}
	res.Reset(len(specs))

	// Strategy choice is independent of the degree (so the recorded
	// strategy and the output are the same at every degree); within a
	// strategy, large inputs fan across the resident worker set when every
	// spec merges exactly across partitions (specsMergeExact — sum/avg
	// plans pin degree 1 to keep sums bit-identical to the ascending fold)
	// or when only the filter ahead of the fold fans out.
	deg := 1
	if len(preds) > 0 || specsMergeExact(specs) {
		deg = pc.morselDegree(run, n, true)
	}
	in := n
	var err error
	switch {
	case len(preds) > 0:
		res.Strategy = GroupDense
		in, err = runPipeFold(run, pc, src, dom, preds, specs, res, deg)
		if err == nil && ex != nil {
			ex.Add(opFilterColumn, parDetail("piped: "+predsDetail(preds), deg), n, in, 0)
		}
		deg = 1 // only the filter fanned out; the fold ran on the caller
	case dom > 0:
		res.Strategy = GroupDense
		err = runDensePass(run, pc, src, dom, rows, all, n, specs, res, deg)
	default:
		res.Strategy = GroupHash
		err = runHashPass(run, pc, keyCol, rows, all, n, specs, res, deg)
	}
	if err != nil {
		return err
	}
	if ex != nil {
		// The pass count makes a regression to one pass per aggregate
		// visible from EXPLAIN (the hash strategy's slot-assignment pass
		// is not an accumulate pass and is not counted).
		passes, plural := foldPasses(specs), "es"
		if passes == 1 {
			plural = ""
		}
		detail := fmt.Sprintf("%s, %d pass%s, %d aggs", res.Strategy, passes, plural, len(specs))
		if key != "" {
			detail += ", key " + key
		}
		ex.Add(opGroupAgg, parDetail(detail, deg), in, len(res.Keys), time.Since(start))
	}
	return nil
}

// predsDetail renders a predicate chain for EXPLAIN. A piped chain's step
// reports its rows but no time: that is in the group.agg step it feeds.
func predsDetail(preds []ColumnPred) string {
	s := preds[0].String()
	for _, p := range preds[1:] {
		s += " and " + p.String()
	}
	return s
}

// --- the fold kernel -----------------------------------------------------------
//
// Every grouped consumer — the dense and hash strategies, the pyramid's tile
// scatter and its boundary refinement — accumulates through foldSpecs: one
// pass per distinct value column, every accumulator of that column updated
// in one loop. A scatter-accumulate pass is bound by the read-modify-write
// latency chain through the bank slot a run of rows keeps hitting, not by
// bandwidth, so the chains of count, sum, min and max overlap in one loop
// where one pass per aggregate would serialise them.

// foldBlock is the row count of one block of a fold pass: the token is
// polled once per block. Accumulators live in the banks, so a block
// boundary never reassociates — each slot's sum stays one running
// accumulator over ascending rows.
const foldBlock = 8 * scanChunk

// denseKey covers the key column element types with array-indexable domains.
type denseKey interface {
	~uint8 | ~uint16
}

// foldSrc is the slot source of a fold pass; exactly one field is set.
// Dense keys are gathered by row id (the key value IS the slot); a slot
// vector is aligned with the partition span (slots[i] belongs to the
// span's i-th row); keyless folds every row into slot 0.
type foldSrc struct {
	keys8   []uint8
	keys16  []uint16
	slots   []int
	keyless bool
}

// Accumulator roles of one value column (sum and avg share the sum bank;
// avg divides at emit).
const (
	roleSum = iota
	roleMin
	roleMax
)

func foldRole(fn AggFunc) int {
	switch fn {
	case AggMin:
		return roleMin
	case AggMax:
		return roleMax
	}
	return roleSum
}

// foldAcc is the accumulator set of one value column's pass: the count bank
// and one bank per role, all indexed by slot. Accumulators the plan did not
// ask for point at the pass's sink, which keeps the loop body free of
// branches on shape.
type foldAcc struct {
	cnt []float64
	v   [3][]float64
}

// foldBanks locates the per-spec accumulator banks of one partition: the
// one bank per spec in segs or, when segs is nil, the n-slot segments of a
// flat slab laid out [spec 0 | spec 1 | ...].
type foldBanks struct {
	segs [][]float64
	flat []float64
	n    int
}

func (fb foldBanks) segment(j int) []float64 {
	if fb.segs != nil {
		return fb.segs[j]
	}
	return fb.flat[j*fb.n : (j+1)*fb.n]
}

// firstLike returns the index of the first spec folding specs[k]'s value
// column — with role set, into the same accumulator.
func firstLike(specs []GroupedAggSpec, k int, role bool) int {
	for i, s := range specs[:k] {
		if s.Fn != AggCount && s.Column == specs[k].Column && (!role || foldRole(s.Fn) == foldRole(specs[k].Fn)) {
			return i
		}
	}
	return k
}

// foldPasses is the number of accumulate passes foldSpecs runs for specs:
// one per distinct value column, or the count-only loop when there is no
// column to carry the count.
func foldPasses(specs []GroupedAggSpec) int {
	n := 0
	for j, s := range specs {
		if s.Fn != AggCount && firstLike(specs, j, false) == j {
			n++
		}
	}
	return max(n, 1)
}

// foldSpecs executes the fold plan of specs over the span [start, end) of
// the selection: the distinct value columns in first-appearance order, one
// pass each. cnt is the group-size bank: the count rides the first
// column's pass (a plan with no value column keeps a count-only loop) and
// later columns send theirs to the sink. A repeated spec (min(z) twice;
// sum(z) beside avg(z)) folds once and its bank is copied, so every spec
// position still owns a filled segment. seed initialises each bank to its
// fold identity and the sink to NaN first; without it the fold lands on top
// of the banks' contents (repeated specs must then start from equal
// contents) and the sink must already hold NaN (fillNaN).
//
// sink is n+1 floats of scratch for the unrequested accumulators. Its NaN
// seed survives every update — NaN+v is NaN, and nothing compares below or
// above NaN, so the min/max stores never fire — which is why a fold carried
// across calls seeds it once; a sunk count and a sunk sum take views one
// slot apart, so a run of rows hitting one slot drives two independent add
// chains instead of one chain through a shared address.
//
// A fired token stops the pass at the next block boundary, leaving the
// banks partial; the driver reports the cancellation.
func foldSpecs(src foldSrc, pc *PointCloud, specs []GroupedAggSpec, rows []int, all bool, start, end int, cnt []float64, fb foldBanks, sink []float64, seed bool, tok *cancel.Token) {
	if seed {
		fillNaN(sink)
	}
	sinkA, sinkB := sink[:len(sink)-1], sink[1:]
	for j, s := range specs {
		if s.Fn == AggCount || firstLike(specs, j, false) != j {
			continue
		}
		acc := foldAcc{cnt: sinkA, v: [3][]float64{sinkB, sinkA, sinkA}}
		if cnt != nil {
			acc.cnt, cnt = cnt, nil // counted by this pass
		}
		for k := j; k < len(specs); k++ {
			if t := specs[k]; t.Fn != AggCount && t.Column == s.Column && firstLike(specs, k, true) == k {
				b := fb.segment(k)
				if seed {
					seedBank(b, t.Fn)
				}
				acc.v[foldRole(t.Fn)] = b
			}
		}
		col := pc.Column(s.Column)
		for b0, b1 := range tok.Blocks(start, end, foldBlock) {
			_ = faultpoint.Hit("engine.groupagg.block")
			foldColumn(src, col, rows, all, start, b0, b1, acc)
		}
		for k := j + 1; k < len(specs); k++ {
			if t := specs[k]; t.Fn != AggCount && t.Column == s.Column {
				if f := firstLike(specs, k, true); f != k {
					copy(fb.segment(k), fb.segment(f))
				}
			}
		}
	}
	if cnt != nil {
		for b0, b1 := range tok.Blocks(start, end, foldBlock) {
			_ = faultpoint.Hit("engine.groupagg.block")
			foldCount(src, rows, all, start, b0, b1, cnt)
		}
	}
}

// colSpan narrows a column's backing slice to a span: the all-rows form
// scans vals[start:end] directly, the selection form gathers through
// rows[start:end] and keeps the whole column addressable.
func colSpan[V any](vals []V, all bool, start, end int) []V {
	if all {
		return vals[start:end]
	}
	return vals
}

// foldCount is the count-only pass over the block [b, e) of the span that
// starts at start.
func foldCount(src foldSrc, rows []int, all bool, start, b, e int, cnt []float64) {
	switch {
	case src.keyless:
		cnt[0] += float64(e - b)
	case src.slots != nil:
		for _, s := range src.slots[b-start : e-start] {
			cnt[s]++
		}
	case src.keys8 != nil:
		countKeys(src.keys8, rows, all, b, e, cnt)
	default:
		countKeys(src.keys16, rows, all, b, e, cnt)
	}
}

// countKeys is one increment per selected row into the key-indexed count
// bank. Kept out of line: inlined, its loop inherits the caller's register
// pressure and reloads a spilled value on every row (measured ~2x).
//
//go:noinline
func countKeys[K denseKey](keys []K, rows []int, all bool, b, e int, cnt []float64) {
	if all {
		for _, k := range keys[b:e] {
			cnt[k]++
		}
		return
	}
	for _, r := range rows[b:e] {
		cnt[keys[r]]++
	}
}

// foldColumn dispatches one block [b, e) of a value column's pass to the
// column's concrete type.
func foldColumn(src foldSrc, col colstore.Column, rows []int, all bool, start, b, e int, a foldAcc) {
	switch c := col.(type) {
	case *colstore.F64Column:
		foldVals(src, c.Values(), rows, all, start, b, e, a)
	case *colstore.I64Column:
		foldVals(src, c.Values(), rows, all, start, b, e, a)
	case *colstore.I32Column:
		foldVals(src, c.Values(), rows, all, start, b, e, a)
	case *colstore.U16Column:
		foldVals(src, c.Values(), rows, all, start, b, e, a)
	case *colstore.U8Column:
		foldVals(src, c.Values(), rows, all, start, b, e, a)
	default:
		panic(fmt.Sprintf("engine: no fold loop for %T", col))
	}
}

// foldVals narrows one typed value column to the block and picks the loop
// of the slot source. The loops it instantiates contain no calls, so they
// compile to fully specialised bodies even from generic code (the closure
// kernels CompileFilterKernel warns about do not).
func foldVals[V colstore.Number](src foldSrc, vals []V, rows []int, all bool, start, b, e int, a foldAcc) {
	vals = colSpan(vals, all, b, e)
	if !all {
		rows = rows[b:e]
	}
	switch {
	case src.keyless:
		foldKeyless(vals, rows, all, a)
	case src.slots != nil:
		foldSlots(src.slots[b-start:e-start], vals, rows, all, a)
	case src.keys8 != nil:
		foldKeys(colSpan(src.keys8, all, b, e), vals, rows, all, a)
	default:
		foldKeys(colSpan(src.keys16, all, b, e), vals, rows, all, a)
	}
}

// foldKeys is the fused scatter-accumulate loop over dense keys: each
// selected row reads its id, its key and its value once and updates all
// four accumulators of the slot. Strict compares against ±Inf seeds keep
// min/max bit-identical to their own single passes (NaN loses both).
func foldKeys[K denseKey, V colstore.Number](keys []K, vals []V, rows []int, all bool, a foldAcc) {
	cnt, sum, lo, hi := a.cnt, a.v[roleSum], a.v[roleMin], a.v[roleMax]
	if all {
		keys = keys[:len(vals)]
		for i, v := range vals {
			s, f := keys[i], float64(v)
			cnt[s]++
			sum[s] += f
			if f < lo[s] {
				lo[s] = f
			}
			if f > hi[s] {
				hi[s] = f
			}
		}
		return
	}
	for _, r := range rows {
		s, f := keys[r], float64(vals[r])
		cnt[s]++
		sum[s] += f
		if f < lo[s] {
			lo[s] = f
		}
		if f > hi[s] {
			hi[s] = f
		}
	}
}

// foldKeyless is the loop of the key-less fold: every row lands in slot 0,
// so the four accumulators ride in locals across the block and reach the
// banks once, with no per-row store. Unrequested accumulators load and
// store the sink's NaN, which the loop keeps NaN.
func foldKeyless[V colstore.Number](vals []V, rows []int, all bool, a foldAcc) {
	sum, lo, hi := a.v[roleSum][0], a.v[roleMin][0], a.v[roleMax][0]
	n := len(rows)
	if all {
		n = len(vals)
		for _, v := range vals {
			f := float64(v)
			sum += f
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
	} else {
		for _, r := range rows {
			f := float64(vals[r])
			sum += f
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
	}
	a.cnt[0] += float64(n)
	a.v[roleSum][0], a.v[roleMin][0], a.v[roleMax][0] = sum, lo, hi
}

// foldSlots is the same loop driven by a span-aligned slot vector.
func foldSlots[V colstore.Number](slots []int, vals []V, rows []int, all bool, a foldAcc) {
	cnt, sum, lo, hi := a.cnt, a.v[roleSum], a.v[roleMin], a.v[roleMax]
	if all {
		vals = vals[:len(slots)]
		for i, s := range slots {
			f := float64(vals[i])
			cnt[s]++
			sum[s] += f
			if f < lo[s] {
				lo[s] = f
			}
			if f > hi[s] {
				hi[s] = f
			}
		}
		return
	}
	rows = rows[:len(slots)]
	for i, s := range slots {
		f := float64(vals[rows[i]])
		cnt[s]++
		sum[s] += f
		if f < lo[s] {
			lo[s] = f
		}
		if f > hi[s] {
			hi[s] = f
		}
	}
}

// fillNaN seeds a fold sink.
func fillNaN(sink []float64) {
	for i := range sink {
		sink[i] = math.NaN()
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

// groupHash is the open-addressed group table of the hash strategy, one
// per partition of a hash pass. table holds slot+1 (0 = empty) indexed by
// the canonical key bits' hash; keys and cnt are indexed by slot in
// first-appearance order. All three are drawn, grown and recycled through
// the partition's release lists rows and f64, which its other scratch
// draws through too.
type groupHash struct {
	table []int
	keys  []float64
	cnt   []float64
	rows  relList[int]
	f64   relList[float64]
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
			g.keys = g.f64.append(g.keys, v)
			g.cnt = g.f64.append(g.cnt, 0)
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
	next := g.rows.acquire(4 * len(old))[:4*len(old)]
	clear(next)
	mask := len(next) - 1
	for s, k := range g.keys {
		i := int((canonicalBits(k)*hashSeed)>>33) & mask
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = s + 1
	}
	g.table = next
	g.rows.recycle(old)
}

// hashKeyCol dispatches pass 0 over the span [start, end) of the selection
// to the key column's concrete type; slots is span-aligned (slots[i]
// belongs to the span's i-th row). Group sizes are counted by the fold
// plan, not here.
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
		panic(fmt.Sprintf("engine: no hash loop for %T", col))
	}
}

// hashKeys assigns slots for one key column: the float64 widening matches
// Column.Value, so an i64 key groups exactly as the row-at-a-time path does
// (lossy widening included).
func hashKeys[K colstore.Number](vals []K, rows []int, all bool, g *groupHash, slots []int) {
	for i := range slots {
		r := i
		if !all {
			r = rows[i]
		}
		slots[i] = g.slotOf(float64(vals[r]))
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
