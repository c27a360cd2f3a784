// Tile-grouped pre-aggregation (PR 10): the engine entry points the
// pyramid builds on. TileGroupedAggregateRun scatters the table — or,
// on the append path, the rows past a given one — into per-(tile, class)
// banks — a grouped-aggregate pass whose composite
// slot is the row's quantised tile times the 256-class domain — run as a
// morsel pass (tilePass below; see morsel.go) exactly like the dense grouped
// strategy, through the same fold plan (one pass per value column, every
// accumulator of that column in one loop): partition 0 scatters into the
// caller's banks, later
// partitions into slabs folded in ascending order, which is exact for
// count/min/max. Sum banks pin degree 1: per-tile sums are pinned to the
// ascending row-order fold by the float-determinism invariant, and
// partition merging would reassociate them.
// GroupedAccumulateRows is the query-time counterpart: it runs the same
// fold plan over an explicit row list into 256-slot class banks — the
// boundary-tile refinement of a pyramid lookup.
package engine

import (
	"fmt"
	"time"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
	"gisnav/internal/morsel"
	"gisnav/internal/sfc"
)

// tileDom is the class domain of one tile's bank: the pyramid keys on u8
// columns only (the dense grouped strategy's u8 arm), so every tile owns
// 256 slots regardless of how many classes actually occur.
const tileDom = 256

// validateTileSpecs rejects aggregate shapes the tile banks cannot hold:
// avg derives from sum and count at emit time and is never materialised
// per tile.
func validateTileSpecs(specs []GroupedAggSpec) error {
	for _, s := range specs {
		switch s.Fn {
		case AggCount, AggMin, AggMax, AggSum:
		default:
			return fmt.Errorf("engine: tile aggregation does not materialise %v banks", s.Fn)
		}
	}
	return nil
}

// TileGroupedAggregateRun scatters rows [from, Len()) of the table into
// per-(tile, class) pre-aggregate banks. tiler assigns each row exactly
// one tile (Cell clamps, so rows on the extent boundary land in the edge
// tiles); keyCol must be a u8 column. Slot (t, k) of a bank lives at
// index t*256+k with t = cy<<order | cx. cnt receives the group sizes;
// banks[j] receives spec j's fold and may be nil for AggCount specs,
// which are served from cnt. With from = 0 every bank is (re)seeded here:
// callers may pass buffers with stale contents. With from > 0 the rows
// fold on top of banks that already hold rows [0, from) — the append
// path of a pre-aggregate.
//
// The degree follows the grouped kernels' merge contract: count/min/max
// shapes fan across the morsel worker set at the run's degree, sum shapes
// run at degree 1 so each tile's sum folds rows in ascending row order —
// across calls too, so folding [0, m) and then [m, n) leaves the banks
// bit-identical to one call over [0, n).
func (pc *PointCloud) TileGroupedAggregateRun(run *Run, tiler sfc.Grid, keyCol string, specs []GroupedAggSpec, cnt []float64, banks [][]float64, from int, ex *Explain) error {
	start := time.Now()
	if err := validateTileSpecs(specs); err != nil {
		return err
	}
	u8, ok := pc.Column(keyCol).(*colstore.U8Column)
	if !ok {
		return fmt.Errorf("engine: tile aggregation requires a u8 key column, got %q", keyCol)
	}
	nslots := (1 << (2 * tiler.Order)) * tileDom
	if len(cnt) < nslots || len(banks) != len(specs) {
		return fmt.Errorf("engine: tile bank shape mismatch: %d slots, %d banks for %d specs",
			len(cnt), len(banks), len(specs))
	}
	n := pc.Len()
	if from < 0 || from > n {
		return fmt.Errorf("engine: tile aggregation from row %d of %d", from, n)
	}
	if from == 0 {
		seedBank(cnt[:nslots], AggCount)
	}
	for j, s := range specs {
		if s.Fn == AggCount {
			continue
		}
		if pc.Column(s.Column) == nil {
			return fmt.Errorf("engine: unknown column %q", s.Column)
		}
		if len(banks[j]) < nslots {
			return fmt.Errorf("engine: tile bank %d holds %d slots, need %d", j, len(banks[j]), nslots)
		}
		if from == 0 {
			seedBank(banks[j][:nslots], s.Fn)
		}
	}

	if from == n {
		return nil
	}
	deg := 1
	if specsMergeExact(specs) {
		deg = pc.morselDegree(run, n-from, true)
	}
	if err := pc.runTilePass(run, tiler, u8.Values(), specs, cnt, banks, nslots, from, n, deg); err != nil {
		return err
	}
	if ex != nil {
		ex.Add(opTileAgg, fmt.Sprintf("order %d, %d aggs [par %d]", tiler.Order, len(specs), deg),
			n-from, nslots, time.Since(start))
	}
	return nil
}

// tileSlots quantises rows [start, end) into composite (tile, class)
// slots: slots[i] belongs to global row start+i.
func tileSlots(xs, ys []float64, keys []uint8, tiler sfc.Grid, start, end int, slots []int) {
	order := tiler.Order
	for i := range slots {
		r := start + i
		cx, cy := tiler.Cell(xs[r], ys[r])
		slots[i] = (int(cy)<<order|int(cx))*tileDom + int(keys[r])
	}
}

// tilePass is the pooled scaffolding of one tile scatter over rows
// [from, n), cut into deg partitions. Partition 0
// scatters into the caller's banks; partitions >= 1 into disjoint slabs of
// one run-tracked buffer in the dense grouped layout [count | spec 0 |
// spec 1 | ...]; behind the slabs sits one fold sink per partition. The
// per-partition slot vector is that partition's pooled buffer, recycled on
// every exit path including panic.
type tilePass struct {
	pass   morsel.Pass
	pc     *PointCloud
	keys   []uint8
	tiler  sfc.Grid
	specs  []GroupedAggSpec
	from   int
	n, deg int
	nslots int
	stride int // slab length: nslots * (1 + specs)
	cnt    []float64
	banks  [][]float64
	slabs  []float64
	tok    *cancel.Token
}

var tilePasses passFree[tilePass]

// RunPartition quantises one partition's rows into composite (tile,
// class) slots, then runs the shared fold plan over the slot vector: one
// pass per value column, the count riding the first.
func (tp *tilePass) RunPartition(slot int) {
	rows := tp.n - tp.from
	start, end := tp.from+slot*rows/tp.deg, tp.from+(slot+1)*rows/tp.deg
	slots := getRowBuf(end - start)[:end-start]
	defer rowPool.Put(slots)
	hitMorselWorker(tp.deg)
	tileSlots(tp.pc.xs.Values(), tp.pc.ys.Values(), tp.keys, tp.tiler, start, end, slots)
	cnt, fb := tp.cnt, foldBanks{segs: tp.banks}
	if slot > 0 {
		slab := tp.slabs[(slot-1)*tp.stride : slot*tp.stride]
		cnt, fb = slab[:tp.nslots], foldBanks{flat: slab[tp.nslots:], n: tp.nslots}
		seedBank(cnt, AggCount)
	}
	sink := tp.slabs[(tp.deg-1)*tp.stride:][slot*(tp.nslots+1) : (slot+1)*(tp.nslots+1)]
	if slot == 0 {
		fillNaN(sink) // partition 0 folds onto the caller's banks unseeded
	}
	foldSpecs(foldSrc{slots: slots}, tp.pc, tp.specs, nil, true, start, end, cnt, fb, sink, slot > 0, tp.tok)
}

// runTilePass scatters rows [from, n) into the caller's seeded banks in
// deg partitions and folds the slabs of partitions 1.. into them in
// ascending order — exact for count/min/max; a sum spec pins deg to 1,
// where every tile's sum is the ascending row-order fold.
func (pc *PointCloud) runTilePass(run *Run, tiler sfc.Grid, keys []uint8, specs []GroupedAggSpec, cnt []float64, banks [][]float64, nslots, from, n, deg int) error {
	stride := nslots * (1 + len(specs))
	size := (deg-1)*stride + deg*(nslots+1)
	slabs := run.trackF64(getF64Buf(size))[:size]
	defer run.recycleF64(slabs)
	if err := groupPassCheckpoint(run); err != nil {
		return err
	}
	tp := tilePasses.get()
	tp.pc, tp.keys, tp.tiler, tp.specs = pc, keys, tiler, specs
	tp.from, tp.n, tp.deg, tp.nslots, tp.stride = from, n, deg, nslots, stride
	tp.cnt, tp.banks, tp.slabs = cnt, banks, slabs
	tp.tok = run.Token()
	p := tp.pass.Run(deg, tp)
	tp.pc, tp.keys, tp.specs, tp.cnt, tp.banks, tp.slabs, tp.tok = nil, nil, nil, nil, nil, nil, nil
	tilePasses.put(tp)
	if p != nil {
		panic(p)
	}
	if err := hitMorselMerge(deg); err != nil {
		return err
	}
	if run.Cancelled() {
		return cancel.ErrCancelled
	}
	for w := 1; w < deg; w++ {
		slab := slabs[(w-1)*stride : w*stride]
		foldBank(cnt[:nslots], slab[:nslots], AggCount)
		for j, sp := range specs {
			if sp.Fn != AggCount {
				foldBank(banks[j][:nslots], slab[(1+j)*nslots:(2+j)*nslots], sp.Fn)
			}
		}
	}
	return nil
}

// GroupedAccumulateRows folds specs over an explicit row list into
// 256-slot class-indexed banks, running the same fold plan as the exact
// grouped arm — the pyramid's boundary-tile refinement entry point. bank is one flat slab laid out [count | spec 0 | spec 1 | ...]:
// 256 count slots followed by one 256-slot segment per spec (count specs'
// segments are unused — the shared count slots serve them). The flat
// layout keeps the warm query path free of per-call slice-header
// allocation. All slots accumulate ON TOP of their existing contents (the
// caller seeds them once per fold sequence: zero for count/sum, ±Inf for
// min/max — or folds interior pre-aggregates in first; a repeated spec is
// folded once and copied, so its segments must start out equal). Rows are
// folded in slice order, so a deterministic rows order yields
// deterministic sums.
func (pc *PointCloud) GroupedAccumulateRows(rows []int, keyCol string, specs []GroupedAggSpec, bank []float64) error {
	if err := validateTileSpecs(specs); err != nil {
		return err
	}
	u8, ok := pc.Column(keyCol).(*colstore.U8Column)
	if !ok {
		return fmt.Errorf("engine: tile aggregation requires a u8 key column, got %q", keyCol)
	}
	if len(bank) < (1+len(specs))*tileDom {
		return fmt.Errorf("engine: class bank slab too small: %d slots for %d specs",
			len(bank), len(specs))
	}
	for _, s := range specs {
		if s.Fn != AggCount && pc.Column(s.Column) == nil {
			return fmt.Errorf("engine: unknown column %q", s.Column)
		}
	}
	var sink [tileDom + 1]float64
	fillNaN(sink[:])
	fb := foldBanks{flat: bank[tileDom:], n: tileDom}
	foldSpecs(foldSrc{keys8: u8.Values()}, pc, specs, rows, false, 0, len(rows), bank[:tileDom], fb, sink[:], false, nil)
	return nil
}
