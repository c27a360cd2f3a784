// Tile-grouped pre-aggregation (PR 10): the engine entry points the
// pyramid builds on. TileGroupedAggregateRun scatters the table — or, on
// the append path, the rows past a given one — into per-(tile, class)
// banks: a grouped-aggregate pass whose composite slot is the row's
// quantised tile shifted past the class codes the caller's dictionary
// (TileClasses) assigns, run as a morsel pass (tilePass below; see
// morsel.go). Each row is quantised once: the loop that quantises it also
// records its slot and folds it into its tile's row count and data
// bounding box, so the pyramid's tile metadata and postings come out of
// the pass that fills its banks, through the dense grouped strategy's
// fold plan. Partition 0 scatters into the caller's banks and tile
// arrays, later partitions into slabs folded in ascending order, which is
// exact for count/min/max and the boxes. Sum banks pin degree 1: per-tile
// sums are pinned to the ascending row-order fold by the float-determinism
// invariant, and partition merging would reassociate them.
// GroupedAccumulateRows is the query-time counterpart: it runs the same
// fold plan over an explicit row list into 256-slot class-indexed banks —
// the boundary-tile refinement of a pyramid lookup.
package engine

import (
	"fmt"
	"time"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
	"gisnav/internal/faultpoint"
	"gisnav/internal/geom"
	"gisnav/internal/morsel"
	"gisnav/internal/sfc"
)

// classDom is the u8 key domain: tile aggregation keys on u8 columns only
// (the dense grouped strategy's u8 arm), and GroupedAccumulateRows' banks
// hold one slot per possible class.
const classDom = 1 << 8

// TileClasses is the class axis of a tile scatter's banks: a dictionary
// over the u8 key. Classes lists the classes present, by code; Codes maps
// a class to its code; every tile owns 1<<Shift slots, at least one per
// code. Slot (t, k) of a bank, class k in tile t, lives at
// t<<Shift | Codes[k].
type TileClasses struct {
	Classes []uint8
	Codes   [classDom]uint8
	Shift   uint
}

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

// tileKey validates a tile aggregation over the u8 column keyCol and makes
// it and the columns specs fold resident in one first touch, traced into
// ex, returning the key column.
func (pc *PointCloud) tileKey(ex *Explain, keyCol string, specs []GroupedAggSpec) (*colstore.U8Column, error) {
	if err := validateTileSpecs(specs); err != nil {
		return nil, err
	}
	if t, ok := pc.schema.TypeOf(keyCol); !ok || t != colstore.U8 {
		return nil, fmt.Errorf("engine: tile aggregation requires a u8 key column, got %q", keyCol)
	}
	for _, s := range specs {
		if s.Fn != AggCount && pc.columnBit(s.Column) == 0 {
			return nil, fmt.Errorf("engine: unknown column %q", s.Column)
		}
	}
	if err := pc.ensureColumns(0, ex, pc.specColumns(keyCol, specs)); err != nil {
		return nil, err
	}
	return pc.Column(keyCol).(*colstore.U8Column), nil
}

// TileBox is one tile's metadata in a tile scatter: how many rows
// quantised into the tile, how many of them have a NaN coordinate, and
// the tight bounding box of their coordinates. A NaN never enters the box,
// so a tile with NaN rows holds rows its box does not bound.
type TileBox struct {
	Rows int
	NaN  int
	Box  geom.Envelope
}

// EmptyTileBox is the metadata of a tile no row reached: its box is empty
// (±Inf edges), so the first row's coordinates replace every edge.
var EmptyTileBox = TileBox{Box: geom.EmptyEnvelope()}

// Fold takes o's rows into b as rows that follow b's: the counts add, and
// an edge moves only to a strictly smaller (or larger) value, so of equal
// edges (−0 and +0) the earlier stays and a NaN never enters. Folding
// partial boxes in ascending row order is therefore exactly the
// row-at-a-time fold.
func (b *TileBox) Fold(o TileBox) {
	b.Rows += o.Rows
	b.NaN += o.NaN
	if o.Box.MinX < b.Box.MinX {
		b.Box.MinX = o.Box.MinX
	}
	if o.Box.MinY < b.Box.MinY {
		b.Box.MinY = o.Box.MinY
	}
	if o.Box.MaxX > b.Box.MaxX {
		b.Box.MaxX = o.Box.MaxX
	}
	if o.Box.MaxY > b.Box.MaxY {
		b.Box.MaxY = o.Box.MaxY
	}
}

// TileGroupedAggregateRun scatters rows [from, Len()) of the table into
// per-(tile, class) pre-aggregate banks and into per-tile metadata.
// tiler assigns each row exactly one tile (Cell clamps, so rows on the
// extent boundary and rows with a NaN coordinate land in the edge tiles);
// keyCol must be a u8 column, and classes must code every key the rows
// hold. Slot (t, k) of a bank lives at index t<<classes.Shift |
// classes.Codes[k] with t = cy<<order | cx. cnt receives the group sizes;
// banks[j] receives spec j's fold and may be nil for AggCount specs,
// which are served from cnt; tiles[t] receives tile t's TileBox; slots[i]
// receives row from+i's composite slot, so slots[i]>>classes.Shift is its
// tile. With
// from = 0 every bank and tile is (re)seeded here: callers may pass
// buffers with stale contents. With from > 0 the rows fold on top of banks
// and tiles that already hold rows [0, from) — the append path of a
// pre-aggregate.
//
// The degree follows the grouped kernels' merge contract: count/min/max
// shapes fan across the morsel worker set at the run's degree, sum shapes
// run at degree 1 so each tile's sum folds rows in ascending row order —
// across calls too, so folding [0, m) and then [m, n) leaves the banks
// bit-identical to one call over [0, n). Tiles merge exactly at any
// degree (TileBox.Fold).
func (pc *PointCloud) TileGroupedAggregateRun(run *Run, tiler sfc.Grid, keyCol string, classes *TileClasses, specs []GroupedAggSpec, cnt []float64, banks [][]float64, tiles []TileBox, slots []int, from int, ex *Explain) error {
	start := time.Now()
	u8, err := pc.tileKey(ex, keyCol, specs)
	if err != nil {
		return err
	}
	if len(classes.Classes) > 1<<classes.Shift {
		return fmt.Errorf("engine: %d classes in %d slots per tile", len(classes.Classes), 1<<classes.Shift)
	}
	ntiles := 1 << (2 * tiler.Order)
	nslots := ntiles << classes.Shift
	if len(cnt) < nslots || len(banks) != len(specs) {
		return fmt.Errorf("engine: tile bank shape mismatch: %d slots, %d banks for %d specs",
			len(cnt), len(banks), len(specs))
	}
	n := pc.Len()
	if from < 0 || from > n {
		return fmt.Errorf("engine: tile aggregation from row %d of %d", from, n)
	}
	if len(tiles) < ntiles || len(slots) < n-from {
		return fmt.Errorf("engine: tile metadata holds %d tiles and %d slots, need %d and %d",
			len(tiles), len(slots), ntiles, n-from)
	}
	if from == 0 {
		seedBank(cnt[:nslots], AggCount)
		seedTiles(tiles[:ntiles])
	}
	for j, s := range specs {
		if s.Fn == AggCount {
			continue
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
	if err := pc.runTilePass(run, tiler, u8.Values(), classes, specs, cnt, banks, tiles, slots, from, n, deg); err != nil {
		return err
	}
	if ex != nil {
		ex.Add(opTileAgg, fmt.Sprintf("order %d, %d classes in %d slots, %d aggs, tile meta [par %d]",
			tiler.Order, len(classes.Classes), 1<<classes.Shift, len(specs), deg),
			n-from, nslots, time.Since(start))
	}
	return nil
}

// seedTiles empties every tile.
func seedTiles(tiles []TileBox) {
	for i := range tiles {
		tiles[i] = EmptyTileBox
	}
}

// tileScan quantises rows [start, end) into composite (tile, class)
// slots — slots[i] belongs to row start+i — and folds each row into its
// tile, polling tok once per foldBlock like the fold passes. A fired token
// leaves the later slots unwritten; the fold after it polls the same token
// first, so it never reads them.
func tileScan(xs, ys []float64, keys []uint8, classes *TileClasses, tiler sfc.Grid, start, end int, slots []int, tiles []TileBox, tok *cancel.Token) {
	order, q := tiler.Order, tiler.Quantizer()
	codes, shift := &classes.Codes, classes.Shift
	for b, e := range tok.Blocks(start, end, foldBlock) {
		_ = faultpoint.Hit("engine.groupagg.block")
		bys, bkeys, bslots := ys[b:e], keys[b:e], slots[b-start:e-start]
		for i, x := range xs[b:e] {
			y := bys[i]
			cx, cy := q.Cell(x, y)
			t := int(cy)<<order | int(cx)
			bslots[i] = t<<shift | int(codes[bkeys[i]])
			nan := 0
			if x != x || y != y {
				nan = 1
			}
			tiles[t].Fold(TileBox{Rows: 1, NaN: nan, Box: geom.Envelope{MinX: x, MinY: y, MaxX: x, MaxY: y}})
		}
	}
}

// tilePass is the pooled scaffolding of one tile scatter over rows
// [from, n), cut into deg partitions. Partition 0 scatters into the
// caller's banks and tiles; partitions >= 1 into disjoint slabs of one
// run-tracked buffer in the dense grouped layout [count | spec 0 | spec 1
// | ...] and into their own span of the pass's tile slab; behind the
// slabs sits one fold sink per partition. Every partition writes its
// rows' slots into its span of the caller's slot vector.
type tilePass struct {
	pass    morsel.Pass
	pc      *PointCloud
	keys    []uint8
	classes *TileClasses
	tiler   sfc.Grid
	specs   []GroupedAggSpec
	from    int
	n, deg  int
	nslots  int
	stride  int // slab length: nslots * (1 + specs)
	cnt     []float64
	banks   [][]float64
	tiles   []TileBox
	slots   []int
	slabs   []float64
	// tileSlab holds the tiles of partitions 1..deg-1. It stays with the
	// pooled pass, so a warm scatter allocates none.
	tileSlab []TileBox
	tok      *cancel.Token
}

var tilePasses morsel.FreeList[tilePass]

// RunPartition quantises one partition's rows into composite (tile,
// class) slots and its tile counts and boxes, then runs the shared fold
// plan over the slot vector: one pass per value column, the count riding
// the first.
func (tp *tilePass) RunPartition(slot int) {
	rows := tp.n - tp.from
	start, end := tp.from+slot*rows/tp.deg, tp.from+(slot+1)*rows/tp.deg
	hitMorselWorker(tp.deg)
	slots := tp.slots[start-tp.from : end-tp.from]
	cnt, fb, tiles := tp.cnt, foldBanks{segs: tp.banks}, tp.tiles
	if slot > 0 {
		slab := tp.slabs[(slot-1)*tp.stride : slot*tp.stride]
		cnt, fb = slab[:tp.nslots], foldBanks{flat: slab[tp.nslots:], n: tp.nslots}
		tiles = tp.tileSlab[(slot-1)*len(tp.tiles) : slot*len(tp.tiles)]
		seedBank(cnt, AggCount)
		seedTiles(tiles)
	}
	tileScan(tp.pc.xs.Values(), tp.pc.ys.Values(), tp.keys, tp.classes, tp.tiler, start, end, slots, tiles, tp.tok)
	sink := tp.slabs[(tp.deg-1)*tp.stride:][slot*(tp.nslots+1) : (slot+1)*(tp.nslots+1)]
	if slot == 0 {
		fillNaN(sink) // partition 0 folds onto the caller's banks unseeded
	}
	foldSpecs(foldSrc{slots: slots}, tp.pc, tp.specs, nil, true, start, end, cnt, fb, sink, slot > 0, tp.tok)
}

// runTilePass scatters rows [from, n) into the caller's seeded banks and
// tiles in deg partitions and folds the slabs of partitions 1.. into them
// in ascending order — exact for count/min/max and the tiles; a sum spec
// pins deg to 1, where every tile's sum is the ascending row-order fold.
func (pc *PointCloud) runTilePass(run *Run, tiler sfc.Grid, keys []uint8, classes *TileClasses, specs []GroupedAggSpec, cnt []float64, banks [][]float64, tiles []TileBox, slots []int, from, n, deg int) error {
	ntiles := 1 << (2 * tiler.Order)
	nslots := ntiles << classes.Shift
	stride := nslots * (1 + len(specs))
	size := (deg-1)*stride + deg*(nslots+1)
	slabs := run.AcquireF64(size)[:size]
	defer run.RecycleF64(slabs)
	if err := groupPassCheckpoint(run); err != nil {
		return err
	}
	tp := tilePasses.Get()
	tp.pc, tp.keys, tp.classes, tp.tiler, tp.specs = pc, keys, classes, tiler, specs
	tp.from, tp.n, tp.deg, tp.nslots, tp.stride = from, n, deg, nslots, stride
	tp.cnt, tp.banks, tp.tiles, tp.slots, tp.slabs = cnt, banks, tiles[:ntiles], slots, slabs
	if cap(tp.tileSlab) < (deg-1)*ntiles {
		tp.tileSlab = make([]TileBox, (deg-1)*ntiles)
	}
	tp.tileSlab = tp.tileSlab[:(deg-1)*ntiles]
	tp.tok = run.Token()
	p := tp.pass.Run(deg, tp)
	tp.pc, tp.keys, tp.classes, tp.specs, tp.cnt, tp.banks, tp.tiles, tp.slots, tp.slabs, tp.tok = nil, nil, nil, nil, nil, nil, nil, nil, nil, nil
	defer tilePasses.Put(tp) // after the merge, which reads tp.tileSlab
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
		for t, tb := range tp.tileSlab[(w-1)*ntiles : w*ntiles] {
			tiles[t].Fold(tb)
		}
	}
	return nil
}

// GroupedAccumulateRows folds specs over an explicit row list into
// 256-slot class-indexed banks, running the same fold plan as the exact
// grouped arm — the pyramid's boundary-tile refinement entry point. bank
// is one flat slab laid out [count | spec 0 | spec 1 | ...]:
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
	u8, err := pc.tileKey(nil, keyCol, specs)
	if err != nil {
		return err
	}
	if len(bank) < (1+len(specs))*classDom {
		return fmt.Errorf("engine: class bank slab too small: %d slots for %d specs",
			len(bank), len(specs))
	}
	var sink [classDom + 1]float64
	fillNaN(sink[:])
	fb := foldBanks{flat: bank[classDom:], n: classDom}
	foldSpecs(foldSrc{keys8: u8.Values()}, pc, specs, rows, false, 0, len(rows), bank[:classDom], fb, sink[:], false, nil)
	return nil
}
