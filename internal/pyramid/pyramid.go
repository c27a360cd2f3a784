// Package pyramid implements the pre-aggregation tile pyramid (PR 10): a
// multi-resolution stack of per-tile, per-class aggregate banks over the
// sfc.Grid tiling, so zoomed-out viewport histograms answer from
// O(visible tiles) of pre-aggregates instead of O(points in region).
//
// Structure. Level o quantises the table extent into 2^o × 2^o tiles;
// levels run from the base order (sized so base tiles hold a few thousand
// rows) down to a single root tile. Every level stores, per (tile, class)
// slot, the class count plus one bank per requested min/max/sum column,
// plus per-tile metadata: the row count and the tight bounding box of the
// rows that actually quantised into the tile. The base level keeps
// per-tile row postings (rows ascending within a tile) for boundary
// refinement. One pass of the engine's tile scatter, fanned over the
// morsel worker set (engine.TileGroupedAggregateRun), fills the base
// level: it quantises each row once, folds it into its slot's banks and
// its tile's count and box, and records its tile, from which the postings
// are placed. The levels above fold child-into-parent. The banks and
// postings are the pyramid's own exactly sized arrays (postings keep 1/8
// headroom for appends), not engine pool buffers: they live as long as the
// entry and go to the garbage collector with it.
//
// Appends. A pyramid over a table that has only been appended to since
// it was built extends in place instead of rebuilding (extend): the new
// rows go through the same tile scatter on top of the base level, so the
// banks fold them and the tile totals and data bounding boxes widen; the
// postings grow at each tile's tail (new row ids are larger than every old
// one, so tiles stay ascending), and only the ancestors of touched tiles
// refold. A build is the extension of an empty pyramid. Count, min, max
// and the boxes fold exactly in any order and each tile's sum keeps
// folding in ascending row order, so an extended pyramid is bit-identical
// to one built over the grown table. The cache extends an entry only when
// no query holds it pinned and the new rows fit the existing tiling (For).
//
// Query. A viewport-histogram lookup is a quadtree cover: it descends
// from the root tile, classifying each tile's DATA bounding box against
// the region. A tile fully inside folds its pre-aggregates at its own
// level, the coarsest that holds it; empty tiles and tiles fully outside
// are skipped; any other tile splits into its four children, and only base
// tiles the region's edge still crosses fall back to the exact compiled
// kernels over their rows (engine.GroupedAccumulateRows after the same
// envelope check + per-point Contains test the grid refiner applies; a
// rectangle takes the grid's four-compare row loop, grid.RectRowsInto).
// Classifying the data bbox rather than the geometric tile box keeps the
// decisions exact by construction — every row with finite coordinates
// lies inside its tile's closed data bbox — independent of quantisation
// rounding at tile edges. A row with a NaN coordinate lies in no box and
// no region, so a tile holding one never folds whole: it splits, and its
// base tile refines. Folds touch only the classes the root counts.
//
// Determinism. Count/min/max merge exactly in any fold order but one: a
// −0 and a +0 tie, and the serial exact arm keeps the first row's. Where
// a bank's column holds both signs, a zero min or max is looked up in row
// order; every other answer of those folds is bit-identical to the serial
// exact arm — the argument of specsMergeExact for the morsel merge.
// Per-tile sums are built in ascending row order (the engine forces the
// serial scatter for sum banks) and folded in cover order at query time:
// that is deterministic, but it is NOT the global ascending row-order
// fold the SQL float-determinism invariant pins, so Shape excludes sum/avg
// from SQL routing; sum banks exist for direct API users who accept
// cover-order folding.
package pyramid

import (
	"math"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/sfc"
)

const (
	// tileDom is the per-tile class domain: pyramids key on u8 columns
	// only (the dense grouped strategy's u8 arm).
	tileDom = 256
	// baseOrderMin/Max bound the base tiling; targetRowsPerTile sizes it.
	baseOrderMin      = 2
	baseOrderMax      = 5
	targetRowsPerTile = 1024
	// maxQuerySpecs bounds the per-query stack scratch (spec → bank map).
	maxQuerySpecs = 16
	// edgeBlock is how many edge tiles refine gathers per cancellation
	// poll, about targetRowsPerTile rows each.
	edgeBlock = 8
)

// level is one resolution of the pyramid: per-(tile, class) banks plus
// per-tile metadata. Slot (t, k) of a bank lives at t*256+k with
// t = cy<<order | cx.
type level struct {
	grid  sfc.Grid
	cnt   []float64        // per-slot class counts
	banks [][]float64      // per canonical spec (p.specs), per-slot folds
	tiles []engine.TileBox // per-tile row counts and data bounding boxes
}

// Pyramid is the pre-aggregate stack for one (table, epoch, shape).
// Concurrent queries share it read-only; only the cache mutates it
// (extend), under its mutex and while it holds the only reference. The
// reference count is that pin: the cache holds one reference while the
// entry is resident, every For caller holds one until Release.
type Pyramid struct {
	pc      *engine.PointCloud
	atEpoch uint64 // epoch the banks describe; a bump extends or drops them
	key     string
	specs   []engine.GroupedAggSpec // canonical non-count bank specs
	ext     geom.Envelope
	base    uint
	levels  []level // indexed by order, 0..base
	offs    []int   // base-tile postings: rows[offs[t]:offs[t+1]]
	rows    []int   // row ids, ascending within each base tile; len = rows covered
	zeros   []uint8 // per bank: the zero signs its column's covered rows hold
	refs    refCount
}

// QueryStats describes one pyramid lookup, for EXPLAIN and the bench
// harness: how many cover tiles, of any order, folded from pre-aggregates,
// how many base tiles fell back to exact refinement, and how many of their
// rows lay in the region.
type QueryStats struct {
	Interior     int
	Boundary     int
	BoundaryRows int
}

// baseOrderFor sizes the base tiling from the row count: the finest order
// (within bounds) whose tiles still average targetRowsPerTile rows.
func baseOrderFor(n int) uint {
	o := uint(baseOrderMin)
	for o < baseOrderMax && (1<<(2*(o+1)))*targetRowsPerTile <= n {
		o++
	}
	return o
}

// newPyramid allocates the bank storage for (pc, epoch, shape), seeded
// for an empty table: counts and totals zero, min/max banks ±Inf, sums
// zero, bounding boxes empty. Returns nil when the table cannot host a
// pyramid: no rows, or a degenerate/non-finite extent the quantiser
// cannot split — an empty one included, which Extent reports when a
// coordinate column holds no number.
func newPyramid(pc *engine.PointCloud, epoch uint64, key string, specs []engine.GroupedAggSpec) *Pyramid {
	n := pc.Len()
	ext := pc.Extent()
	if n == 0 || ext.IsEmpty() || !(ext.Width() > 0) || !(ext.Height() > 0) ||
		math.IsInf(ext.Width(), 0) || math.IsInf(ext.Height(), 0) {
		return nil
	}
	p := &Pyramid{
		pc:      pc,
		atEpoch: epoch,
		key:     key,
		specs:   canonicalBanks(specs),
		ext:     ext,
		base:    baseOrderFor(n),
	}
	p.zeros = make([]uint8, len(p.specs))
	p.refs.init(1)
	p.levels = make([]level, p.base+1)
	for o := uint(0); o <= p.base; o++ {
		ntiles := 1 << (2 * o)
		l := &p.levels[o]
		l.grid = sfc.Grid{Extent: ext, Order: o}
		l.cnt = make([]float64, ntiles*tileDom)
		l.banks = make([][]float64, len(p.specs))
		for j, s := range p.specs {
			l.banks[j] = make([]float64, ntiles*tileDom)
			seedBank(l.banks[j], s.Fn)
		}
		l.tiles = make([]engine.TileBox, ntiles)
		for t := range l.tiles {
			l.tiles[t] = engine.EmptyTileBox
		}
	}
	p.offs = make([]int, 1<<(2*p.base)+1)
	p.rows = make([]int, 0, n+n/postingsHeadroom)
	return p
}

// postingsHeadroom sizes the postings' spare capacity: 1/postingsHeadroom
// of the rows covered, so a run of appends regrows them only every few.
const postingsHeadroom = 8

// seedBank sets every slot of a bank to its fold's identity.
func seedBank(b []float64, fn engine.AggFunc) {
	seed := 0.0
	switch fn {
	case engine.AggMin:
		seed = math.Inf(1)
	case engine.AggMax:
		seed = math.Inf(-1)
	}
	for i := range b {
		b[i] = seed
	}
}

// Release drops one reference (paired with the pin For returned).
// Nil-safe.
func (p *Pyramid) Release() {
	if p == nil {
		return
	}
	p.refs.dec()
}

// build fills the freshly seeded banks with every row of the table. Runs
// under the triggering query's lifecycle for cancellation.
func (p *Pyramid) build(run *engine.Run, ex *engine.Explain) error {
	return p.extend(run, p.atEpoch, ex)
}

// extendable reports whether the pyramid may extend in place to the
// table's current rows: only appends since atEpoch, every new row inside
// the extent the tiling quantises (so a build would pick the same
// extent), the same base order for the grown row count, and no query
// holding it pinned. Called under the cache mutex.
func (p *Pyramid) extendable() bool {
	n := p.pc.Len()
	if !p.refs.sole() || !p.pc.AppendOnlySince(p.atEpoch) || n < len(p.rows) || baseOrderFor(n) != p.base {
		return false
	}
	xs, ys := p.pc.X(), p.pc.Y()
	for r := len(p.rows); r < n; r++ {
		if !(xs[r] >= p.ext.MinX && xs[r] <= p.ext.MaxX && ys[r] >= p.ext.MinY && ys[r] <= p.ext.MaxY) {
			return false
		}
	}
	return true
}

// extend folds the table's rows past the ones the pyramid covers into it
// and moves it to epoch: the engine's tile scatter on top of the base
// banks, which also takes the rows into the base tiles' totals and data
// bounding boxes and reports each row's tile, then the postings placed
// from those, then the refold of every ancestor of a tile that gained
// rows. From an empty pyramid that is the build. The caller guarantees the
// rows before len(p.rows) are unchanged and every new row lies inside
// p.ext, so the tiling holds; a cancelled or failed extend leaves the
// pyramid torn, and the caller must drop it.
func (p *Pyramid) extend(run *engine.Run, epoch uint64, ex *engine.Explain) error {
	bl := &p.levels[p.base]
	from, n := len(p.rows), p.pc.Len()
	slots := run.AcquireRows(n - from)[:n-from]
	defer run.RecycleRows(slots)
	if err := p.pc.TileGroupedAggregateRun(run, bl.grid, p.key, p.specs, bl.cnt, bl.banks, bl.tiles, slots, from, ex); err != nil {
		return err
	}
	for j, s := range p.specs {
		p.zeros[j] |= zeroSigns(p.pc.Column(s.Column), from, n)
	}
	touched := p.place(slots, from)
	for o := int(p.base) - 1; o >= 0; o-- {
		touched = refoldLevel(&p.levels[o], &p.levels[o+1], p.specs, touched)
	}
	p.atEpoch = epoch
	return nil
}

// bothZeros is zeroSigns' report of a column holding both a +0 and a −0,
// which tie under the strict compares of a min or max fold.
const bothZeros = 3

// zeroSigns reports the zero signs rows [from, n) of col hold: bit 0 a
// +0, bit 1 a −0. Only a float column can hold a −0.
func zeroSigns(col colstore.Column, from, n int) (signs uint8) {
	if f, ok := col.(*colstore.F64Column); ok {
		for _, v := range f.Values()[from:n] {
			if v == 0 {
				signs |= 1 << (math.Float64bits(v) >> 63)
			}
		}
	}
	return signs
}

// place merges rows [from, from+len(slots)) into the base postings, after
// the scatter counted them into the base totals: a tile gained its total
// less the postings it holds. Each tile's old postings move up by the rows
// the tiles before it gained, and its new rows follow them in ascending
// order — the order boundary refinement folds in. slots[i]/tileDom is
// row from+i's tile. It returns the base tiles that gained a row.
func (p *Pyramid) place(slots []int, from int) []bool {
	tiles := p.levels[p.base].tiles
	n := from + len(slots)
	if cap(p.rows) < n {
		rows := make([]int, from, n+n/postingsHeadroom)
		copy(rows, p.rows)
		p.rows = rows
	}
	p.rows = p.rows[:n]
	touched := make([]bool, len(tiles))
	next := make([]int, len(tiles)) // insert slot of each tile's first new row
	// Descending tiles: a tile's postings only move up, into space its
	// successors have already vacated.
	shift := n - from
	for t := len(tiles) - 1; t >= 0; t-- {
		lo, hi := p.offs[t], p.offs[t+1]
		gained := tiles[t].Rows - (hi - lo)
		shift -= gained
		copy(p.rows[lo+shift:], p.rows[lo:hi])
		p.offs[t+1] = hi + shift + gained
		next[t] = hi + shift
		touched[t] = gained > 0
	}
	for i, s := range slots {
		t := s / tileDom
		p.rows[next[t]] = from + i
		next[t]++
	}
	return touched
}

// refoldLevel refolds, from its four children, every dst tile with a
// touched child (touched indexes src's tiles) and returns the dst tiles
// it refolded.
func refoldLevel(dst, src *level, specs []engine.GroupedAggSpec, touched []bool) []bool {
	order := dst.grid.Order
	nx := 1 << order
	out := make([]bool, nx*nx)
	for cy := 0; cy < nx; cy++ {
		for cx := 0; cx < nx; cx++ {
			t := cy<<order | cx
			for d := 0; d < 4 && !out[t]; d++ {
				out[t] = touched[(2*cy+d>>1)<<(order+1)|(2*cx+d&1)]
			}
			if out[t] {
				foldTile(dst, src, specs, cx, cy)
			}
		}
	}
	return out
}

// foldTile recomputes dst tile (cx, cy) from its four children in fixed
// ascending (dy, dx) order: counts and sums add, min/max fold strictly,
// bounding boxes and totals union. The fixed order keeps sum folds
// deterministic — a refold after an append gives the bits a build does;
// count/min/max are order-exact regardless.
func foldTile(dst, src *level, specs []engine.GroupedAggSpec, cx, cy int) {
	order := dst.grid.Order
	t := cy<<order | cx
	db := dst.cnt[t*tileDom : (t+1)*tileDom]
	clear(db)
	for j, s := range specs {
		seedBank(dst.banks[j][t*tileDom:(t+1)*tileDom], s.Fn)
	}
	dst.tiles[t] = engine.EmptyTileBox
	for dy := 0; dy < 2; dy++ {
		for dx := 0; dx < 2; dx++ {
			st := (2*cy+dy)<<(order+1) | (2*cx + dx)
			dst.tiles[t].Fold(src.tiles[st])
			sb := src.cnt[st*tileDom : (st+1)*tileDom]
			for k := range db {
				db[k] += sb[k]
			}
			for j, s := range specs {
				dj := dst.banks[j][t*tileDom : (t+1)*tileDom]
				sj := src.banks[j][st*tileDom : (st+1)*tileDom]
				switch s.Fn {
				case engine.AggMin:
					for k := range dj {
						if sj[k] < dj[k] {
							dj[k] = sj[k]
						}
					}
				case engine.AggMax:
					for k := range dj {
						if sj[k] > dj[k] {
							dj[k] = sj[k]
						}
					}
				default: // AggSum: children fold in fixed ascending order
					for k := range dj {
						dj[k] += sj[k]
					}
				}
			}
		}
	}
}

// Cover tiles travel packed in one int: the tile index above orderBits
// bits of order.
const (
	orderBits = 3
	orderMask = 1<<orderBits - 1
)

// cover descends the quadtree over region from the root tile and appends
// the tiles that answer it. Empty tiles and tiles whose data box lies
// outside the region are skipped. A tile whose data box lies inside joins
// inside, packed, at the coarsest order that holds it — unless it has a
// row with a NaN coordinate: its box leaves such rows out and Contains
// rejects them, so it goes on like a tile the region's edge crosses. Such
// a tile splits into its four children, and a base tile joins edge
// instead. Tiles join in depth-first ascending (dy, dx) order, the fold
// order. Every row lies in its tile's closed data box, so the rows of the
// inside tiles are exactly the region's rows outside the edge tiles.
func (p *Pyramid) cover(region grid.Region, inside, edge []int) ([]int, []int) {
	var stack [1 + 3*baseOrderMax]int // the root; each split pops one tile and pushes four
	for sp := 1; sp > 0; {
		sp--
		o, t := uint(stack[sp]&orderMask), stack[sp]>>orderBits
		tb := &p.levels[o].tiles[t]
		if tb.Rows == 0 {
			continue
		}
		switch rel := region.Classify(tb.Box); {
		case rel == geom.BoxOutside:
		case rel == geom.BoxInside && tb.NaN == 0:
			inside = append(inside, stack[sp])
		case o == p.base:
			edge = append(edge, t)
		default: // pushed last first, so the children pop in ascending order
			cx, cy := t&(1<<o-1), t>>o
			for d := 3; d >= 0; d-- {
				c := (2*cy+d>>1)<<(o+1) | (2*cx + d&1)
				stack[sp] = c<<orderBits | int(o+1)
				sp++
			}
		}
	}
	return inside, edge
}

// QueryRegionRun answers a grouped viewport histogram from the pyramid:
// res receives one group per class present in the region, in ascending
// class order (the engine's FloatOrderKey order for u8 keys), each with
// one value per spec — bit-identical to the exact serial grouped arm for
// count/min/max shapes. ok reports whether the pyramid could serve the
// query; on false the caller falls back to the exact arm (unknown spec
// shape, or a region whose clipped envelope has a non-finite bound). All
// query scratch is pooled and registered in the run's release list; warm
// lookups allocate nothing.
func (p *Pyramid) QueryRegionRun(run *engine.Run, region grid.Region, specs []engine.GroupedAggSpec, res *engine.GroupedResult) (QueryStats, bool, error) {
	var qs QueryStats
	if region == nil || len(specs) > maxQuerySpecs {
		return qs, false, nil
	}
	var bmapArr [maxQuerySpecs]int
	bmap := bmapArr[:len(specs)]
	for j, s := range specs {
		bmap[j] = -1
		if s.Fn == engine.AggCount {
			continue
		}
		found := false
		for i, b := range p.specs {
			if b.Fn == s.Fn && b.Column == s.Column {
				bmap[j] = i
				found = true
				break
			}
		}
		if !found {
			return qs, false, nil
		}
	}
	res.Reset(len(specs))
	res.Strategy = "pyramid"

	env := region.Envelope()
	clip := env.Intersection(p.ext)
	if env.IsEmpty() || clip.IsEmpty() {
		// The region cannot reach any row: zero groups, exactly what the
		// exact arm produces over an empty selection.
		countQuery(&qs)
		return qs, true, nil
	}
	if c := clip.MinX + clip.MinY + clip.MaxX + clip.MaxY; c-c != 0 {
		return qs, false, nil // a non-finite bound: the exact arm's scan semantics apply
	}

	// The query accumulator is one flat pooled slab in GroupedAccumulateRows
	// layout — [count | spec 0 | spec 1 | ...], 256 slots each — so the warm
	// path builds no per-call slice headers.
	nspecs := len(specs)
	slab := run.AcquireF64((1 + nspecs) * tileDom)[:(1+nspecs)*tileDom]
	qcnt := slab[:tileDom]
	for i := range qcnt {
		qcnt[i] = 0
	}
	for j, s := range specs {
		seedBank(slab[(1+j)*tileDom:(2+j)*tileDom], s.Fn)
	}
	// Only the classes the root counts occur in any tile. An absent class
	// holds count 0, its min/max seed and a +0 sum everywhere, so folding
	// the present ones alone changes no bit. The root refolds on every
	// extension, so the list follows appends.
	var presentArr [tileDom]uint8
	present := presentArr[:0]
	for k, c := range p.levels[0].cnt[:tileDom] {
		if c > 0 {
			present = append(present, uint8(k))
		}
	}

	// Interior tiles fold their pre-aggregates in cover order; edge tiles
	// refine their rows exactly. Every tile joins the cover at most once.
	inside := run.AcquireRows((1<<(2*(p.base+1)) - 1) / 3)[:0]
	edge := run.AcquireRows(len(p.levels[p.base].tiles))[:0]
	inside, edge = p.cover(region, inside, edge)
	qs.Interior, qs.Boundary = len(inside), len(edge)
	for _, c := range inside {
		l, base := &p.levels[c&orderMask], (c>>orderBits)*tileDom
		cb := l.cnt[base : base+tileDom]
		for _, k := range present {
			qcnt[k] += cb[k]
		}
		for j := range specs {
			bi := bmap[j]
			if bi < 0 {
				continue
			}
			src := l.banks[bi][base : base+tileDom]
			dst := slab[(1+j)*tileDom : (2+j)*tileDom]
			switch specs[j].Fn {
			case engine.AggMin:
				for _, k := range present {
					if src[k] < dst[k] {
						dst[k] = src[k]
					}
				}
			case engine.AggMax:
				for _, k := range present {
					if src[k] > dst[k] {
						dst[k] = src[k]
					}
				}
			default: // AggSum: cover order
				for _, k := range present {
					dst[k] += src[k]
				}
			}
		}
	}
	var err error
	qs.BoundaryRows, err = p.refine(run, region, edge, specs, slab)
	run.RecycleRows(edge)
	run.RecycleRows(inside)
	if err != nil {
		run.RecycleF64(slab)
		return qs, false, err
	}

	// Emit groups in ascending class order — FloatOrderKey order for u8
	// keys, the same order the engine's dense strategy produces.
	for _, k := range present {
		c := qcnt[k]
		if c == 0 {
			continue
		}
		res.Keys = append(res.Keys, float64(k))
		for j := range specs {
			v := c
			if bi := bmap[j]; bi >= 0 {
				v = slab[(1+j)*tileDom+int(k)]
				if v == 0 && p.zeros[bi] == bothZeros {
					v = p.firstZero(region, k, specs[j].Column)
				}
			}
			res.Cols[j] = append(res.Cols[j], v)
		}
	}
	run.RecycleF64(slab)
	countQuery(&qs)
	return qs, true, nil
}

// refine folds the region's rows in the edge base tiles into slab through
// the exact dense kernels and returns how many there were. A row counts
// when it passes the envelope check and Contains test the grid refiner
// applies; a rectangle is decided by the grid's four-compare row loop.
// Rows are gathered in cover order, ascending within each tile.
func (p *Pyramid) refine(run *engine.Run, region grid.Region, edge []int, specs []engine.GroupedAggSpec, slab []float64) (int, error) {
	n := 0
	for _, t := range edge {
		n += p.offs[t+1] - p.offs[t]
	}
	xs, ys := p.pc.X(), p.pc.Y()
	env := region.Envelope()
	rect, isRect := grid.RectOf(region)
	rbuf := run.AcquireRows(n)[:0]
	for b0, b1 := range run.Token().Blocks(0, len(edge), edgeBlock) {
		for _, t := range edge[b0:b1] {
			rows := p.rows[p.offs[t]:p.offs[t+1]]
			if isRect {
				rbuf = grid.RectRowsInto(xs, ys, rows, rect, rbuf)
				continue
			}
			for _, r := range rows {
				x, y := xs[r], ys[r]
				if x < env.MinX || x > env.MaxX || y < env.MinY || y > env.MaxY {
					continue
				}
				if region.Contains(x, y) {
					rbuf = append(rbuf, r)
				}
			}
		}
	}
	if run.Cancelled() {
		run.RecycleRows(rbuf)
		return 0, cancel.ErrCancelled
	}
	var err error
	if len(rbuf) > 0 {
		err = p.pc.GroupedAccumulateRows(rbuf, p.key, specs, slab)
	}
	run.RecycleRows(rbuf)
	return len(rbuf), err
}

// firstZero returns the value of the first row, in row order, that lies in
// region, is of class k and holds a zero in column col. Of tied zeros the
// exact arm keeps the first row's, which cover order cannot tell when the
// column holds both signs: a zero min or max there is looked up here.
func (p *Pyramid) firstZero(region grid.Region, k uint8, col string) float64 {
	xs, ys := p.pc.X(), p.pc.Y()
	keys := p.pc.Column(p.key).(*colstore.U8Column).Values()
	env := region.Envelope()
	for r, v := range p.pc.Column(col).(*colstore.F64Column).Values()[:len(p.rows)] {
		x, y := xs[r], ys[r]
		if v == 0 && keys[r] == k && x >= env.MinX && x <= env.MaxX && y >= env.MinY && y <= env.MaxY && region.Contains(x, y) {
			return v
		}
	}
	return 0
}
