// Package pyramid implements the pre-aggregation tile pyramid (PR 10): a
// multi-resolution stack of per-tile, per-class aggregate banks over the
// sfc.Grid tiling, so zoomed-out viewport histograms answer from
// O(visible tiles) of pre-aggregates instead of O(points in region).
//
// Structure. Level o quantises the table extent into 2^o × 2^o tiles;
// levels run from the base order (sized so base tiles hold a few thousand
// rows) down to a single root tile. Every level stores, per (tile, class)
// slot, the class count plus one bank per requested min/max/sum column —
// built by the engine's grouped kernels fanned over the morsel worker set
// (engine.TileGroupedAggregateRun) at the base and folded child-into-
// parent above it — plus per-tile metadata: the row count and the tight
// bounding box of the rows that actually quantised into the tile. The
// base level keeps per-tile row postings (rows ascending within a tile)
// for boundary refinement. All banks are pooled column-shaped buffers
// (engine.AcquireF64 / AcquireRows) owned by the cache entry, recycled
// when the entry drops.
//
// Query. A viewport-histogram lookup picks the coarsest level whose tiles
// are still small against the viewport, walks the tile span of the
// region's envelope, and classifies each tile's DATA bounding box against
// the region: tiles fully inside fold their pre-aggregates (count adds
// and min/max strict folds merge exactly, so the fold is bit-identical to
// the serial scan); tiles fully outside are skipped; boundary tiles fall
// back to the exact compiled kernels over just their rows
// (engine.GroupedAccumulateRows after the same envelope check + per-point
// Contains test the grid refiner applies; a rectangle takes the grid's
// four-compare row loop, grid.RectRowsInto, instead). Classifying the data bbox
// rather than the geometric tile box keeps the interior/outside decisions
// exact by construction — every row lies inside its tile's closed data
// bbox — independent of quantisation rounding at tile edges.
//
// Determinism. Count/min/max merge exactly in any fold order, so those
// pyramid answers are bit-identical to the serial exact arm — the same
// argument as specsMergeExact for the morsel merge. Per-tile sums are
// built in ascending row order (the engine forces the serial scatter for
// sum banks) and folded in ascending tile order at query time: that is
// deterministic, but it is NOT the global ascending row-order fold the
// SQL float-determinism invariant pins, so Shape excludes sum/avg from
// SQL routing; sum banks exist for direct API users who accept tile-order
// folding.
package pyramid

import (
	"math"

	"gisnav/internal/cancel"
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
	// tilesAcross is the level-selection rule: choose the coarsest level
	// whose tile edge is at most 1/tilesAcross of the viewport edge, so
	// the boundary ring stays thin relative to the interior.
	tilesAcross = 4
	// maxQuerySpecs bounds the per-query stack scratch (spec → bank map).
	maxQuerySpecs = 16
)

// level is one resolution of the pyramid: per-(tile, class) banks plus
// per-tile metadata. Slot (t, k) of a bank lives at t*256+k with
// t = cy<<order | cx.
type level struct {
	grid  sfc.Grid
	cnt   []float64   // per-slot class counts
	banks [][]float64 // per canonical spec (p.specs), per-slot folds
	tot   []float64   // per-tile row counts
	bminx []float64   // per-tile data bounding boxes (±Inf when empty)
	bminy []float64
	bmaxx []float64
	bmaxy []float64
}

// Pyramid is the pre-aggregate stack for one (table, epoch, shape). It is
// immutable after build; concurrent queries share it read-only. Lifetime
// is reference-counted: the cache holds one reference while the entry is
// resident, every For caller holds one until Release — the last release
// returns the pooled banks.
type Pyramid struct {
	pc      *engine.PointCloud
	atEpoch uint64 // epoch the banks describe; a bump invalidates
	key     string
	specs   []engine.GroupedAggSpec // canonical non-count bank specs
	ext     geom.Envelope
	base    uint
	levels  []level // indexed by order, 0..base
	offs    []int   // base-tile postings: rows[offs[t]:offs[t+1]]
	rows    []int   // row ids, ascending within each base tile
	refs    refCount
}

// QueryStats describes one pyramid lookup, for EXPLAIN and the bench
// harness: the level served, how many tiles folded from pre-aggregates,
// how many fell back to exact refinement and over how many rows.
type QueryStats struct {
	Level        int
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

// newPyramid allocates the pooled bank storage for (pc, epoch, shape).
// Owner-scoped: these buffers belong to the cache entry, not to the query
// run that triggers the build — recycle (via the reference count) returns
// them. Returns nil when the table cannot host a pyramid: no rows, or a
// degenerate/non-finite extent the quantiser cannot split.
func newPyramid(pc *engine.PointCloud, epoch uint64, key string, specs []engine.GroupedAggSpec) *Pyramid {
	n := pc.Len()
	ext := pc.Extent()
	if n == 0 || ext.IsEmpty() || ext.Width() <= 0 || ext.Height() <= 0 ||
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
	p.refs.init(1)
	p.levels = make([]level, p.base+1)
	for o := uint(0); o <= p.base; o++ {
		ntiles := 1 << (2 * o)
		nslots := ntiles * tileDom
		l := &p.levels[o]
		l.grid = sfc.Grid{Extent: ext, Order: o}
		l.cnt = engine.AcquireF64(nslots)[:nslots]
		l.banks = make([][]float64, len(p.specs))
		for j := range p.specs {
			l.banks[j] = engine.AcquireF64(nslots)[:nslots]
		}
		l.tot = engine.AcquireF64(ntiles)[:ntiles]
		l.bminx = engine.AcquireF64(ntiles)[:ntiles]
		l.bminy = engine.AcquireF64(ntiles)[:ntiles]
		l.bmaxx = engine.AcquireF64(ntiles)[:ntiles]
		l.bmaxy = engine.AcquireF64(ntiles)[:ntiles]
	}
	baseTiles := 1 << (2 * p.base)
	p.offs = engine.AcquireRows(baseTiles + 1)[:baseTiles+1]
	p.rows = engine.AcquireRows(n)[:n]
	return p
}

// recycle returns every pooled buffer. Called only by the reference count
// when the last holder releases; no run is in scope — the buffers belong
// to the pyramid, not to any query lifecycle.
func (p *Pyramid) recycle() {
	for i := range p.levels {
		l := &p.levels[i]
		engine.RecycleF64(l.cnt)
		for _, b := range l.banks {
			engine.RecycleF64(b)
		}
		engine.RecycleF64(l.tot)
		engine.RecycleF64(l.bminx)
		engine.RecycleF64(l.bminy)
		engine.RecycleF64(l.bmaxx)
		engine.RecycleF64(l.bmaxy)
	}
	engine.RecycleRows(p.offs)
	engine.RecycleRows(p.rows)
}

// Release drops one reference (paired with the pin For returned). The
// last release recycles the pooled banks. Nil-safe.
func (p *Pyramid) Release() {
	if p == nil {
		return
	}
	if p.refs.dec() {
		p.recycle()
	}
}

// build fills the banks: the engine's parallel tile scatter at the base,
// per-tile metadata and postings in one extra pass, then child-into-
// parent folds up to the root. Runs under the triggering query's
// lifecycle for cancellation; the banks themselves are owner-scoped.
func (p *Pyramid) build(run *engine.Run, ex *engine.Explain) error {
	bl := &p.levels[p.base]
	if err := p.pc.TileGroupedAggregateRun(run, bl.grid, p.key, p.specs, bl.cnt, bl.banks, ex); err != nil {
		return err
	}
	if err := p.buildMeta(run); err != nil {
		return err
	}
	for o := int(p.base) - 1; o >= 0; o-- {
		if run.Cancelled() {
			return cancel.ErrCancelled
		}
		foldLevel(&p.levels[o], &p.levels[o+1], p.specs)
	}
	return nil
}

// buildMeta computes, in one quantisation pass plus a counting-sort
// scatter, the base level's per-tile row counts, tight data bounding
// boxes, and row postings (ascending row order within each tile — the
// order boundary refinement folds in).
func (p *Pyramid) buildMeta(run *engine.Run) error {
	bl := &p.levels[p.base]
	order := bl.grid.Order
	ntiles := 1 << (2 * order)
	xs, ys := p.pc.X(), p.pc.Y()
	n := len(xs)
	for t := 0; t < ntiles; t++ {
		bl.tot[t] = 0
		bl.bminx[t] = math.Inf(1)
		bl.bminy[t] = math.Inf(1)
		bl.bmaxx[t] = math.Inf(-1)
		bl.bmaxy[t] = math.Inf(-1)
		p.offs[t+1] = 0
	}
	p.offs[0] = 0
	tiles := run.AcquireRows(n)[:n]
	for r := 0; r < n; r++ {
		if r%(1<<16) == 0 && run.Cancelled() {
			run.RecycleRows(tiles)
			return cancel.ErrCancelled
		}
		x, y := xs[r], ys[r]
		cx, cy := bl.grid.Cell(x, y)
		t := int(cy)<<order | int(cx)
		tiles[r] = t
		bl.tot[t]++
		if x < bl.bminx[t] {
			bl.bminx[t] = x
		}
		if x > bl.bmaxx[t] {
			bl.bmaxx[t] = x
		}
		if y < bl.bminy[t] {
			bl.bminy[t] = y
		}
		if y > bl.bmaxy[t] {
			bl.bmaxy[t] = y
		}
		p.offs[t+1]++
	}
	for t := 0; t < ntiles; t++ {
		p.offs[t+1] += p.offs[t]
	}
	cur := run.AcquireRows(ntiles)[:ntiles]
	copy(cur, p.offs[:ntiles])
	for r := 0; r < n; r++ {
		t := tiles[r]
		p.rows[cur[t]] = r
		cur[t]++
	}
	run.RecycleRows(cur)
	run.RecycleRows(tiles)
	return nil
}

// foldLevel folds the four children of every dst tile in fixed ascending
// (dy, dx) order: counts and sums add, min/max fold strictly, bounding
// boxes and totals union. The fixed order keeps sum folds deterministic;
// count/min/max are order-exact regardless.
func foldLevel(dst, src *level, specs []engine.GroupedAggSpec) {
	order := dst.grid.Order
	nx := 1 << order
	for j, s := range specs {
		seed := 0.0
		switch s.Fn {
		case engine.AggMin:
			seed = math.Inf(1)
		case engine.AggMax:
			seed = math.Inf(-1)
		}
		b := dst.banks[j]
		for i := range b {
			b[i] = seed
		}
	}
	for i := range dst.cnt {
		dst.cnt[i] = 0
	}
	for cy := 0; cy < nx; cy++ {
		for cx := 0; cx < nx; cx++ {
			t := cy<<order | cx
			dst.tot[t] = 0
			dst.bminx[t] = math.Inf(1)
			dst.bminy[t] = math.Inf(1)
			dst.bmaxx[t] = math.Inf(-1)
			dst.bmaxy[t] = math.Inf(-1)
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					st := (2*cy+dy)<<(order+1) | (2*cx + dx)
					dst.tot[t] += src.tot[st]
					if src.bminx[st] < dst.bminx[t] {
						dst.bminx[t] = src.bminx[st]
					}
					if src.bminy[st] < dst.bminy[t] {
						dst.bminy[t] = src.bminy[st]
					}
					if src.bmaxx[st] > dst.bmaxx[t] {
						dst.bmaxx[t] = src.bmaxx[st]
					}
					if src.bmaxy[st] > dst.bmaxy[t] {
						dst.bmaxy[t] = src.bmaxy[st]
					}
					db := dst.cnt[t*tileDom : (t+1)*tileDom]
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
	}
}

// levelFor picks the coarsest level whose tiles are still fine against
// the viewport: descend while a tile edge exceeds 1/tilesAcross of the
// clipped viewport edge. Degenerate viewports get the base level.
func (p *Pyramid) levelFor(env geom.Envelope) uint {
	clip := env.Intersection(p.ext)
	vw, vh := clip.Width(), clip.Height()
	if !(vw > 0) || !(vh > 0) {
		return p.base
	}
	o := uint(0)
	for o < p.base {
		scale := float64(uint64(1) << o)
		if p.ext.Width()/scale <= vw/tilesAcross && p.ext.Height()/scale <= vh/tilesAcross {
			break
		}
		o++
	}
	return o
}

// QueryRegionRun answers a grouped viewport histogram from the pyramid:
// res receives one group per class present in the region, in ascending
// class order (the engine's FloatOrderKey order for u8 keys), each with
// one value per spec — bit-identical to the exact serial grouped arm for
// count/min/max shapes. ok reports whether the pyramid could serve the
// query; on false the caller falls back to the exact arm (unknown spec
// shape, or a region whose envelope the tiling cannot span). All query
// scratch is pooled and registered in the run's release list; warm
// lookups allocate nothing.
func (p *Pyramid) QueryRegionRun(run *engine.Run, region grid.Region, specs []engine.GroupedAggSpec, res *engine.GroupedResult) (QueryStats, bool, error) {
	qs := QueryStats{Level: -1}
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

	res.Keys = res.Keys[:0]
	for len(res.Cols) < len(specs) {
		res.Cols = append(res.Cols, nil)
	}
	res.Cols = res.Cols[:len(specs)]
	for j := range res.Cols {
		res.Cols[j] = res.Cols[j][:0]
	}
	res.Strategy = "pyramid"

	env := region.Envelope()
	if env.IsEmpty() || env.Intersection(p.ext).IsEmpty() {
		// The region cannot reach any row: zero groups, exactly what the
		// exact arm produces over an empty selection.
		qs.Level = int(p.base)
		countQuery(&qs)
		return qs, true, nil
	}
	lo := p.levelFor(env)
	l := &p.levels[lo]
	order := l.grid.Order
	qs.Level = int(order)
	x0, y0, x1, y1, ok := grid.TileSpan(l.grid, region)
	if !ok {
		// Non-finite envelope bounds: the exact arm's scan semantics
		// apply, not the tiling's.
		return qs, false, nil
	}
	// One tile of margin: data bounding boxes, not geometric tile boxes,
	// decide membership, and rounding at a tile edge can push a row's box
	// one tile past the envelope span.
	last := uint32(1)<<order - 1
	if x0 > 0 {
		x0--
	}
	if y0 > 0 {
		y0--
	}
	if x1 < last {
		x1++
	}
	if y1 < last {
		y1++
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
		qb := slab[(1+j)*tileDom : (2+j)*tileDom]
		seed := 0.0
		switch s.Fn {
		case engine.AggMin:
			seed = math.Inf(1)
		case engine.AggMax:
			seed = math.Inf(-1)
		}
		for i := range qb {
			qb[i] = seed
		}
	}

	// Walk the span in ascending (cy, cx) order: interior tiles fold
	// their pre-aggregates immediately (the deterministic tile order);
	// boundary tiles queue for exact refinement.
	span := int(x1-x0+1) * int(y1-y0+1)
	btiles := run.AcquireRows(span)[:0]
	boundRows := 0
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			t := int(cy)<<order | int(cx)
			if l.tot[t] == 0 {
				continue
			}
			box := geom.Envelope{MinX: l.bminx[t], MinY: l.bminy[t], MaxX: l.bmaxx[t], MaxY: l.bmaxy[t]}
			switch region.Classify(box) {
			case geom.BoxInside:
				qs.Interior++
				base := t * tileDom
				cb := l.cnt[base : base+tileDom]
				for k, c := range cb {
					qcnt[k] += c
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
						for k, v := range src {
							if v < dst[k] {
								dst[k] = v
							}
						}
					case engine.AggMax:
						for k, v := range src {
							if v > dst[k] {
								dst[k] = v
							}
						}
					default: // AggSum: ascending tile order
						for k, v := range src {
							dst[k] += v
						}
					}
				}
			case geom.BoxBoundary:
				qs.Boundary++
				boundRows += int(l.tot[t])
				btiles = append(btiles, t)
			}
		}
	}

	// Boundary refinement: gather the partial tiles' rows that pass the
	// same envelope check + Contains test the grid refiner applies, in
	// (tile, row) ascending order, then fold them through the exact dense
	// kernels. A rectangle is decided by the grid's four-compare row loop.
	if len(btiles) > 0 {
		xs, ys := p.pc.X(), p.pc.Y()
		rect, isRect := grid.RectOf(region)
		d := p.base - order
		rbuf := run.AcquireRows(boundRows)[:0]
		for bi, t := range btiles {
			if bi%8 == 0 && run.Cancelled() {
				run.RecycleRows(rbuf)
				run.RecycleRows(btiles)
				run.RecycleF64(slab)
				return qs, false, cancel.ErrCancelled
			}
			cx := uint32(t) & last
			cy := uint32(t) >> order
			for sy := int(cy) << d; sy < int(cy+1)<<d; sy++ {
				for sx := int(cx) << d; sx < int(cx+1)<<d; sx++ {
					st := sy<<p.base | sx
					if isRect {
						rbuf = grid.RectRowsInto(xs, ys, p.rows[p.offs[st]:p.offs[st+1]], rect, rbuf)
						continue
					}
					for _, r := range p.rows[p.offs[st]:p.offs[st+1]] {
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
		}
		qs.BoundaryRows = len(rbuf)
		if len(rbuf) > 0 {
			if err := p.pc.GroupedAccumulateRows(rbuf, p.key, specs, slab); err != nil {
				run.RecycleRows(rbuf)
				run.RecycleRows(btiles)
				run.RecycleF64(slab)
				return qs, false, err
			}
		}
		run.RecycleRows(rbuf)
	}
	run.RecycleRows(btiles)

	// Emit groups in ascending class order — FloatOrderKey order for u8
	// keys, the same order the engine's dense strategy produces.
	for k := 0; k < tileDom; k++ {
		c := qcnt[k]
		if c == 0 {
			continue
		}
		res.Keys = append(res.Keys, float64(k))
		for j := range specs {
			v := c
			if specs[j].Fn != engine.AggCount {
				v = slab[(1+j)*tileDom+k]
			}
			res.Cols[j] = append(res.Cols[j], v)
		}
	}
	run.RecycleF64(slab)
	countQuery(&qs)
	return qs, true, nil
}
