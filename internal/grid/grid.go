// Package grid implements the refinement step of the paper's two-step
// spatial query model (§3.3): a regular grid is laid over the candidate
// points produced by the imprint filter, every non-empty cell is classified
// against the query region in a single step, and only points in cells that
// straddle the region boundary are tested exhaustively.
//
// A rectangle needs no grid. A region that is exactly its own envelope
// (RectOf: an ST_MakeEnvelope viewport) decides every candidate with four
// branch-free compares; the grid is for polygons, buffers and joins.
//
// Refinement here is one serial pass over a candidate range list. Fan-out
// is the engine's: its refine driver (engine/morsel.go) splits the list
// with SplitRangesInto, runs RefineInto once per partition and
// concatenates the partials in ascending order, at the degree the engine
// picks for every operator.
package grid

import (
	"math"
	"slices"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
	"gisnav/internal/geom"
)

// Region is the query area a refinement pass evaluates points against. The
// two implementations cover the demo's query classes: exact geometry
// predicates (point-in-polygon, §4.1) and within-distance predicates
// ("points near a fast transit road", §4.2).
type Region interface {
	// Envelope bounds the region; points outside it never match.
	Envelope() geom.Envelope
	// Classify relates a grid cell to the region.
	Classify(box geom.Envelope) geom.BoxRelation
	// Contains is the exact per-point predicate used for boundary cells.
	Contains(x, y float64) bool
}

// GeometryRegion adapts a geometry to Region with exact semantics.
type GeometryRegion struct {
	G geom.Geometry
}

// Envelope implements Region.
func (r GeometryRegion) Envelope() geom.Envelope { return r.G.Envelope() }

// Classify implements Region.
func (r GeometryRegion) Classify(box geom.Envelope) geom.BoxRelation {
	return geom.ClassifyBox(r.G, box)
}

// Contains implements Region.
func (r GeometryRegion) Contains(x, y float64) bool { return geom.ContainsPoint(r.G, x, y) }

// BufferRegion is the set of points within distance D of geometry G
// (the ST_DWithin predicate). Cell classification is conservative, based on
// the 1-Lipschitz property of the distance field: with c the cell centre and
// rad the cell half-diagonal, dist(p) ∈ [dist(c)-rad, dist(c)+rad] for every
// p in the cell, so cells provably inside or outside are decided with a
// single distance evaluation.
//
// A distance that is negative, NaN or ±Inf makes the region empty: a
// negative or NaN threshold can never be met by a (non-negative) distance,
// and an infinite one would buffer the envelope into a non-finite box that
// poisons grid sizing downstream. The guard lives here — not only in
// callers — so every query layer sees an empty (non-nil) selection instead
// of whatever Envelope.Buffer would produce.
type BufferRegion struct {
	G geom.Geometry
	D float64
}

// ValidDistance reports whether d is a usable DWithin threshold: finite and
// non-negative (the d >= 0 form also rejects NaN). It is THE validity rule
// for distance predicates — the SQL scalar st_dwithin shares it, so the
// interpreted and accelerated forms of the same query cannot diverge.
func ValidDistance(d float64) bool {
	return d >= 0 && !math.IsInf(d, 1)
}

// Envelope implements Region.
func (r BufferRegion) Envelope() geom.Envelope {
	if !ValidDistance(r.D) {
		return geom.EmptyEnvelope()
	}
	return r.G.Envelope().Buffer(r.D)
}

// Classify implements Region.
func (r BufferRegion) Classify(box geom.Envelope) geom.BoxRelation {
	if box.IsEmpty() || !ValidDistance(r.D) {
		return geom.BoxOutside
	}
	c := box.Center()
	rad := math.Hypot(box.Width(), box.Height()) / 2
	dist := geom.DistancePointToGeometry(c.X, c.Y, r.G)
	switch {
	case dist+rad <= r.D:
		return geom.BoxInside
	case dist-rad > r.D:
		return geom.BoxOutside
	default:
		return geom.BoxBoundary
	}
}

// Contains implements Region.
func (r BufferRegion) Contains(x, y float64) bool {
	return ValidDistance(r.D) && geom.DWithin(x, y, r.G, r.D)
}

// Options tunes refinement.
type Options struct {
	// TargetPointsPerCell sizes the grid so that cells hold roughly this
	// many candidate points. Defaults to 64.
	TargetPointsPerCell int
	// MaxCellsPerSide caps the grid resolution. Defaults to 1024.
	MaxCellsPerSide int
	// Cancel, when non-nil, is polled every refineBlock candidate rows; a
	// fired token makes the refinement return early with the matches found
	// so far (the caller decides partial results are discarded). The
	// engine threads each query's run token through a per-call copy of its
	// stored options.
	Cancel *cancel.Token
}

func (o Options) withDefaults() Options {
	if o.TargetPointsPerCell <= 0 {
		o.TargetPointsPerCell = 64
	}
	if o.MaxCellsPerSide <= 0 {
		o.MaxCellsPerSide = 1024
	}
	return o
}

// Stats reports what a refinement pass did; the per-operator EXPLAIN view
// of the demo's second scenario surfaces these numbers. A rectangle
// (RectOf) lays no grid: its dimensions and cell counts are zero and every
// match is a bulk accept.
type Stats struct {
	CandidateRows int // rows received from the filter step
	GridCellsX    int
	GridCellsY    int
	CellsTouched  int // distinct non-empty cells classified
	InsideCells   int
	BoundaryCells int
	OutsideCells  int
	BulkAccepted  int // points accepted without an exact test
	ExactTests    int // points needing the exact predicate
	Matches       int
}

// Add folds another pass's statistics into s: counts sum (CellsTouched
// counts a cell once per pass that touched it), grid dimensions take the
// larger of the two.
func (s *Stats) Add(o Stats) {
	s.CandidateRows += o.CandidateRows
	s.GridCellsX = max(s.GridCellsX, o.GridCellsX)
	s.GridCellsY = max(s.GridCellsY, o.GridCellsY)
	s.CellsTouched += o.CellsTouched
	s.InsideCells += o.InsideCells
	s.BoundaryCells += o.BoundaryCells
	s.OutsideCells += o.OutsideCells
	s.BulkAccepted += o.BulkAccepted
	s.ExactTests += o.ExactTests
	s.Matches += o.Matches
}

// cellState is the lazily computed classification of one grid cell.
type cellState uint8

const (
	cellUnknown cellState = iota
	cellInside
	cellOutside
	cellBoundary
)

// statePool recycles cell-state arrays across refinement passes, so the
// repeated-query steady state allocates nothing per pass. Same substrate
// as the engine's selection-vector pool (colstore.Pool); the engine's
// refinement partitions draw from it concurrently. The budget (16M cells = 16 MiB at one
// byte per cell) keeps a raised Options.MaxCellsPerSide from pinning
// worst-case grids for the process lifetime.
var statePool = colstore.Pool[cellState]{MaxElts: 1 << 24}

// getStates returns a zeroed cell-state array of length n (Get guarantees
// capacity, so reslicing is always in bounds; pooled arrays are dirty and
// must be cleared).
func getStates(n int) []cellState {
	s := statePool.Get(n)[:n]
	clear(s)
	return s
}

// putStates hands a cell-state array back to the pool.
func putStates(s []cellState) { statePool.Put(s) }

// RefineInto evaluates the region over the candidate row ranges, reading
// point coordinates from xs/ys, and appends the matching row indices in
// ascending order to matches (its existing elements are preserved; callers
// with pooled selection vectors pass one in). Cells are classified on
// first touch, so empty cells cost nothing.
func RefineInto(xs, ys []float64, cand []colstore.Range, region Region, opts Options, matches []int) ([]int, Stats) {
	opts = opts.withDefaults()
	var st Stats
	st.CandidateRows = colstore.RangesLen(cand)
	env := region.Envelope()
	if env.IsEmpty() || st.CandidateRows == 0 {
		return matches, st
	}
	// An envelope with NaN or ±Inf bounds cannot be gridded: the cell-width
	// arithmetic degenerates to NaN and the cell index would go out of
	// range. Such envelopes are reachable — constant folding can overflow
	// to ±Inf, and parameterised statements can re-bind a viewport constant
	// to a non-finite value — so fall back to the exact per-point test,
	// which agrees with the row-at-a-time evaluator bit for bit, one
	// refineBlock span at a time.
	base := len(matches)
	if !envFinite(env) {
		for _, r := range cand {
			for b0, b1 := range opts.Cancel.Blocks(r.Start, r.End, refineBlock) {
				var bst Stats
				matches, bst = RefineExhaustiveInto(xs, ys, []colstore.Range{{Start: b0, End: b1}}, region, matches)
				st.ExactTests += bst.ExactTests
			}
		}
		st.Matches = len(matches) - base
		return matches, st
	}
	if rect, ok := RectOf(region); ok {
		matches, st.Matches = refineRect(xs, ys, cand, rect, opts.Cancel, matches)
		st.BulkAccepted = st.Matches
		return matches, st
	}

	nx, ny := gridDims(st.CandidateRows, env, opts)
	st.GridCellsX, st.GridCellsY = nx, ny
	cellW := env.Width() / float64(nx)
	cellH := env.Height() / float64(ny)
	// Degenerate extents (point/line regions) still get one cell column/row.
	if cellW <= 0 {
		cellW = 1
	}
	if cellH <= 0 {
		cellH = 1
	}

	states := getStates(nx * ny)
	defer putStates(states)
	for _, r := range cand {
		// Ranges are walked in refineBlock-sized slices, so a fired token
		// stops the pass within one block with the work so far.
		for b0, b1 := range opts.Cancel.Blocks(r.Start, r.End, refineBlock) {
			matches = refineRange(xs, ys, colstore.Range{Start: b0, End: b1}, region, env, states, nx, ny, cellW, cellH, &st, matches)
		}
	}
	st.Matches = len(matches) - base
	return matches, st
}

// refineBlock is the cancellation poll granularity of the refinement
// loops: one token check per this many candidate rows.
const refineBlock = 4096

// RectOf reports whether region is a GeometryRegion over an axis-parallel
// rectangle (geom.RectOf) and returns the rectangle: membership in such a
// region is exactly the closed envelope compare, so the refinement loops
// decide it without a grid, a cell classification or a Contains call.
func RectOf(region Region) (geom.Envelope, bool) {
	r, ok := region.(GeometryRegion)
	if !ok {
		return geom.Envelope{}, false
	}
	return geom.RectOf(r.G)
}

// refineRect is RefineInto for a rectangle: the candidate ranges walked in
// refineBlock slices (one cancellation poll each) through the branch-free
// compare loop. It appends the matches in ascending order and returns how
// many it appended.
func refineRect(xs, ys []float64, cand []colstore.Range, env geom.Envelope, tok *cancel.Token, matches []int) ([]int, int) {
	base := len(matches)
	buf := slices.Grow(matches, colstore.RangesLen(cand))
	buf = buf[:cap(buf)]
	j := base
	for _, r := range cand {
		for b0, b1 := range tok.Blocks(r.Start, r.End, refineBlock) {
			j += rectBlock(xs[b0:b1], ys[b0:b1], b0, env, buf[j:])
		}
	}
	return buf[:j], j - base
}

// rectBlock writes to buf the rows b0+k whose point (xs[k], ys[k]) lies in
// the closed envelope, and returns how many it wrote: the kernels' block
// loop, buf[j] = row; j += in. buf must hold len(xs) rows.
func rectBlock(xs, ys []float64, b0 int, env geom.Envelope, buf []int) int {
	ys = ys[:len(xs)]
	j := 0
	for k, x := range xs {
		buf[j] = b0 + k
		j += inRect(env, x, ys[k])
	}
	return j
}

// RectRowsInto appends to out the rows of the list whose point lies in the
// closed envelope env, in list order — the row-list twin of rectBlock, as
// the kernels pair a selection loop with each block loop. The pyramid
// refines a rectangle's boundary-tile postings through it.
func RectRowsInto(xs, ys []float64, rows []int, env geom.Envelope, out []int) []int {
	j := len(out)
	out = slices.Grow(out, len(rows))
	buf := out[:j+len(rows)]
	for _, r := range rows {
		buf[j] = r
		j += inRect(env, xs[r], ys[r])
	}
	return buf[:j]
}

// inRect is the closed envelope compare as 0 or 1, without a branch: each
// compare sets a flag and the four are ANDed. NaN compares false.
func inRect(env geom.Envelope, x, y float64) int {
	x0, x1, y0, y1 := 0, 0, 0, 0
	if x >= env.MinX {
		x0 = 1
	}
	if x <= env.MaxX {
		x1 = 1
	}
	if y >= env.MinY {
		y0 = 1
	}
	if y <= env.MaxY {
		y1 = 1
	}
	return x0 & x1 & y0 & y1
}

// refineRange classifies and tests the candidate rows of one range slice
// — the body of RefineInto's main loop, factored out per cancellation
// block.
func refineRange(xs, ys []float64, r colstore.Range, region Region, env geom.Envelope,
	states []cellState, nx, ny int, cellW, cellH float64, st *Stats, matches []int) []int {
	for row := r.Start; row < r.End; row++ {
		x, y := xs[row], ys[row]
		// The negated closed compare also rejects a NaN coordinate, which
		// would otherwise reach the cell index below as int(NaN).
		if !(x >= env.MinX && x <= env.MaxX && y >= env.MinY && y <= env.MaxY) {
			continue
		}
		cx := int((x - env.MinX) / cellW)
		if cx >= nx {
			cx = nx - 1
		}
		cy := int((y - env.MinY) / cellH)
		if cy >= ny {
			cy = ny - 1
		}
		idx := cy*nx + cx
		state := states[idx]
		if state == cellUnknown {
			box := geom.Envelope{
				MinX: env.MinX + float64(cx)*cellW,
				MinY: env.MinY + float64(cy)*cellH,
				MaxX: env.MinX + float64(cx+1)*cellW,
				MaxY: env.MinY + float64(cy+1)*cellH,
			}
			st.CellsTouched++
			switch region.Classify(box) {
			case geom.BoxInside:
				state = cellInside
				st.InsideCells++
			case geom.BoxOutside:
				state = cellOutside
				st.OutsideCells++
			default:
				state = cellBoundary
				st.BoundaryCells++
			}
			states[idx] = state
		}
		switch state {
		case cellInside:
			st.BulkAccepted++
			matches = append(matches, row)
		case cellBoundary:
			st.ExactTests++
			if region.Contains(x, y) {
				matches = append(matches, row)
			}
		}
	}
	return matches
}

// RefineExhaustiveInto is the ablation baseline and the test reference:
// every candidate point inside the region's envelope is tested with the
// exact predicate, no grid (E10). Matches append to matches as in
// RefineInto.
func RefineExhaustiveInto(xs, ys []float64, cand []colstore.Range, region Region, matches []int) ([]int, Stats) {
	var st Stats
	st.CandidateRows = colstore.RangesLen(cand)
	env := region.Envelope()
	if env.IsEmpty() {
		return matches, st
	}
	base := len(matches)
	for _, r := range cand {
		for row := r.Start; row < r.End; row++ {
			x, y := xs[row], ys[row]
			if x < env.MinX || x > env.MaxX || y < env.MinY || y > env.MaxY {
				continue
			}
			st.ExactTests++
			if region.Contains(x, y) {
				matches = append(matches, row)
			}
		}
	}
	st.Matches = len(matches) - base
	return matches, st
}

// envFinite reports whether every envelope bound is a finite number — the
// precondition of the grid's cell arithmetic.
func envFinite(env geom.Envelope) bool {
	for _, v := range [4]float64{env.MinX, env.MinY, env.MaxX, env.MaxY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// gridDims sizes the grid to hold roughly TargetPointsPerCell candidates per
// cell, shaped to the envelope's aspect ratio.
func gridDims(candidates int, env geom.Envelope, opts Options) (nx, ny int) {
	cells := candidates / opts.TargetPointsPerCell
	if cells < 1 {
		cells = 1
	}
	aspect := 1.0
	if env.Height() > 0 {
		aspect = env.Width() / env.Height()
	}
	fx := math.Sqrt(float64(cells) * aspect)
	fy := float64(cells) / math.Max(fx, 1)
	nx = clampDim(int(math.Ceil(fx)), opts.MaxCellsPerSide)
	ny = clampDim(int(math.Ceil(fy)), opts.MaxCellsPerSide)
	return nx, ny
}

func clampDim(v, maxSide int) int {
	if v < 1 {
		return 1
	}
	if v > maxSide {
		return maxSide
	}
	return v
}
