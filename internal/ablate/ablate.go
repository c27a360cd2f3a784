// Package ablate holds the comparison arms the paper's experiments
// measure the engine against: a spatial selection with no index, one with
// imprints but no refinement grid, and a thematic range filter with and
// without a column imprint. A column-store win means something only when
// an ablation attributes it to a technique ("Teaching an Old Elephant New
// Tricks", PAPERS.md), so the arms are kept — beside the engine, not on
// its production surface.
//
// The arms are written only against the exported engine, imprints and
// grid API. They are serial, keep no cache (callers build an imprint once
// and pass it in, so timed loops measure queries, not index builds) and
// return plain heap vectors the caller owns.
package ablate

import (
	"fmt"

	"gisnav/internal/colstore"
	"gisnav/internal/engine"
	"gisnav/internal/grid"
	"gisnav/internal/imprints"
)

// SelectRegionScan is the no-index spatial baseline: every row of the
// table is tested with the exact predicate.
func SelectRegionScan(pc *engine.PointCloud, region grid.Region) ([]int, grid.Stats) {
	return grid.RefineExhaustiveInto(pc.X(), pc.Y(), colstore.FullRange(pc.Len()), region, []int{})
}

// SelectRegionImprintsOnly filters with the coordinate imprints imX and
// imY (imprints.Build over pc.X() and pc.Y()) but refines exhaustively,
// with no grid — the arm isolating the grid's contribution.
func SelectRegionImprintsOnly(pc *engine.PointCloud, imX, imY *imprints.Imprints, region grid.Region) ([]int, grid.Stats) {
	env := region.Envelope()
	if env.IsEmpty() || pc.Len() == 0 {
		return []int{}, grid.Stats{}
	}
	terms := [...]imprints.Term{
		{Im: imX, Lo: env.MinX, Hi: env.MaxX},
		{Im: imY, Lo: env.MinY, Hi: env.MaxY},
	}
	cand, _, err := imprints.ConjunctiveRangesInto(terms[:], nil)
	if err != nil {
		// imX and imY index different tables or options: a caller bug.
		panic(fmt.Sprintf("ablate: x/y imprint walk: %v", err))
	}
	return grid.RefineExhaustiveInto(pc.X(), pc.Y(), cand, region, []int{})
}

// EnsureColumnImprint builds the imprint of the named column with the
// table's imprint options. Nothing is cached: the caller holds the index.
func EnsureColumnImprint(pc *engine.PointCloud, name string) (*imprints.Imprints, error) {
	col := pc.Column(name)
	if col == nil {
		return nil, fmt.Errorf("ablate: unknown column %q", name)
	}
	return imprints.BuildColumn(col, pc.ImprintOpts)
}

// FilterRangeIndexed returns the rows whose value in the named column lies
// in [lo, hi], pruning cache lines with the column's imprint im (from
// EnsureColumnImprint) and testing the candidate blocks with the engine's
// compiled range kernel. A wide predicate (imprint estimate at least half
// the table) skips candidate generation and drives the kernel over the
// whole column. The result equals FilterRangeScan's.
func FilterRangeIndexed(pc *engine.PointCloud, im *imprints.Imprints, name string, lo, hi float64) ([]int, error) {
	col := pc.Column(name)
	if col == nil {
		return nil, fmt.Errorf("ablate: unknown column %q", name)
	}
	n := pc.Len()
	est := min(im.EstimateRows(lo, hi), n)
	cand := colstore.FullRange(n)
	if !wideSelectivity(est, n) {
		cand = im.CandidateRangesInto(lo, hi, nil)
	}
	k := engine.CompileFilterKernel(col, engine.CmpBetween)
	a := k.Bind(lo, hi)
	rows := make([]int, 0, est)
	for _, r := range cand {
		rows = k.FilterBlock(a, r.Start, r.End, rows)
	}
	return rows, nil
}

// FilterRangeScan is the unindexed thematic arm: the same compiled range
// kernel over the whole column, with no imprint pruning.
func FilterRangeScan(pc *engine.PointCloud, name string, lo, hi float64) ([]int, error) {
	col := pc.Column(name)
	if col == nil {
		return nil, fmt.Errorf("ablate: unknown column %q", name)
	}
	k := engine.CompileFilterKernel(col, engine.CmpBetween)
	return k.FilterBlock(k.Bind(lo, hi), 0, col.Len(), []int{}), nil
}

// wideSelectivity reports whether an estimated match count is so large a
// fraction of the table that imprint candidate pruning cannot pay for its
// own dispatch: at half the rows or more nearly every cache line survives
// pruning anyway, and per-range dispatch made a wide BETWEEN slower than a
// plain scan.
func wideSelectivity(est, n int) bool { return n > 0 && 2*est >= n }
