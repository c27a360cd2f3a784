package engine

import (
	"fmt"
	"time"

	"gisnav/internal/colstore"
	"gisnav/internal/imprints"
)

// Column imprints are not specific to coordinates: any numeric column of
// the flat table can carry one (the SIGMOD'13 index is a general secondary
// index; the paper deploys it on X and Y for the spatial filter). The
// engine builds thematic imprints lazily per column, giving range
// predicates like "z BETWEEN 0 AND 5" or "intensity > 900" the same
// cacheline-pruning treatment as the spatial filter.

// EnsureColumnImprint returns the imprint of the named column, building it
// on first use. Imprints built here are dropped by InvalidateIndexes.
func (pc *PointCloud) EnsureColumnImprint(name string) (*imprints.Imprints, error) {
	col := pc.Column(name)
	if col == nil {
		return nil, fmt.Errorf("engine: unknown column %q", name)
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.colImprints == nil {
		pc.colImprints = map[string]*imprints.Imprints{}
	}
	if im, ok := pc.colImprints[name]; ok {
		return im, nil
	}
	im, err := imprints.BuildColumn(col, pc.ImprintOpts)
	if err != nil {
		return nil, err
	}
	pc.colImprints[name] = im
	return im, nil
}

// columnImprintIfBuilt returns the named column's imprint only when it has
// already been built — a cheap lookup used for selectivity hints, never
// triggering an index build.
func (pc *PointCloud) columnImprintIfBuilt(name string) *imprints.Imprints {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.colImprints[name]
}

// wideSelectivity reports whether an estimated match count is so large a
// fraction of the table that imprint candidate pruning cannot pay for its
// own dispatch: at half the rows or more, nearly every cacheline survives
// pruning anyway, and per-range dispatch plus selection-vector growth made
// a wide BETWEEN slower than a plain interface scan.
// Such predicates drive the block kernel over the full column instead.
func wideSelectivity(est, n int) bool { return n > 0 && 2*est >= n }

// FilterRangeIndexed returns the rows whose column value lies in [lo, hi],
// using the column's imprint for cacheline pruning followed by an exact
// range kernel over the candidate blocks. Wide predicates (imprint
// estimate at least half the table) skip candidate-range generation and
// drive the kernel over the full column; large candidate sets fan across
// the resident worker set (morsel.go). The result equals a full-column
// scan. The returned vector is pooled; RecycleRows hands it back.
func (pc *PointCloud) FilterRangeIndexed(name string, lo, hi float64, ex *Explain) ([]int, error) {
	im, err := pc.EnsureColumnImprint(name)
	if err != nil {
		return nil, err
	}
	col := pc.Column(name)
	start := time.Now()
	n := pc.Len()
	est := im.EstimateRows(lo, hi)
	if est > n {
		est = n
	}
	var cand []colstore.Range
	if wideSelectivity(est, n) {
		cand = append(getRangeBuf(1), colstore.Range{End: n})
	} else {
		cand = im.CandidateRangesInto(lo, hi, getRangeBuf(0))
	}
	defer RecycleRanges(cand)
	if ex != nil {
		ex.Add(opImprintsFilter, fmt.Sprintf("%s in [%g, %g]", name, lo, hi),
			n, colstore.RangesLen(cand), time.Since(start))
	}

	start = time.Now()
	k := pc.compileFilterCached(col, name, CmpBetween)
	a := k.Bind(lo, hi)
	// The imprint estimate bounds the match count, so the vector is sized
	// once and the block drive appends without growth at every degree.
	deg := pc.morselDegree(nil, colstore.RangesLen(cand))
	rows, err := filterRanges(k, a, cand, deg, getRowBuf(est))
	if err != nil {
		RecycleRows(rows)
		return nil, err
	}
	if ex != nil {
		ex.Add(opRefineRange, parDetail(fmt.Sprintf("exact tests on %s", name), deg),
			colstore.RangesLen(cand), len(rows), time.Since(start))
	}
	return rows, nil
}

// FilterRangeScan is the unindexed comparison arm: a full-column scan
// through the same compiled range kernel, with no imprint pruning. The
// returned vector is pooled; RecycleRows hands it back.
func (pc *PointCloud) FilterRangeScan(name string, lo, hi float64, ex *Explain) ([]int, error) {
	col := pc.Column(name)
	if col == nil {
		return nil, fmt.Errorf("engine: unknown column %q", name)
	}
	start := time.Now()
	k := pc.compileFilterCached(col, name, CmpBetween)
	rows := k.FilterBlock(k.Bind(lo, hi), 0, col.Len(), getRowBuf(col.Len()))
	if ex != nil {
		ex.Add(opScanRange, fmt.Sprintf("%s in [%g, %g]", name, lo, hi),
			pc.Len(), len(rows), time.Since(start))
	}
	return rows, nil
}
