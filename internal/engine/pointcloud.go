package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gisnav/internal/bounded"
	"gisnav/internal/colstore"
	"gisnav/internal/faultpoint"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/imprints"
	"gisnav/internal/las"
)

// PointCloud is the flat-table point-cloud store: 26 parallel columns plus
// lazily built column imprints on the X and Y coordinates. It is safe for
// concurrent readers; appends require external exclusion (the bulk loader is
// single-writer, as in the paper's pipeline).
type PointCloud struct {
	schema colstore.Schema
	cols   []colstore.Column

	// Typed fast paths into the coordinate columns.
	xs, ys, zs *colstore.F64Column

	// Imprint configuration and the lazily built indexes. The paper builds
	// imprints when the first range query arrives (§3.2).
	ImprintOpts imprints.Options
	GridOpts    grid.Options
	// Parallel lets large operators (filter, min/max, grouped count/min/max,
	// grid refinement) fan across the resident worker set when the run sets
	// no degree cap of its own (MonetDB executes operators in parallel;
	// results are identical).
	Parallel bool

	mu       sync.Mutex
	imprintX *imprints.Imprints
	imprintY *imprints.Imprints

	// plans memoises compiled filter kernels per (column, op); dropped
	// together with the imprints on InvalidateIndexes, because both bind to
	// column backing arrays that appends may move.
	plans *bounded.Map[planKey, *Kernel]

	// epoch counts index invalidations. Everything that binds to a column's
	// backing array across calls — compiled kernels, the SQL layer's
	// prepared plans — captures the epoch before binding and revalidates it
	// before reuse, so an append (which may move backing arrays) can never
	// serve state bound to the old arrays.
	epoch atomic.Uint64
}

// NewPointCloud returns an empty flat table with the 26-attribute schema.
func NewPointCloud() *PointCloud {
	schema := PointCloudSchema()
	cols := schema.NewColumns()
	return &PointCloud{
		schema: schema,
		cols:   cols,
		xs:     cols[0].(*colstore.F64Column),
		ys:     cols[1].(*colstore.F64Column),
		zs:     cols[2].(*colstore.F64Column),
		plans:  bounded.New[planKey, *Kernel](maxCachedPlans),
	}
}

// Len reports the row count.
func (pc *PointCloud) Len() int { return pc.xs.Len() }

// Schema returns the table schema.
func (pc *PointCloud) Schema() colstore.Schema { return pc.schema }

// Column returns the column with the given name, or nil.
func (pc *PointCloud) Column(name string) colstore.Column {
	i := pc.schema.FieldIndex(name)
	if i < 0 {
		return nil
	}
	return pc.cols[i]
}

// Columns returns all columns in schema order.
func (pc *PointCloud) Columns() []colstore.Column { return pc.cols }

// X, Y, Z expose the coordinate columns' backing slices.
func (pc *PointCloud) X() []float64 { return pc.xs.Values() }

// Y returns the Y coordinate slice.
func (pc *PointCloud) Y() []float64 { return pc.ys.Values() }

// Z returns the Z coordinate slice.
func (pc *PointCloud) Z() []float64 { return pc.zs.Values() }

// Extent returns the 2-D bounding box of the cloud.
func (pc *PointCloud) Extent() geom.Envelope {
	env := geom.EmptyEnvelope()
	xlo, xhi, ok := pc.xs.MinMax()
	if !ok {
		return env
	}
	ylo, yhi, _ := pc.ys.MinMax()
	return geom.NewEnvelope(xlo, ylo, xhi, yhi)
}

// AppendLAS bulk-appends LAS points row-wise (the slow reference path; the
// binary loader in loader.go is the paper's fast path).
func (pc *PointCloud) AppendLAS(pts []las.Point) {
	for _, p := range pts {
		appendLASPoint(pc.cols, p)
	}
	pc.InvalidateIndexes()
}

// InvalidateIndexes drops the imprints and the compiled-kernel plan cache;
// both rebuild on the next query. Appends must call this (and do, on every
// load path): they can move column backing arrays, so cached kernels and
// imprints bound to the old arrays must not serve another query.
func (pc *PointCloud) InvalidateIndexes() {
	// Bump first: a plan prepared concurrently that read the old epoch will
	// observe the mismatch and replan, the safe direction (appends still
	// require external exclusion from in-flight queries, as below).
	pc.epoch.Add(1)
	pc.mu.Lock()
	pc.imprintX, pc.imprintY = nil, nil
	pc.mu.Unlock()
	pc.plans.Reset()
}

// Epoch returns the table's invalidation epoch: a monotonic counter bumped
// by every InvalidateIndexes call (and therefore by every append path).
// Capture it before binding to column backing arrays; a later mismatch
// means the arrays may have moved and the binding must be rebuilt.
func (pc *PointCloud) Epoch() uint64 { return pc.epoch.Load() }

// HasImprints reports whether the coordinate imprints are currently built.
func (pc *PointCloud) HasImprints() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.imprintX != nil && pc.imprintY != nil
}

// EnsureImprints builds the X and Y imprints if absent, returning the build
// time (zero when already present). Mirrors MonetDB's create-on-first-query
// behaviour (§3.2).
func (pc *PointCloud) EnsureImprints() time.Duration {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.ensureImprintsLocked()
}

// ensureImprintsLocked builds the coordinate imprints; pc.mu must be held.
func (pc *PointCloud) ensureImprintsLocked() time.Duration {
	if pc.imprintX != nil && pc.imprintY != nil {
		return 0
	}
	start := time.Now()
	ix, err := imprints.Build(pc.xs.Values(), pc.ImprintOpts)
	if err != nil {
		// Options are programmer-controlled; invalid ones are a bug.
		panic(fmt.Sprintf("engine: building x imprints: %v", err))
	}
	iy, err := imprints.Build(pc.ys.Values(), pc.ImprintOpts)
	if err != nil {
		panic(fmt.Sprintf("engine: building y imprints: %v", err))
	}
	pc.imprintX, pc.imprintY = ix, iy
	return time.Since(start)
}

// imprintsXY returns stable references to the coordinate imprints, building
// them if a concurrent invalidation raced the caller's EnsureImprints. The
// returned values stay valid even if the table's indexes are invalidated
// afterwards (imprints are immutable once built).
func (pc *PointCloud) imprintsXY() (*imprints.Imprints, *imprints.Imprints) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.ensureImprintsLocked()
	return pc.imprintX, pc.imprintY
}

// ImprintStats returns the index statistics of both coordinate imprints
// (building them if needed).
func (pc *PointCloud) ImprintStats() (x, y imprints.Stats) {
	pc.EnsureImprints()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.imprintX.Stats(), pc.imprintY.Stats()
}

// Bytes reports the flat table payload size (columns only).
func (pc *PointCloud) Bytes() int {
	n := 0
	for _, c := range pc.cols {
		n += c.Bytes()
	}
	return n
}

// IndexBytes reports the imprint storage (0 when not built).
func (pc *PointCloud) IndexBytes() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	n := 0
	if pc.imprintX != nil {
		n += pc.imprintX.Bytes()
	}
	if pc.imprintY != nil {
		n += pc.imprintY.Bytes()
	}
	return n
}

// SelectRegionRows is SelectRegionRowsRun without a lifecycle or a trace:
// the navigation entry point for callers outside the SQL layer.
func (pc *PointCloud) SelectRegionRows(region grid.Region) []int {
	return pc.SelectRegionRowsRun(nil, region, nil)
}

// SelectRegionRowsRun is the spatial selector — the paper's two-step query
// model over an arbitrary region:
//  1. filter — one zone-skipping walk over the X and Y imprints flags the
//     cache lines that may hold a point of the region's bounding box;
//  2. refine — the regular grid classifies cells against the region and
//     only boundary cells fall back to exact point tests, in morsel
//     partitions at the degree morselDegree picks (refineRanges).
//
// The matching row ids come back ascending in a pooled vector, tracked by
// run (hand it back with run.RecycleRows, or RecycleRows when run is nil);
// an empty region or table yields an empty non-nil vector — nil means "all
// rows" downstream. ex, when non-nil, receives the operator trace. A warm
// query allocates nothing at any degree. A fired run token returns a
// partial selection: callers that passed a live run must check
// run.Cancelled() and discard it.
func (pc *PointCloud) SelectRegionRowsRun(run *Run, region grid.Region, ex *Explain) []int {
	env := region.Envelope()
	if env.IsEmpty() || pc.Len() == 0 {
		ex.Add(opSelectRegion, "empty region or table", pc.Len(), 0, 0)
		return []int{}
	}
	if d := pc.EnsureImprints(); d > 0 {
		ex.Add(opImprintsBuild, "x+y coordinate imprints", pc.Len(), pc.Len(), d)
	}
	imX, imY := pc.imprintsXY()

	start := time.Now()
	cand, zones := candidateRangesXY(run, imX, imY, env)
	if ex != nil {
		ex.Add(opImprintsFilter, xyFilterDetail(zones, env),
			pc.Len(), colstore.RangesLen(cand), time.Since(start))
	}

	_ = faultpoint.Hit("engine.select.refine")
	start = time.Now()
	// The refinement result lands in a pooled selection vector sized by the
	// imprint filter's candidate count (an upper bound on matches, so the
	// appends below never grow it — tracking at acquisition is safe).
	rows := run.AcquireRows(colstore.RangesLen(cand))
	// The per-run cancellation token rides into the refinement loops via a
	// copy of the grid options; pc.GridOpts itself stays run-independent.
	opts := pc.GridOpts
	opts.Cancel = run.Token()
	deg := pc.morselDegree(run, colstore.RangesLen(cand))
	rows, st, err := refineRanges(pc.xs.Values(), pc.ys.Values(), cand, region, opts, deg, rows)
	run.recycleRanges(cand)
	if err != nil {
		// Only the merge faultpoint errs. A select has no error return, so
		// it unwinds like a worker fault, its buffers already home.
		run.RecycleRows(rows)
		panic(err)
	}
	if ex != nil {
		detail := fmt.Sprintf("%dx%d cells, %d boundary", st.GridCellsX, st.GridCellsY, st.BoundaryCells)
		ex.Add(opGridRefine, parDetail(detail, deg), st.CandidateRows, len(rows), time.Since(start))
	}
	return rows
}

// candidateRangesXY runs the imprint filter step for env's bounding box:
// one zone-skipping walk over both coordinate imprints appends the lines
// flagged on X and on Y straight into one pooled range list (~170KB/query
// at small scale if it were allocated instead). The caller owns the list
// and must hand it back with run.recycleRanges (nil-safe); it registers
// in the release list only after the walk that grows it returns
// (track-after-production).
func candidateRangesXY(run *Run, imX, imY *imprints.Imprints, env geom.Envelope) ([]colstore.Range, imprints.ZoneStats) {
	terms := [...]imprints.Term{
		{Im: imX, Lo: env.MinX, Hi: env.MaxX},
		{Im: imY, Lo: env.MinY, Hi: env.MaxY},
	}
	cand := getRangeBuf(0)
	cand, zones, err := imprints.ConjunctiveRangesInto(terms[:], cand)
	cand = run.trackRanges(cand)
	if err != nil {
		// Both imprints are built over one table under one lock with one
		// set of options; a shape mismatch is a bug.
		panic(fmt.Sprintf("engine: x/y imprint walk: %v", err))
	}
	return cand, zones
}

// xyFilterDetail is the imprints.filter step's EXPLAIN detail: how many of
// the index's zones the walk had to open, then the box. Zones lead because
// the rendered table truncates long details.
func xyFilterDetail(zones imprints.ZoneStats, env geom.Envelope) string {
	return fmt.Sprintf("zones %d/%d, bbox %s", zones.Hit, zones.Total, env.String())
}
