package engine

import (
	"fmt"
	"math"
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
	"gisnav/internal/morsel"
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
	// the filter ahead of a grouped fold) fan across the resident worker
	// set when the run sets no degree cap of its own (MonetDB executes
	// operators in parallel; results are identical). On by default; a run
	// cap of 1 (Executor.SetParallelism(1)) forces serial execution. Grid
	// refinement fans out under an explicit run cap only (morselDegree).
	Parallel bool

	mu       sync.Mutex
	imprintX *imprints.Imprints
	imprintY *imprints.Imprints

	// plans memoises compiled filter kernels per (column, op); dropped
	// together with the imprints on InvalidateIndexes, because both bind to
	// column backing arrays that appends may move.
	plans *bounded.Map[planKey, *Kernel]

	// epoch counts mutations: appends and index invalidations. Everything
	// that binds to a column's backing array across calls — compiled
	// kernels, the SQL layer's prepared plans — captures the epoch before
	// binding and revalidates it before reuse, so an append (which may move
	// backing arrays) can never serve state bound to the old arrays.
	epoch atomic.Uint64
	// rewrite is the epoch the last InvalidateIndexes produced. Bumps past
	// it were appends only, which leave every earlier row where it was:
	// indexes over those rows may extend instead of rebuilding
	// (AppendOnlySince).
	rewrite atomic.Uint64

	// Index maintenance counters (IndexStats).
	imprintBuilds, imprintExtensions atomic.Uint64
}

// NewPointCloud returns an empty flat table with the 26-attribute schema.
func NewPointCloud() *PointCloud {
	schema := PointCloudSchema()
	cols := schema.NewColumns()
	return &PointCloud{
		schema:   schema,
		cols:     cols,
		xs:       cols[0].(*colstore.F64Column),
		ys:       cols[1].(*colstore.F64Column),
		zs:       cols[2].(*colstore.F64Column),
		plans:    bounded.New[planKey, *Kernel](maxCachedPlans),
		Parallel: true,
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

// Extent returns the 2-D bounding box of the cloud's coordinates, NaN
// ignored; it is empty when no row has a number for x or none for y.
func (pc *PointCloud) Extent() geom.Envelope {
	env := geom.EmptyEnvelope()
	xlo, xhi, okx := pc.xs.MinMax()
	ylo, yhi, oky := pc.ys.MinMax()
	if !okx || !oky {
		return env
	}
	return geom.NewEnvelope(xlo, ylo, xhi, yhi)
}

// AppendLAS bulk-appends LAS points row-wise (the slow reference path; the
// binary loader in loader.go is the paper's fast path).
func (pc *PointCloud) AppendLAS(pts []las.Point) {
	for _, p := range pts {
		appendLASPoint(pc.cols, p)
	}
	pc.appended()
}

// appended is the append arm of the epoch contract, run after rows were
// added at the end of every column: it bumps the epoch and drops the
// compiled-kernel plan cache like InvalidateIndexes, but extends built
// coordinate imprints over the new rows (imprints.Extend, both in one
// imprintPass) instead of dropping them — unless the column has outgrown
// the bins a full build sampled, when they drop and the next query
// rebuilds them.
func (pc *PointCloud) appended() {
	pc.epoch.Add(1)
	pc.plans.Reset()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.imprintX != nil && pc.imprintY != nil {
		if n := pc.Len(); pc.imprintX.Outgrown(n) || pc.imprintY.Outgrown(n) {
			pc.imprintX, pc.imprintY = nil, nil
		} else {
			pc.coordImprintsLocked(nil, pc.imprintX, pc.imprintY)
			pc.imprintExtensions.Add(1)
		}
	}
}

// InvalidateIndexes is the rewrite arm of the epoch contract: it drops the
// imprints and the compiled-kernel plan cache, both rebuilt on the next
// query, and marks the epoch it produces as a rewrite, so indexes built
// before it (the pyramid) rebuild rather than extend. Any mutation other
// than a clean append must call this — a load that failed part-way, or a
// change to existing rows.
func (pc *PointCloud) InvalidateIndexes() {
	// Mark, then bump: a reader that sees the new epoch also sees it was a
	// rewrite. Bump before dropping: a plan prepared concurrently that read
	// the old epoch will observe the mismatch and replan, the safe
	// direction (mutations still require external exclusion from in-flight
	// queries, as below).
	pc.rewrite.Store(pc.epoch.Load() + 1)
	pc.epoch.Add(1)
	pc.mu.Lock()
	pc.imprintX, pc.imprintY = nil, nil
	pc.mu.Unlock()
	pc.plans.Reset()
}

// Epoch returns the table's mutation epoch: a monotonic counter bumped by
// every append and every InvalidateIndexes call. Capture it before binding
// to column backing arrays; a later mismatch means the arrays may have
// moved and the binding must be rebuilt.
func (pc *PointCloud) Epoch() uint64 { return pc.epoch.Load() }

// AppendOnlySince reports whether every epoch bump after epoch was an
// append: rows [0, n) as of epoch are unchanged, so an index over them may
// be extended over the rows added since instead of rebuilt.
func (pc *PointCloud) AppendOnlySince(epoch uint64) bool { return pc.rewrite.Load() <= epoch }

// IndexStats counts coordinate-imprint maintenance since the table was
// created: full builds (the first range query, and the one after a
// rewrite or after appends outgrew the bins) and append extensions.
type IndexStats struct {
	ImprintBuilds     uint64 `json:"imprint_builds"`
	ImprintExtensions uint64 `json:"imprint_extensions"`
}

// IndexStats snapshots the table's index maintenance counters.
func (pc *PointCloud) IndexStats() IndexStats {
	return IndexStats{ImprintBuilds: pc.imprintBuilds.Load(), ImprintExtensions: pc.imprintExtensions.Load()}
}

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
	_, _, d, _ := pc.imprintsXY(nil)
	return d
}

// imprintPass builds or extends the X and Y imprints as one morsel pass of
// at most two partitions: partition 0 takes X (and Y too at degree 1),
// partition 1 takes Y. imprints.Build and imprints.Extend are pure
// functions of one column, so the result is the two serial calls' at any
// degree.
type imprintPass struct {
	pass morsel.Pass
	deg  int
	cols [2][]float64
	ims  [2]*imprints.Imprints // in: the imprints to extend, nil to build; out: the result
	opts imprints.Options
}

func (ip *imprintPass) RunPartition(slot int) {
	hitMorselWorker(ip.deg)
	for c := slot; c < len(ip.cols); c += ip.deg {
		if ip.ims[c] != nil {
			ip.ims[c] = imprints.Extend(ip.ims[c], ip.cols[c])
			continue
		}
		im, err := imprints.Build(ip.cols[c], ip.opts)
		if err != nil {
			// Options are programmer-controlled; invalid ones are a bug.
			panic(fmt.Sprintf("engine: building %s imprints: %v", "xy"[c:c+1], err))
		}
		ip.ims[c] = im
	}
}

// coordImprintsLocked builds the coordinate imprints (x and y nil) or
// extends x and y over the rows appended since, in one imprintPass at the
// degree morselDegree picks for run and the rows it indexes, and publishes
// both; it returns the degree. pc.mu must be held — no partition takes it.
// Both indexes are unpublished first, so a panicking partition leaves
// neither behind and the next query builds both.
func (pc *PointCloud) coordImprintsLocked(run *Run, x, y *imprints.Imprints) int {
	pc.imprintX, pc.imprintY = nil, nil
	n := pc.Len()
	rows := n
	if x != nil {
		rows = n - x.N()
	}
	ip := &imprintPass{
		deg:  min(2, pc.morselDegree(run, rows, true)),
		cols: [2][]float64{pc.xs.Values(), pc.ys.Values()},
		ims:  [2]*imprints.Imprints{x, y},
		opts: pc.ImprintOpts,
	}
	if p := ip.pass.Run(ip.deg, ip); p != nil {
		panic(p)
	}
	pc.imprintX, pc.imprintY = ip.ims[0], ip.ims[1]
	return ip.deg
}

// imprintsXY returns stable references to the coordinate imprints,
// building them under run's degree cap if absent, with the build time and
// degree (zero time when they were already built). The returned values
// stay valid even if the table's indexes are invalidated afterwards
// (imprints are immutable once built).
func (pc *PointCloud) imprintsXY(run *Run) (x, y *imprints.Imprints, built time.Duration, deg int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.imprintX == nil || pc.imprintY == nil {
		start := time.Now()
		deg = pc.coordImprintsLocked(run, nil, nil)
		pc.imprintBuilds.Add(1)
		built = time.Since(start)
	}
	return pc.imprintX, pc.imprintY, built, deg
}

// ImprintStats returns the index statistics of both coordinate imprints
// (building them if needed).
func (pc *PointCloud) ImprintStats() (x, y imprints.Stats) {
	ix, iy, _, _ := pc.imprintsXY(nil)
	return ix.Stats(), iy.Stats()
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

// SelectRegionRows is SelectRegionRowsRun without a lifecycle, a limit or
// a trace: the navigation entry point for callers outside the SQL layer.
func (pc *PointCloud) SelectRegionRows(region grid.Region) []int {
	return pc.SelectRegionRowsRun(nil, region, -1, nil)
}

// SelectRegionRowsRun is the spatial selector — the paper's two-step query
// model over an arbitrary region:
//  1. filter — one zone-skipping walk over the X and Y imprints flags the
//     cache lines that may hold a point of the region's bounding box;
//  2. refine — the regular grid classifies cells against the region and
//     only boundary cells fall back to exact point tests, in morsel
//     partitions at the degree morselDegree picks (refineRanges) — more
//     than one only under an explicit run cap.
//
// The matching row ids come back ascending in a pooled vector, tracked by
// run (hand it back with run.RecycleRows, or RecycleRows when run is nil);
// an empty region or table yields an empty non-nil vector — nil means "all
// rows" downstream. A limit >= 0 keeps only the first limit matches, and
// the walk and the refinement stop once they have them: the selection runs
// in rounds, each walking on until its candidate-row budget is met and
// refining that batch. Round k asks for need·2^(k-1) candidate rows, need
// being the matches still missing (candidates are a superset of matches),
// so a bounded selection takes O(log) rounds and refines at most about
// twice the candidates it needs. A negative limit is one round over the
// whole walk. ex, when non-nil, receives the operator trace. A warm query
// allocates nothing at any degree. A fired run token returns a partial
// selection: callers that passed a live run must check run.Cancelled() and
// discard it.
func (pc *PointCloud) SelectRegionRowsRun(run *Run, region grid.Region, limit int, ex *Explain) []int {
	env := region.Envelope()
	if env.IsEmpty() || pc.Len() == 0 {
		ex.Add(opSelectRegion, "empty region or table", pc.Len(), 0, 0)
		return []int{}
	}
	imX, imY, built, ideg := pc.imprintsXY(run)
	if built > 0 && ex != nil {
		ex.Add(opImprintsBuild, fmt.Sprintf("x+y coordinate imprints [par %d]", ideg), pc.Len(), pc.Len(), built)
	}
	cur := xyCursor(imX, imY, env)
	// The per-run cancellation token rides into the refinement loops via a
	// copy of the grid options; pc.GridOpts itself stays run-independent.
	opts := pc.GridOpts
	opts.Cancel = run.Token()
	xs, ys := pc.xs.Values(), pc.ys.Values()

	var (
		rows               []int
		st, rst            grid.Stats
		err                error
		walked, refined    time.Duration
		cands, rounds, deg int
	)
	budget := limit
	if limit < 0 {
		budget = math.MaxInt
	}
	for {
		start := time.Now()
		// The walk appends straight into a pooled range list (~170KB/query
		// at small scale if it were allocated instead), which registers in
		// the release list only after the walk that grows it returns
		// (track-after-production).
		cand := run.trackRanges(cur.AppendRanges(getRangeBuf(0), budget))
		walked += time.Since(start)
		n := colstore.RangesLen(cand)

		_ = faultpoint.Hit("engine.select.refine")
		start = time.Now()
		held := rows
		if rounds == 0 {
			// The first round's candidate count bounds its matches, so the
			// refinement never grows the vector; a later round may, and
			// the release list follows the final slice.
			held = run.AcquireRows(n)
		}
		d := pc.morselDegree(run, n, false)
		rows, rst, err = refineRanges(xs, ys, cand, region, opts, d, held)
		rows = run.SwapRows(held, rows)
		run.recycleRanges(cand)
		if err != nil {
			// Only the merge faultpoint errs. A select has no error return,
			// so it unwinds like a worker fault, its buffers already home.
			run.RecycleRows(rows)
			panic(err)
		}
		refined += time.Since(start)
		st.Add(rst)
		cands, rounds, deg = cands+n, rounds+1, max(deg, d)
		if limit < 0 || len(rows) >= limit || cur.Done() || run.Cancelled() {
			break
		}
		// Budgets stay below twice the table's length: a round that did not
		// end the walk emitted at least its budget.
		budget = (limit - len(rows)) << rounds
	}
	if limit >= 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	if ex != nil {
		// Zones lead the filter's detail because the rendered table
		// truncates long details.
		zones := cur.Stats()
		bound := ""
		if limit >= 0 {
			bound = fmt.Sprintf(", limit %d in %d round", limit, rounds)
			if rounds > 1 {
				bound += "s"
			}
		}
		ex.Add(opImprintsFilter, fmt.Sprintf("zones %d/%d%s, bbox %s", zones.Hit, zones.Total, bound, env.String()),
			pc.Len(), cands, walked)
		detail := "rect, no grid"
		if _, rect := grid.RectOf(region); !rect {
			detail = fmt.Sprintf("%dx%d cells, %d boundary", st.GridCellsX, st.GridCellsY, st.BoundaryCells)
		}
		ex.Add(opGridRefine, parDetail(detail+bound, deg), st.CandidateRows, len(rows), refined)
	}
	return rows
}

// xyCursor starts the imprint filter step for env's bounding box: one
// zone-skipping walk over both coordinate imprints, consumed in batches.
func xyCursor(imX, imY *imprints.Imprints, env geom.Envelope) imprints.Cursor {
	cur, err := imprints.NewCursor([]imprints.Term{
		{Im: imX, Lo: env.MinX, Hi: env.MaxX},
		{Im: imY, Lo: env.MinY, Hi: env.MaxY},
	})
	if err != nil {
		// Both imprints are built over one table under one lock with one
		// set of options; a shape mismatch is a bug.
		panic(fmt.Sprintf("engine: x/y imprint walk: %v", err))
	}
	return cur
}
