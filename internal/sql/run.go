// Query execution: the execute half of the prepare/execute split. Run
// walks the queryPlan's phases — spatial selection, kernel predicates,
// compiled/interpreted generic filters, output — against the tables'
// current state, reading the literal-derived constants from a bound and
// writing scratch only into the run's own frame. Planning work (binding,
// classification, compilation) never happens here except through the
// replan path, and every engine-owned selection vector returns to its pool
// on every exit path.
package sql

import (
	"cmp"
	"context"
	"sort"
	"strings"
	"time"

	"gisnav/internal/cancel"
	"gisnav/internal/engine"
	"gisnav/internal/faultpoint"
)

// Plan origins surfaced in the EXPLAIN trace's leading "plan" step, so the
// skeleton fast path is observable per query: a shape-cache hit reports
// rebound (new literals bound into the existing skeleton) or cached
// (identical literals, nothing to do), a cache miss reports planned, and an
// epoch- or classification-forced replan says so.
const (
	originPrepared  = "prepared"                    // standalone PreparedQuery run
	originPlanned   = "planned (cold prepare)"      // statement-cache miss
	originCached    = "cached (same literals)"      // shape hit, identical vector
	originRebound   = "rebound (shape-cache hit)"   // shape hit, new vector bound
	originReplanned = "replanned (epoch moved)"     // table epoch invalidated the plan
	originDiverged  = "replanned (literal reclass)" // new literals changed classification
)

// RunContext executes the prepared statement against the current table
// state, without an operator trace: the steady-state path (Result.Explain
// is nil). If a bound table's epoch moved since planning, it replans first,
// so an append between two runs is always observed by the second. The run
// passes the executor's admission gate, kernel loops poll ctx's done
// channel at block boundaries, and a fired context surfaces as ctx.Err()
// with every pooled buffer already recycled (see lifecycle.go).
func (pq *PreparedQuery) RunContext(ctx context.Context) (*Result, error) {
	return pq.lifecycleRun(ctx, nil, pq.init, originPrepared)
}

// run executes the statement with the literal vector params: the last
// published bound when its vector is params, else a bound derived for
// params, else a fresh plan. origin labels how the caller reached this
// statement; the decisions below refine it before it lands in the trace.
// rs is the lifecycle record every pooled acquisition below must route
// through (see lifecycle.go); callers own its drain.
func (pq *PreparedQuery) run(rs *runState, ex *engine.Explain, params []Value, origin string) (*Result, error) {
	bd := pq.last.Load()
	// A shape hit carrying a new literal vector counts as a ShapeHit even
	// when an epoch replan below supersedes the rebind — it is still a
	// query the exact-text cache would have missed.
	newLits := !equalParams(bd.params, params)
	if origin == originCached && newLits {
		pq.ex.shapeHits.Add(1)
		origin = originRebound
	}
	switch {
	case bd.plan.stale(pq.ex.db):
		// Epoch mismatch always replans — rebinding cannot help, the plan
		// is bound to moved arrays.
		var err error
		if bd, err = pq.replan(params, ex); err != nil {
			return nil, err
		}
		pq.ex.invalidations.Add(1)
		origin = originReplanned
	case newLits:
		// Same shape, new literal vector: the shape-cache fast path. Derive
		// the vector's bound from the plan; fall back to a full replan only
		// if the new values change conjunct classification. Nothing is
		// published until it is whole, so a failure here leaves the
		// statement bound to its previous vector even if the replan errors.
		nb, err := bd.plan.bind(pq.stmt, params)
		if err != nil {
			if nb, err = pq.replan(params, ex); err != nil {
				return nil, err
			}
			origin = originDiverged
		} else {
			pq.last.Store(nb)
			pq.ex.rebinds.Add(1)
		}
		bd = nb
	}
	if ex != nil {
		ex.Add("plan", origin, 0, 0, 0)
	}
	p := bd.plan
	rs.fit(p.nums, p.keeps)
	switch p.mode {
	case planVector:
		return pq.runVector(rs, bd, ex)
	case planJoin:
		return pq.runJoin(rs, bd, ex)
	default:
		return pq.runPointCloud(rs, bd, ex)
	}
}

// replan builds a fresh plan of the statement bound to params, tracing
// into ex, and publishes it. Runs racing to replan may each build one;
// every one is valid, and the last published serves the next run.
func (pq *PreparedQuery) replan(params []Value, ex *engine.Explain) (*bound, error) {
	bd, err := pq.ex.buildPlan(pq.stmt, params, ex)
	if err != nil {
		return nil, err
	}
	pq.last.Store(bd)
	return bd, nil
}

// --- point cloud execution ---------------------------------------------------

func (pq *PreparedQuery) runPointCloud(rs *runState, bd *bound, ex *engine.Explain) (*Result, error) {
	// Viewport-histogram shapes route through the pre-aggregation pyramid
	// before any row selection happens: the pyramid answers from O(visible
	// tiles) of pre-aggregates plus exact boundary refinement, bypassing
	// the O(selected rows) scan below. A decline (ok=false, err=nil) falls
	// through to the exact arm untouched.
	if res, ok, err := pq.tryPyramid(rs, bd, ex); ok || err != nil {
		return res, err
	}
	var rows []int
	if bd.region != nil {
		limit := -1 // the selector may stop at the LIMIT only if nothing filters or reorders after it
		if bd.plan.limitSelect {
			limit = bd.limit
		}
		rows = bd.plan.b.pc.SelectRegionRowsRun(&rs.Run, bd.region, limit, ex)
		if rs.Cancelled() {
			// The refinement loop returns a partial selection when the
			// token fires mid-pass; the release-list drain recycles it.
			return nil, cancel.ErrCancelled
		}
	}
	return pq.finishPointCloud(rs, bd, rows, ex)
}

// finishPointCloud runs the shared tail of point-cloud and join execution:
// thematic predicate kernels, generic filters (compiled at prepare time
// where possible), projection, and the pooled-vector bookkeeping. rows may
// be nil ("all rows"); when non-nil it is an rs-tracked pooled vector and
// is recycled through rs on every exit path — including errors, where the
// lifecycle drain would catch it anyway but eager recycling keeps the
// pool's working set tight.
func (pq *PreparedQuery) finishPointCloud(rs *runState, bd *bound, rows []int, ex *engine.Explain) (*Result, error) {
	p := bd.plan
	if err := faultpoint.Hit("sql.run.filter"); err != nil {
		if rows != nil {
			rs.RecycleRows(rows)
		}
		return nil, err
	}
	if rows == nil && len(p.generic) == 0 && p.grouped != nil && p.grouped.vec {
		// A vectorized aggregate over the whole table, grouped or not,
		// takes the thematic predicates with it: the engine filters ahead
		// of its fold as one pipelined pass, and a nil rows reaches its
		// gather-free all-rows arms instead of an identity vector. A
		// selection is filtered below, so its vector is back in the pool
		// before the fold draws anything: held across the fold, it made
		// the pool hand out fresh selection-sized vectors and doubled the
		// GC cycles of navbench's pan.bbox.
		return pq.output(rs, bd, nil, bd.preds, ex)
	}
	filtered, err := p.b.pc.FilterRowsRun(&rs.Run, rows, bd.preds, ex)
	if err != nil {
		if rows != nil {
			rs.RecycleRows(rows)
		}
		return nil, err
	}
	// FilterRows copies on first write, so the incoming pooled vector can
	// go back to the pool as soon as a predicate replaced it.
	if rows != nil && len(bd.preds) > 0 {
		rs.RecycleRows(rows)
	}
	rows = filtered
	// Generic filters compact rows in place (the backing array never moves
	// or grows), so on error the pre-call slice is still the one to recycle.
	narrowed, err := genericFilterPC(rs, bd, rows, ex)
	if err != nil {
		rs.RecycleRows(rows)
		return nil, err
	}
	rows = narrowed
	res, err := pq.output(rs, bd, rows, nil, ex)
	rs.RecycleRows(rows)
	return res, err
}

// genericFilterPC applies the planned generic conjuncts in statement
// order. Steps with a compiled kernel run chunk-at-a-time; the rest fall
// back to the row-at-a-time interpreter. Both paths compact rows in place
// without moving its backing array, and both poll the run's cancellation
// token once per expression chunk.
func genericFilterPC(rs *runState, bd *bound, rows []int, ex *engine.Explain) ([]int, error) {
	for _, g := range bd.plan.generic {
		if g.cf == nil {
			var err error
			if rows, err = filterInterpreted(&rs.Run, bd, false, g.expr, rows, ex); err != nil {
				return nil, err
			}
			continue
		}
		start := time.Now()
		narrowed, err := g.cf.apply(rs.Token(), &rs.frame, &bd.slots, rows)
		if err != nil {
			if err != cancel.ErrCancelled {
				err = firstError(&evalCtx{b: bd.plan.b, ps: bd.params, vtRow: -1}, false, g.expr, narrowed, err)
			}
			return nil, err
		}
		if ex != nil {
			ex.Add("filter.compiled", g.expr.exprString(), len(rows), len(narrowed), time.Since(start))
		}
		rows = narrowed
	}
	return rows, nil
}

// filterInterpreted narrows rows in place to those e holds for, row at a
// time through the interpreter, polling the run's cancellation once per
// expression chunk. On error it returns rows, whose backing array has not
// moved.
func filterInterpreted(rs *engine.Run, bd *bound, isVector bool, e Expr, rows []int, ex *engine.Explain) ([]int, error) {
	start := time.Now()
	out := rows[:0]
	ctx := &evalCtx{b: bd.plan.b, ps: bd.params}
	for b0, b1 := range rs.Token().Blocks(0, len(rows), exprChunk) {
		for _, r := range rows[b0:b1] {
			setRow(ctx, isVector, r)
			v, err := evalExpr(ctx, e)
			if err != nil {
				return rows, err
			}
			if v.truthy() {
				out = append(out, r)
			}
		}
	}
	if rs.Cancelled() {
		return rows, cancel.ErrCancelled
	}
	if ex != nil {
		ex.Add("filter.generic", e.exprString(), len(rows), len(out), time.Since(start))
	}
	return out, nil
}

// --- vector execution ---------------------------------------------------------

func (pq *PreparedQuery) runVector(rs *runState, bd *bound, ex *engine.Explain) (*Result, error) {
	rows := allRows(&rs.Run, bd.plan.b.vt.Len())
	rows, err := runVTSteps(&rs.Run, bd, rows, ex)
	if err != nil {
		rs.RecycleRows(rows)
		return nil, err
	}
	res, err := pq.output(rs, bd, rows, nil, ex)
	rs.RecycleRows(rows)
	return res, err
}

// runVTSteps narrows a pooled vector-table row set through the planned
// steps: class equality through the dictionary, ST_Intersects with a
// constant geometry through the STR R-tree, everything else through the
// row-wise interpreter. All narrowing is in place over the incoming pooled
// vector; the returned slice shares its backing array, so the caller
// recycles exactly one buffer on every path (the error return carries the
// live slice for that reason). The index-backed side vectors are acquired
// tracked and swapped for the final slice — Select*Into grow the buffer
// they are handed.
func runVTSteps(rs *engine.Run, bd *bound, rows []int, ex *engine.Explain) ([]int, error) {
	p := bd.plan
	for i, st := range p.vtSteps {
		switch st.kind {
		case vtStepClass:
			buf := rs.AcquireRows(0)
			fast := rs.SwapRows(buf, p.b.vt.SelectClassInto(bd.vt[i].class, buf, ex))
			rows = intersectSorted(rows, fast)
			rs.RecycleRows(fast)
		case vtStepIntersects:
			buf := rs.AcquireRows(0)
			fast := rs.SwapRows(buf, p.b.vt.SelectIntersectsInto(bd.vt[i].g, buf, ex))
			rows = intersectSorted(rows, fast)
			rs.RecycleRows(fast)
		default:
			narrowed, err := filterInterpreted(rs, bd, true, st.expr, rows, ex)
			if err != nil {
				return rows, err
			}
			rows = narrowed
		}
	}
	return rows, nil
}

// --- join execution -----------------------------------------------------------

func (pq *PreparedQuery) runJoin(rs *runState, bd *bound, ex *engine.Explain) (*Result, error) {
	p := bd.plan
	// Phase 1: vector side, through the same steps as pure vector queries
	// so spatial conjuncts (ST_Intersects with a constant geometry) hit the
	// R-tree here too instead of falling to the row-wise interpreter.
	vtRows := allRows(&rs.Run, p.b.vt.Len())
	vtRows, err := runVTSteps(&rs.Run, bd, vtRows, ex)
	if err != nil {
		rs.RecycleRows(vtRows)
		return nil, err
	}

	// Phase 2: the spatial join operator resolved at prepare time.
	var rows []int
	if p.join == joinDWithin {
		rows = pq.ex.db.PointsNearFeaturesRun(&rs.Run, p.b.pc, p.b.vt, vtRows, bd.joinDist, ex)
	} else {
		rows = pq.ex.db.PointsInFeaturesRun(&rs.Run, p.b.pc, p.b.vt, vtRows, ex)
	}
	rs.RecycleRows(vtRows)
	if rs.Cancelled() {
		// A token firing inside the join's refinement pass leaves a
		// partial selection; the release-list drain recycles it.
		return nil, cancel.ErrCancelled
	}

	// Phase 3: point-side predicates.
	return pq.finishPointCloud(rs, bd, rows, ex)
}

// --- output phase ---------------------------------------------------------------

// output materialises the SELECT list over the selected rows, column-major.
// Result column names are the plan's (shared across runs); rows index the
// point cloud or the vector table according to the plan mode. Each output
// column is an exactly-sized heap vector — never pool-tracked, it outlives
// the run's drain — filled in exprChunk blocks with one cancellation poll
// per block: compiled items gather straight into their float vector, the
// rest evaluate through the interpreter into a Value vector. preds are
// thematic predicates still to apply to rows; only a vectorized aggregate
// takes any (finishPointCloud).
func (pq *PreparedQuery) output(rs *runState, bd *bound, rows []int, preds []engine.ColumnPred, ex *engine.Explain) (*Result, error) {
	if err := faultpoint.Hit("sql.run.output"); err != nil {
		return nil, err
	}
	p := bd.plan
	isVector := p.mode == planVector
	stmt := pq.stmt
	if p.grouped != nil {
		return execGrouped(rs, bd, stmt, rows, preds, isVector, ex)
	}

	// ORDER BY.
	if stmt.Order != nil {
		keys := make([]Value, len(rows))
		ctx := &evalCtx{b: p.b, ps: bd.params, pcRow: -1, vtRow: -1}
		for b0, b1 := range rs.Token().Blocks(0, len(rows), exprChunk) {
			for i := b0; i < b1; i++ {
				setRow(ctx, isVector, rows[i])
				v, err := evalExpr(ctx, stmt.Order.Expr)
				if err != nil {
					return nil, err
				}
				keys[i] = v
			}
		}
		if rs.Cancelled() {
			return nil, cancel.ErrCancelled
		}
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		desc := stmt.Order.Desc
		sort.SliceStable(idx, func(a, c int) bool {
			if desc {
				a, c = c, a
			}
			return valueCompare(keys[idx[a]], keys[idx[c]]) < 0
		})
		sorted := make([]int, len(rows))
		for i, j := range idx {
			sorted[i] = rows[j]
		}
		rows = sorted
	}
	if bd.limit >= 0 && len(rows) > bd.limit {
		rows = rows[:bd.limit]
	}

	start := time.Now()
	n := len(rows)
	res := &Result{Columns: p.cols, Cols: make([]Column, len(p.exprs)), Explain: ex}
	compiled := 0
	for _, ev := range p.proj {
		if ev != nil {
			compiled++
		}
	}
	slab := make([]float64, compiled*n)
	for i, ev := range p.proj {
		if ev != nil {
			res.Cols[i].Nums, slab = slab[:n:n], slab[n:]
		} else {
			res.Cols[i].Vals = make([]Value, n)
		}
	}
	ctx := &evalCtx{b: p.b, ps: bd.params, pcRow: -1, vtRow: -1}
	for base, end := range rs.Token().Blocks(0, n, exprChunk) {
		chunk := rows[base:end]
		for i, ev := range p.proj {
			if ev != nil {
				if err := ev.eval(&rs.frame, &bd.slots, chunk, res.Cols[i].Nums[base:end]); err != nil {
					return nil, firstError(ctx, isVector, p.exprs[i], chunk, err)
				}
				continue
			}
			vals := res.Cols[i].Vals[base:end]
			for j, r := range chunk {
				setRow(ctx, isVector, r)
				v, err := evalExpr(ctx, p.exprs[i])
				if err != nil {
					return nil, err
				}
				vals[j] = v
			}
		}
	}
	if rs.Cancelled() {
		return nil, cancel.ErrCancelled
	}
	if ex != nil {
		ex.Add("project", strings.Join(p.cols, ","), n, n, time.Since(start))
	}
	return res, nil
}

// firstError is the error the interpreter raises first over rows, or
// compiled when none does: the error a compiled node that failed on rows
// must report in its place.
func firstError(ctx *evalCtx, isVector bool, e Expr, rows []int, compiled error) error {
	for _, r := range rows {
		setRow(ctx, isVector, r)
		if _, err := evalExpr(ctx, e); err != nil {
			return err
		}
	}
	return compiled
}

func setRow(ctx *evalCtx, isVector bool, r int) {
	if isVector {
		ctx.vtRow = r
		ctx.pcRow = -1
	} else {
		ctx.pcRow = r
		ctx.vtRow = -1
	}
}

// valueCompare is the one value order of every sort in the interpreter
// (ORDER BY, the grouped tail, grouped output keys): numbers by the
// engine's FloatOrderKey total order (−0 before +0, NaN last, so both
// execution arms agree), strings lexically, other kinds by their rendering.
func valueCompare(a, b Value) int {
	switch {
	case a.Kind == KindNum && b.Kind == KindNum:
		return cmp.Compare(engine.FloatOrderKey(a.Num), engine.FloatOrderKey(b.Num))
	case a.Kind == KindStr && b.Kind == KindStr:
		return strings.Compare(a.Str, b.Str)
	}
	return strings.Compare(a.String(), b.String())
}

// --- helpers --------------------------------------------------------------------

// allRows materialises the identity selection [0, n) in an rs-tracked
// pooled vector (the capacity hint covers every append); hand it back with
// rs.RecycleRows.
func allRows(rs *engine.Run, n int) []int {
	rows := rs.AcquireRows(n)
	for i := 0; i < n; i++ {
		rows = append(rows, i)
	}
	return rows
}

// intersectSorted intersects two ascending row-id lists, compacting into
// a's prefix (the write index never overtakes the read index) so the
// pooled identity vector narrows without allocating.
func intersectSorted(a, b []int) []int {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
