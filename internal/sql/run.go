// Query execution: the execute half of the prepare/execute split. Run
// walks the queryPlan's phases — spatial selection, kernel predicates,
// compiled/interpreted generic filters, output — against the tables'
// current state. Planning work (binding, classification, compilation)
// never happens here except through the epoch-replan path, and every
// engine-owned selection vector returns to its pool on every exit path.
package sql

import (
	"context"
	"fmt"
	"math"
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
	originPoisoned  = "replanned (post-panic)"      // a recovered panic poisoned the plan
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

// run executes the statement with the literal vector params, re-binding or
// re-planning the cached skeleton as needed. origin labels how the caller
// reached this plan; the epoch/rebind decisions below refine it before it
// lands in the trace. rs is the lifecycle record every pooled acquisition
// below must route through (see lifecycle.go); callers own its drain.
func (pq *PreparedQuery) run(rs *engine.Run, ex *engine.Explain, params []Value, origin string) (*Result, error) {
	if !pq.mu.TryLock() {
		// Another run of this statement is in flight. The plan's compiled
		// kernels carry per-statement chunk scratch, so sharing it would
		// mean serialising — instead concurrent callers pay one transient
		// planning pass (a small fraction of a navigation query) and run
		// fully parallel on their own plan, bound to their own literals.
		plan, err := pq.ex.buildPlan(pq.stmt, params)
		if err != nil {
			return nil, err
		}
		tmp := &PreparedQuery{ex: pq.ex, stmt: pq.stmt, init: params, plan: plan}
		return tmp.run(rs, ex, params, origin)
	}
	defer pq.mu.Unlock()
	// A shape hit carrying a new literal vector counts as a ShapeHit even
	// when an epoch replan below supersedes the rebind — it is still a
	// query the exact-text cache would have missed.
	newLits := !equalParams(pq.plan.params, params)
	if origin == originCached && newLits {
		pq.ex.shapeHits.Add(1)
		origin = originRebound
	}
	switch {
	case pq.poisoned.Load() || pq.plan.stale(pq.ex.db):
		// Epoch mismatch always replans — rebinding cannot help, the plan
		// is bound to moved arrays. A post-panic poison mark replans for a
		// different reason: the old plan's scratch state is torn to an
		// unknown degree. The mark clears only after the fresh plan is
		// committed, so a failed replan keeps the statement poisoned.
		stale := pq.plan.stale(pq.ex.db)
		plan, err := pq.ex.buildPlan(pq.stmt, params)
		if err != nil {
			return nil, err
		}
		pq.plan = plan
		if stale {
			pq.ex.invalidations.Add(1)
			origin = originReplanned
		} else {
			origin = originPoisoned
		}
		pq.poisoned.Store(false)
	case newLits:
		// Same shape, new literal vector: the shape-cache fast path. Bind
		// the constants into the existing skeleton; fall back to a full
		// replan only if the new values change conjunct classification.
		// rebind stages before committing, so a failure here leaves the
		// plan consistently bound to its previous vector even if the
		// replan below errors too.
		if pq.plan.rebind(pq.stmt, params) {
			pq.ex.rebinds.Add(1)
		} else {
			plan, err := pq.ex.buildPlan(pq.stmt, params)
			if err != nil {
				return nil, err
			}
			pq.plan = plan
			origin = originDiverged
		}
	}
	if ex != nil {
		ex.Add("plan", origin, 0, 0, 0)
	}
	p := pq.plan
	switch p.mode {
	case planVector:
		return pq.runVector(rs, p, ex)
	case planJoin:
		return pq.runJoin(rs, p, ex)
	default:
		return pq.runPointCloud(rs, p, ex)
	}
}

// --- point cloud execution ---------------------------------------------------

func (pq *PreparedQuery) runPointCloud(rs *engine.Run, p *queryPlan, ex *engine.Explain) (*Result, error) {
	// Viewport-histogram shapes route through the pre-aggregation pyramid
	// before any row selection happens: the pyramid answers from O(visible
	// tiles) of pre-aggregates plus exact boundary refinement, bypassing
	// the O(selected rows) scan below. A decline (ok=false, err=nil) falls
	// through to the exact arm untouched.
	if res, ok, err := pq.tryPyramid(rs, p, ex); ok || err != nil {
		return res, err
	}
	var rows []int
	if p.region != nil {
		rows = p.b.pc.SelectRegionRowsRun(rs, p.region, ex)
		if rs.Cancelled() {
			// The refinement loop returns a partial selection when the
			// token fires mid-pass; the release-list drain recycles it.
			return nil, cancel.ErrCancelled
		}
	}
	return pq.finishPointCloud(rs, p, rows, ex)
}

// finishPointCloud runs the shared tail of point-cloud and join execution:
// thematic predicate kernels, generic filters (compiled at prepare time
// where possible), projection, and the pooled-vector bookkeeping. rows may
// be nil ("all rows"); when non-nil it is an rs-tracked pooled vector and
// is recycled through rs on every exit path — including errors, where the
// lifecycle drain would catch it anyway but eager recycling keeps the
// pool's working set tight.
func (pq *PreparedQuery) finishPointCloud(rs *engine.Run, p *queryPlan, rows []int, ex *engine.Explain) (*Result, error) {
	if err := faultpoint.Hit("sql.run.filter"); err != nil {
		if rows != nil {
			rs.RecycleRows(rows)
		}
		return nil, err
	}
	if rows == nil && len(p.preds) == 0 && len(p.generic) == 0 &&
		p.out == outGrouped && p.grouped.keyCol != "" && p.mode != planVector {
		// Nothing to filter ahead of a vectorized GROUP BY: nil reaches the
		// engine's gather-free all-rows arm instead of an identity vector
		// it would gather through.
		return pq.output(rs, p, nil, ex)
	}
	filtered, err := p.b.pc.FilterRowsRun(rs, rows, p.preds, ex)
	if err != nil {
		if rows != nil {
			rs.RecycleRows(rows)
		}
		return nil, err
	}
	// FilterRows copies on first write, so the incoming pooled vector can
	// go back to the pool as soon as a predicate replaced it.
	if rows != nil && len(p.preds) > 0 {
		rs.RecycleRows(rows)
	}
	rows = filtered
	// Generic filters compact rows in place (the backing array never moves
	// or grows), so on error the pre-call slice is still the one to recycle.
	narrowed, err := genericFilterPC(rs, p, rows, ex)
	if err != nil {
		rs.RecycleRows(rows)
		return nil, err
	}
	rows = narrowed
	res, err := pq.output(rs, p, rows, ex)
	rs.RecycleRows(rows)
	return res, err
}

// genericFilterPC applies the planned generic conjuncts in statement
// order. Steps with a compiled kernel run chunk-at-a-time; the rest fall
// back to the row-at-a-time interpreter. Both paths compact rows in place
// without moving its backing array, and both poll the run's cancellation
// token once per expression chunk.
func genericFilterPC(rs *engine.Run, p *queryPlan, rows []int, ex *engine.Explain) ([]int, error) {
	for i := range p.generic {
		g := &p.generic[i]
		start := time.Now()
		in := len(rows)
		if g.cf != nil {
			narrowed, err := g.cf.apply(rs.Token(), rows)
			if err != nil {
				return nil, err
			}
			rows = narrowed
			if ex != nil {
				ex.Add("filter.compiled", g.expr.exprString(), in, len(rows), time.Since(start))
			}
			continue
		}
		out := rows[:0]
		ctx := &evalCtx{b: p.b, ps: p.params, vtRow: -1}
		for n, r := range rows {
			if n%exprChunk == 0 && rs.Cancelled() {
				return nil, cancel.ErrCancelled
			}
			ctx.pcRow = r
			v, err := evalExpr(ctx, g.expr)
			if err != nil {
				return nil, err
			}
			if v.truthy() {
				out = append(out, r)
			}
		}
		rows = out
		if ex != nil {
			ex.Add("filter.generic", g.expr.exprString(), in, len(rows), time.Since(start))
		}
	}
	return rows, nil
}

// --- vector execution ---------------------------------------------------------

func (pq *PreparedQuery) runVector(rs *engine.Run, p *queryPlan, ex *engine.Explain) (*Result, error) {
	rows := allRows(rs, p.b.vt.Len())
	rows, err := runVTSteps(rs, p, rows, ex)
	if err != nil {
		rs.RecycleRows(rows)
		return nil, err
	}
	res, err := pq.output(rs, p, rows, ex)
	rs.RecycleRows(rows)
	return res, err
}

// runVTSteps narrows a pooled vector-table row set through the planned
// steps: class equality through the dictionary, ST_Intersects with a
// constant geometry through the STR R-tree, everything else through the
// row-wise interpreter. All narrowing is in place over the incoming pooled
// vector; the returned slice shares its backing array, so the caller
// recycles exactly one buffer on every path (the error return carries the
// live slice for that reason). The index-backed side vectors are tracked
// after production — Select*Into grow the buffer they are handed.
func runVTSteps(rs *engine.Run, p *queryPlan, rows []int, ex *engine.Explain) ([]int, error) {
	for i := range p.vtSteps {
		st := &p.vtSteps[i]
		switch st.kind {
		case vtStepClass:
			fast := rs.TrackRows(p.b.vt.SelectClassInto(st.class, engine.AcquireRows(0), ex))
			rows = intersectSorted(rows, fast)
			rs.RecycleRows(fast)
		case vtStepIntersects:
			fast := rs.TrackRows(p.b.vt.SelectIntersectsInto(st.g, engine.AcquireRows(0), ex))
			rows = intersectSorted(rows, fast)
			rs.RecycleRows(fast)
		default:
			start := time.Now()
			in := len(rows)
			out := rows[:0]
			ctx := &evalCtx{b: p.b, ps: p.params, pcRow: -1}
			for n, r := range rows {
				if n%exprChunk == 0 && rs.Cancelled() {
					return rows, cancel.ErrCancelled
				}
				ctx.vtRow = r
				v, err := evalExpr(ctx, st.expr)
				if err != nil {
					return rows, err
				}
				if v.truthy() {
					out = append(out, r)
				}
			}
			rows = out
			if ex != nil {
				ex.Add("filter.generic", st.expr.exprString(), in, len(rows), time.Since(start))
			}
		}
	}
	return rows, nil
}

// --- join execution -----------------------------------------------------------

func (pq *PreparedQuery) runJoin(rs *engine.Run, p *queryPlan, ex *engine.Explain) (*Result, error) {
	// Phase 1: vector side, through the same steps as pure vector queries
	// so spatial conjuncts (ST_Intersects with a constant geometry) hit the
	// R-tree here too instead of falling to the row-wise interpreter.
	vtRows := allRows(rs, p.b.vt.Len())
	vtRows, err := runVTSteps(rs, p, vtRows, ex)
	if err != nil {
		rs.RecycleRows(vtRows)
		return nil, err
	}

	// Phase 2: the spatial join operator resolved at prepare time.
	var rows []int
	if p.join == joinDWithin {
		rows = pq.ex.db.PointsNearFeaturesRun(rs, p.b.pc, p.b.vt, vtRows, p.joinDist, ex)
	} else {
		rows = pq.ex.db.PointsInFeaturesRun(rs, p.b.pc, p.b.vt, vtRows, ex)
	}
	rs.RecycleRows(vtRows)
	if rs.Cancelled() {
		// A token firing inside the join's refinement pass leaves a
		// partial selection; the release-list drain recycles it.
		return nil, cancel.ErrCancelled
	}

	// Phase 3: point-side predicates.
	return pq.finishPointCloud(rs, p, rows, ex)
}

// --- output phase ---------------------------------------------------------------

// output materialises the SELECT list over the selected rows, column-major.
// Result column names are the plan's (shared across runs); rows index the
// point cloud or the vector table according to the plan mode. Each output
// column is an exactly-sized heap vector — never pool-tracked, it outlives
// the run's drain — filled in exprChunk blocks with one cancellation poll
// per block: compiled items gather straight into their float vector, the
// rest evaluate through the interpreter into a Value vector.
func (pq *PreparedQuery) output(rs *engine.Run, p *queryPlan, rows []int, ex *engine.Explain) (*Result, error) {
	if err := faultpoint.Hit("sql.run.output"); err != nil {
		return nil, err
	}
	isVector := p.mode == planVector
	stmt := pq.stmt
	switch p.out {
	case outGrouped:
		return execGrouped(rs, p, stmt, rows, isVector, ex)
	case outAggregate:
		return outputAggregates(rs, p, stmt, rows, isVector, ex)
	}

	// ORDER BY.
	if stmt.Order != nil {
		keys := make([]Value, len(rows))
		ctx := &evalCtx{b: p.b, ps: p.params, pcRow: -1, vtRow: -1}
		for i, r := range rows {
			if i%exprChunk == 0 && rs.Cancelled() {
				return nil, cancel.ErrCancelled
			}
			setRow(ctx, isVector, r)
			v, err := evalExpr(ctx, stmt.Order.Expr)
			if err != nil {
				return nil, err
			}
			keys[i] = v
		}
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		desc := stmt.Order.Desc
		sort.SliceStable(idx, func(a, c int) bool {
			less := valueLess(keys[idx[a]], keys[idx[c]])
			if desc {
				return valueLess(keys[idx[c]], keys[idx[a]])
			}
			return less
		})
		sorted := make([]int, len(rows))
		for i, j := range idx {
			sorted[i] = rows[j]
		}
		rows = sorted
	}
	if p.limit >= 0 && len(rows) > p.limit {
		rows = rows[:p.limit]
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
	ctx := &evalCtx{b: p.b, ps: p.params, pcRow: -1, vtRow: -1}
	for base := 0; base < n; base += exprChunk {
		if rs.Cancelled() {
			return nil, cancel.ErrCancelled
		}
		end := min(base+exprChunk, n)
		chunk := rows[base:end]
		for i, ev := range p.proj {
			if ev != nil {
				if err := ev(chunk, res.Cols[i].Nums[base:end]); err != nil {
					return nil, err
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
	if ex != nil {
		ex.Add("project", strings.Join(p.cols, ","), n, n, time.Since(start))
	}
	return res, nil
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

func valueLess(a, b Value) bool {
	if a.Kind == KindNum && b.Kind == KindNum {
		return a.Num < b.Num
	}
	if a.Kind == KindStr && b.Kind == KindStr {
		return a.Str < b.Str
	}
	return false
}

// outputAggregates computes one result row of aggregates.
func outputAggregates(rs *engine.Run, p *queryPlan, stmt *SelectStmt, rows []int, isVector bool, ex *engine.Explain) (*Result, error) {
	start := time.Now()
	res := numericResult(p.cols, 1, ex)
	for i, item := range stmt.Items {
		f, _ := isAggregate(item.Expr)
		v, err := computeAggregate(rs, p.b, p.params, f, rows, isVector)
		if err != nil {
			return nil, err
		}
		res.Cols[i].put(0, v)
	}
	if ex != nil {
		ex.Add("aggregate", "select list", len(rows), 1, time.Since(start))
	}
	return res, nil
}

func computeAggregate(rs *engine.Run, b *binding, ps []Value, f FuncCall, rows []int, isVector bool) (Value, error) {
	if f.Name == "count" {
		if len(f.Args) == 0 {
			return Value{}, fmt.Errorf("sql: count requires an argument (use count(*))")
		}
		if _, ok := f.Args[0].(Star); ok {
			return numVal(float64(len(rows))), nil
		}
	}
	if len(f.Args) != 1 {
		return Value{}, fmt.Errorf("sql: %s expects one argument", f.Name)
	}
	if v, ok, err := kernelAggregate(rs, b, f, rows, isVector); ok {
		return v, err
	}
	ctx := &evalCtx{b: b, ps: ps, pcRow: -1, vtRow: -1}
	// Accumulation matches the engine's aggregate kernels exactly (±Inf
	// seeds, strict compares), so the same aggregate gives the same answer
	// whether it routes through kernelAggregate or this fallback: sum/avg
	// propagate NaN, min/max skip NaN values (they fail every ordered
	// comparison), and an all-NaN selection reports the ±Inf identities.
	var sum float64
	lo, hi := math.Inf(1), math.Inf(-1)
	n := 0
	for i, r := range rows {
		if i%exprChunk == 0 && rs.Cancelled() {
			return Value{}, cancel.ErrCancelled
		}
		setRow(ctx, isVector, r)
		v, err := evalExpr(ctx, f.Args[0])
		if err != nil {
			return Value{}, err
		}
		if v.Kind != KindNum {
			return Value{}, fmt.Errorf("sql: %s needs numeric input", f.Name)
		}
		if v.Num < lo {
			lo = v.Num
		}
		if v.Num > hi {
			hi = v.Num
		}
		sum += v.Num
		n++
	}
	switch f.Name {
	case "count":
		return numVal(float64(n)), nil
	case "sum":
		return numVal(sum), nil
	case "avg":
		if n == 0 {
			return Value{Kind: KindNull}, nil
		}
		return numVal(sum / float64(n)), nil
	case "min":
		if n == 0 {
			return Value{Kind: KindNull}, nil
		}
		return numVal(lo), nil
	case "max":
		if n == 0 {
			return Value{Kind: KindNull}, nil
		}
		return numVal(hi), nil
	default:
		return Value{}, fmt.Errorf("sql: unknown aggregate %q", f.Name)
	}
}

// kernelAggregate routes aggregates over a bare point-cloud column through
// the engine's typed aggregate kernels instead of per-row expression
// evaluation. ok reports whether the shape was recognised; when false, the
// caller falls back to the generic path. Results are identical: column
// references evaluate to the same float64 widening the kernels use, and
// accumulation order is unchanged (ascending rows) — min/max over large
// selections may fan across the worker set, whose ascending-partition
// merge is bit-identical to the serial fold.
func kernelAggregate(rs *engine.Run, b *binding, f FuncCall, rows []int, isVector bool) (Value, bool, error) {
	if isVector || b.pc == nil {
		return Value{}, false, nil
	}
	col, ok := pcColumnName(b, f.Args[0])
	if !ok {
		return Value{}, false, nil
	}
	var fn engine.AggFunc
	switch f.Name {
	case "count":
		// count(col) over non-null numeric columns is the row count.
		return numVal(float64(len(rows))), true, nil
	case "sum":
		fn = engine.AggSum
	case "avg":
		fn = engine.AggAvg
	case "min":
		fn = engine.AggMin
	case "max":
		fn = engine.AggMax
	default:
		return Value{}, false, nil
	}
	if len(rows) == 0 {
		// SQL semantics over empty input: sum() is 0, the rest are NULL.
		if fn == engine.AggSum {
			return numVal(0), true, nil
		}
		return Value{Kind: KindNull}, true, nil
	}
	v, err := b.pc.AggregateRun(rs, rows, fn, col, nil)
	if err != nil {
		return Value{}, true, err
	}
	return numVal(v), true, nil
}

// --- helpers --------------------------------------------------------------------

// allRows materialises the identity selection [0, n) in an rs-tracked
// pooled vector (the capacity hint covers every append, so tracking at
// acquisition is safe); hand it back with rs.RecycleRows.
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
