package sql

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"gisnav/internal/cancel"
	"gisnav/internal/engine"
	"gisnav/internal/pyramid"
)

// GROUP BY: planning and execution. Each select item must be either an
// aggregate or an expression appearing in the GROUP BY list; one output row
// emerges per distinct key, ordered by key value (or by ORDER BY over an
// output column).
//
// Classification happens ONCE, at Prepare (planGrouped): aliases in the
// GROUP BY list resolve to their select-item expressions, every select item
// is classified as key or aggregate, and the plan records whether the whole
// statement vectorizes — a single point-cloud key column with every
// aggregate a count(*) or a bare-column count/sum/avg/min/max. Vectorized
// statements execute through the engine's grouped-aggregate kernels
// (engine/groupagg.go: dense array banks for u8/u16 keys, the hash table
// otherwise), with the engine's reusable result record in the run's frame
// beside the compiled nodes' chunk blocks. Everything else (vector tables, joins
// grouped on vector columns, computed keys, expression aggregate
// arguments) retains the row-at-a-time interpreter as the fallback arm.
// The EXPLAIN "group" step reports which strategy ran: dense, hash, or
// interpreter.
//
// Rebind contract: GROUP BY and SELECT-list literals stay inline by
// policy, so a groupedPlan derives nothing from the literal vector — the
// key column, aggregate specs and item classification are shape-stable and
// serve every bound untouched. WHERE-derived constants reach a grouped
// query only through the shared filter phases, which read them from the
// bound; no grouped kernel holds a predicate constant. Epoch moves replan
// as usual (classification reads the table schema).
//
// Semantics note: both arms share the engine's aggregate accumulation
// contract (see computeAggregate): min/max seed at ±Inf with strict
// compares so NaN values never win them, sum/avg propagate NaN, and sums
// accumulate in ascending row order per group. Key identity collapses every
// NaN into one group; output order is the engine's FloatOrderKey total
// order per key (ascending numeric, -0 before +0, NaN last; strings sort
// lexically).

// aggAcc accumulates one aggregate over one group (interpreter arm).
type aggAcc struct {
	n        int
	sum      float64
	lo, hi   float64
	starArgs bool // count(*)
}

// add folds one value; lo/hi start at ±Inf (newGroup) and use strict
// compares, matching the engine kernels' NaN behaviour exactly.
func (a *aggAcc) add(v float64) {
	if v < a.lo {
		a.lo = v
	}
	if v > a.hi {
		a.hi = v
	}
	a.sum += v
	a.n++
}

func (a *aggAcc) result(name string) Value {
	switch name {
	case "count":
		return numVal(float64(a.n))
	case "sum":
		return numVal(a.sum)
	case "avg":
		if a.n == 0 {
			return Value{Kind: KindNull}
		}
		return numVal(a.sum / float64(a.n))
	case "min":
		if a.n == 0 {
			return Value{Kind: KindNull}
		}
		return numVal(a.lo)
	case "max":
		if a.n == 0 {
			return Value{Kind: KindNull}
		}
		return numVal(a.hi)
	default:
		return Value{Kind: KindNull}
	}
}

// itemPlan classifies one select item of a grouped query.
type itemPlan struct {
	name     string
	keyIndex int      // ≥ 0: the item is group key #keyIndex
	agg      FuncCall // valid when keyIndex < 0
}

// group holds the state of one distinct key (interpreter arm).
type group struct {
	keyVals []Value
	accs    []aggAcc
}

// groupedPlan is the prepare-time classification of a GROUP BY statement.
type groupedPlan struct {
	groupBy []Expr     // alias-resolved key expressions
	items   []itemPlan // classified select items, in select order
	cols    []string   // output column names
	aggs    []FuncCall // aggregate items, in select order

	// Vectorized strategy: non-empty keyCol routes execution through the
	// engine's grouped kernels with specs (parallel to aggs); empty keeps
	// the interpreter.
	keyCol string
	specs  []engine.GroupedAggSpec

	// Pyramid eligibility (PR 10): a non-empty pyrSig names the
	// pre-aggregation pyramid shape (u8 key, count/min/max specs) this
	// statement can route through when its only filter is a spatial
	// region. Shape-derived only, like keyCol/specs — rebinds keep it.
	pyrSig string
}

// planGrouped classifies a GROUP BY statement once, at Prepare time.
func planGrouped(b *binding, stmt *SelectStmt, mode planMode) (*groupedPlan, error) {
	gp := &groupedPlan{}
	// Resolve select-item aliases used as GROUP BY keys to their underlying
	// expressions (e.g. GROUP BY cls for "classification AS cls").
	gp.groupBy = append([]Expr(nil), stmt.GroupBy...)
	for k, g := range gp.groupBy {
		c, ok := g.(ColumnRef)
		if !ok || c.Table != "" {
			continue
		}
		for _, item := range stmt.Items {
			if item.Alias != "" && strings.EqualFold(item.Alias, c.Name) {
				gp.groupBy[k] = item.Expr
				break
			}
		}
	}
	// Classify select items against the group-by list.
	gp.items = make([]itemPlan, len(stmt.Items))
	for i, item := range stmt.Items {
		name := item.Alias
		if name == "" {
			name = item.Expr.exprString()
		}
		gp.items[i] = itemPlan{name: name, keyIndex: -1}
		gp.cols = append(gp.cols, name)
		if f, ok := isAggregate(item.Expr); ok {
			gp.items[i].agg = f
			gp.aggs = append(gp.aggs, f)
			continue
		}
		matched := false
		// Match against the alias-RESOLVED key list: an item naming the
		// underlying column of an aliased key (GROUP BY cls for
		// "classification AS cls") is that key.
		for k, g := range gp.groupBy {
			if g.exprString() == item.Expr.exprString() ||
				(item.Alias != "" && g.exprString() == item.Alias) {
				gp.items[i].keyIndex = k
				matched = true
				break
			}
		}
		if !matched {
			return nil, fmt.Errorf("sql: %q must appear in GROUP BY or be an aggregate", name)
		}
	}
	gp.vectorize(b, mode)
	if gp.keyCol != "" {
		if sig, ok := pyramid.Shape(b.pc, gp.keyCol, gp.specs); ok {
			gp.pyrSig = sig
		}
	}
	return gp, nil
}

// vectorize marks the plan for the engine's grouped kernels when the whole
// statement fits their shape: point-cloud rows, exactly one key that is a
// bare point-cloud column, and every aggregate either count(*)/count(col)
// or sum/avg/min/max over a bare point-cloud column. Anything else — vector
// tables, computed keys, multi-key grouping, expression arguments — keeps
// the interpreter arm.
func (gp *groupedPlan) vectorize(b *binding, mode planMode) {
	if mode == planVector || b.pc == nil || len(gp.groupBy) != 1 {
		return
	}
	key, ok := pcColumnName(b, gp.groupBy[0])
	if !ok {
		return
	}
	specs := make([]engine.GroupedAggSpec, 0, len(gp.aggs))
	for _, f := range gp.aggs {
		if len(f.Args) != 1 {
			return
		}
		if _, star := f.Args[0].(Star); star {
			if f.Name != "count" {
				return // e.g. sum(*): the interpreter raises its error
			}
			specs = append(specs, engine.GroupedAggSpec{Fn: engine.AggCount})
			continue
		}
		col, ok := pcColumnName(b, f.Args[0])
		if !ok {
			return
		}
		fn := aggFuncs[f.Name]
		if fn == engine.AggCount {
			// count(col) over the NULL-free flat table is the group size.
			col = ""
		}
		specs = append(specs, engine.GroupedAggSpec{Fn: fn, Column: col})
	}
	gp.keyCol, gp.specs = key, specs
}

// execGrouped materialises a GROUP BY query over the selected rows through
// the strategy fixed at Prepare: engine grouped kernels when the plan
// vectorized, the row-at-a-time interpreter otherwise. Both arms emit
// groups in the same canonical key order and share the ORDER BY/LIMIT tail.
// A nil rows means all rows and, like non-empty preds (the thematic
// predicates the engine applies ahead of its fold), reaches only the
// engine arm: finishPointCloud hands both over for a vectorized plan.
func execGrouped(rs *runState, bd *bound, stmt *SelectStmt, rows []int, preds []engine.ColumnPred, isVector bool, ex *engine.Explain) (*Result, error) {
	p := bd.plan
	gp := p.grouped
	start := time.Now()
	var res *Result
	strategy := "interpreter"
	if gp.keyCol != "" && !isVector {
		// ex lands the engine's group.agg step (kernel strategy + timing)
		// ahead of the SQL-layer group step below; nil on untraced runs.
		if err := p.b.pc.GroupedAggregateRun(&rs.Run, rows, preds, gp.keyCol, gp.specs, &rs.grouped, ex); err != nil {
			return nil, err
		}
		start = time.Now() // group.agg timed the engine's fold; group is the rest
		strategy = rs.grouped.Strategy
		// Engine results arrive already in FloatOrderKey order.
		res = materialiseGrouped(gp, &rs.grouped, ex)
	} else {
		var err error
		if res, err = interpretGrouped(&rs.Run, bd, rows, isVector, ex); err != nil {
			return nil, err
		}
	}
	if ex != nil { // the Sprintf below must not run on untraced steady-state runs
		in := len(rows)
		if rows == nil { // the unfiltered vectorized arm: all rows
			in = p.b.pc.Len()
		}
		ex.Add("group", fmt.Sprintf("%s: %d groups over %d keys", strategy, res.Len(), len(gp.groupBy)),
			in, res.Len(), time.Since(start))
	}
	if err := groupedTail(bd, stmt, res); err != nil {
		return nil, err
	}
	return res, nil
}

// materialiseGrouped copies the engine's column-shaped grouped result
// (gr, the frame's record, which the run's next fold overwrites) into result
// columns in select-item order — shared by the exact vectorized arm and the
// pyramid arm, so both emit identical columns for identical records.
func materialiseGrouped(gp *groupedPlan, gr *engine.GroupedResult, ex *engine.Explain) *Result {
	res := numericResult(gp.cols, len(gr.Keys), ex)
	ai := 0
	for j, ip := range gp.items {
		if ip.keyIndex >= 0 {
			copy(res.Cols[j].Nums, gr.Keys)
		} else {
			copy(res.Cols[j].Nums, gr.Cols[ai])
			ai++
		}
	}
	return res
}

// groupedTail applies ORDER BY over an output column (by alias or
// expression text) and LIMIT — the shared tail of every grouped arm. Both go
// through one row permutation: the sort orders it by the key column, the
// limit cuts it, and every column gathers what is left of it.
func groupedTail(bd *bound, stmt *SelectStmt, res *Result) error {
	gp := bd.plan.grouped
	var key *Column
	if stmt.Order != nil {
		want := stmt.Order.Expr.exprString()
		for i, ip := range gp.items {
			if ip.name == want || stmt.Items[i].Expr.exprString() == want {
				key = &res.Cols[i]
				break
			}
		}
		if key == nil {
			return fmt.Errorf("sql: ORDER BY %q must name a select item in grouped queries", want)
		}
	}
	limit := res.Len()
	if bd.limit >= 0 && bd.limit < limit {
		limit = bd.limit
	}
	if key == nil && limit == res.Len() {
		return nil
	}
	idx := make([]int, res.Len())
	for i := range idx {
		idx[i] = i
	}
	if key != nil {
		desc := stmt.Order.Desc
		sort.SliceStable(idx, func(a, c int) bool {
			if desc {
				a, c = c, a
			}
			return valueLess(key.Value(idx[a]), key.Value(idx[c]))
		})
	}
	for j := range res.Cols {
		res.Cols[j] = res.Cols[j].gather(idx[:limit])
	}
	return nil
}

// tryPyramid routes an eligible viewport-histogram statement — grouped
// output, pyramid-eligible shape, a spatial region as the ONLY filter —
// through the pre-aggregation pyramid: interior tiles answer from
// O(visible tiles) of pre-aggregates, boundary tiles refine exactly, and
// the result is bit-identical to the exact arm (the shape gate admits
// only merge-exact count/min/max aggregates). ok=false falls back to the
// exact selection + grouped-kernel path with nothing consumed: the
// pyramid declines tables it cannot tile (empty, degenerate extent),
// regions whose envelopes it cannot span, and disabled routing. The
// pyramid itself is cached per (table, epoch, shape); an epoch bump
// (Append/InvalidateIndexes) drops it lazily on next lookup.
func (pq *PreparedQuery) tryPyramid(rs *runState, bd *bound, ex *engine.Explain) (res *Result, ok bool, err error) {
	p := bd.plan
	gp := p.grouped
	if p.out != outGrouped || gp == nil || gp.pyrSig == "" ||
		bd.region == nil || len(bd.preds) > 0 || len(p.generic) > 0 {
		return nil, false, nil
	}
	start := time.Now()
	pyr, err := pyramid.For(&rs.Run, p.b.pc, gp.keyCol, gp.specs, gp.pyrSig, ex)
	if err != nil || pyr == nil {
		return nil, false, err
	}
	defer pyr.Release()
	qs, served, err := pyr.QueryRegionRun(&rs.Run, bd.region, gp.specs, &rs.grouped)
	if err != nil || !served {
		return nil, false, err
	}
	res = materialiseGrouped(gp, &rs.grouped, ex)
	if ex != nil { // Sprintf stays off the untraced steady-state path
		ex.Add("group", fmt.Sprintf("pyramid(interior %d, boundary %d): %d groups over %d keys",
			qs.Interior, qs.Boundary, res.Len(), len(gp.groupBy)),
			qs.BoundaryRows, res.Len(), time.Since(start))
	}
	if err := groupedTail(bd, pq.stmt, res); err != nil {
		return nil, true, err
	}
	return res, true, nil
}

// interpretGrouped is the row-at-a-time fallback arm: evaluate the key
// expressions and aggregate arguments per row, accumulate into a map keyed
// by the rendered key tuple, then emit groups sorted into the same
// canonical key order the engine kernels produce.
func interpretGrouped(rs *engine.Run, bd *bound, rows []int, isVector bool, ex *engine.Explain) (*Result, error) {
	gp := bd.plan.grouped
	groups := map[string]*group{}
	ctx := &evalCtx{b: bd.plan.b, ps: bd.params, pcRow: -1, vtRow: -1}
	var keyBuf strings.Builder
	// The key tuple is evaluated into a reused scratch slice and cloned only
	// when the row opens a new group — existing groups (the common case) cost
	// no per-row allocation.
	keyScratch := make([]Value, len(gp.groupBy))
	for n, r := range rows {
		if n%exprChunk == 0 && rs.Cancelled() {
			return nil, cancel.ErrCancelled
		}
		setRow(ctx, isVector, r)
		keyBuf.Reset()
		for k, gexpr := range gp.groupBy {
			v, err := evalExpr(ctx, gexpr)
			if err != nil {
				return nil, err
			}
			keyScratch[k] = v
			keyBuf.WriteString(v.String())
			keyBuf.WriteByte(0)
		}
		key := keyBuf.String()
		grp, ok := groups[key]
		if !ok {
			grp = newGroup(append([]Value(nil), keyScratch...), len(gp.aggs))
			groups[key] = grp
		}
		for ai, f := range gp.aggs {
			acc := &grp.accs[ai]
			if f.Name == "count" && len(f.Args) == 1 {
				if _, isStar := f.Args[0].(Star); isStar {
					acc.n++
					continue
				}
			}
			if len(f.Args) != 1 {
				return nil, fmt.Errorf("sql: %s expects one argument", f.Name)
			}
			v, err := evalExpr(ctx, f.Args[0])
			if err != nil {
				return nil, err
			}
			if v.Kind != KindNum {
				return nil, fmt.Errorf("sql: %s needs numeric input", f.Name)
			}
			acc.add(v.Num)
		}
	}

	// Emit one row per group in canonical key order. Aggregates are numbers
	// or NULL; a key column promotes itself on its first non-numeric value.
	ordered := make([]*group, 0, len(groups))
	for _, grp := range groups {
		ordered = append(ordered, grp)
	}
	sort.Slice(ordered, func(a, c int) bool {
		return groupKeyLess(ordered[a].keyVals, ordered[c].keyVals)
	})
	res := numericResult(gp.cols, len(ordered), ex)
	for r, grp := range ordered {
		ai := 0
		for i, ip := range gp.items {
			if ip.keyIndex >= 0 {
				res.Cols[i].put(r, grp.keyVals[ip.keyIndex])
			} else {
				res.Cols[i].put(r, grp.accs[ai].result(ip.agg.Name))
				ai++
			}
		}
	}
	return res, nil
}

// newGroup seeds a group's accumulators (±Inf min/max, see aggAcc.add).
func newGroup(keyVals []Value, naggs int) *group {
	g := &group{keyVals: keyVals, accs: make([]aggAcc, naggs)}
	for i := range g.accs {
		g.accs[i].lo = math.Inf(1)
		g.accs[i].hi = math.Inf(-1)
	}
	return g
}

// groupKeyLess orders two key tuples in the canonical grouped-output order:
// element-wise, numbers by the engine's FloatOrderKey total order (so both
// execution arms agree on NaN and ±0 placement), strings lexically, other
// kinds by their rendering.
func groupKeyLess(a, b []Value) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		switch {
		case a[i].Kind == KindNum && b[i].Kind == KindNum:
			ka, kb := engine.FloatOrderKey(a[i].Num), engine.FloatOrderKey(b[i].Num)
			if ka != kb {
				return ka < kb
			}
		case a[i].Kind == KindStr && b[i].Kind == KindStr:
			if a[i].Str != b[i].Str {
				return a[i].Str < b[i].Str
			}
		default:
			sa, sb := a[i].String(), b[i].String()
			if sa != sb {
				return sa < sb
			}
		}
	}
	return false
}
