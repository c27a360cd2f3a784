// Query planning: the prepare half of the prepare/execute split. Prepare
// parses a statement once, binds its table references against the catalog,
// classifies every WHERE conjunct into the engine shapes the executor can
// accelerate — one spatial region for the imprint+grid path, thematic
// column predicates for the kernel layer, compiled vector kernels for
// generic arithmetic conjuncts, interpreter expressions for the rest — and
// fixes the physical strategy (point-cloud scan / vector-table scan /
// spatial join). The product is an immutable queryPlan that
// PreparedQuery.RunContext executes with none of that per-call work; the
// paper's navigation workload re-issues near-identical statements on every
// pan and zoom, so everything above the scan layer is hoisted here.
//
// Invalidation contract (the SQL-layer extension of the engine plan cache
// contract in ROADMAP.md): compiled generic kernels close over column
// backing arrays, and star expansion and conjunct classification read the
// table schema, so a plan is valid only for the table epochs it was built
// against. buildPlan captures each bound table's epoch BEFORE reading any
// table state; every run revalidates the captured epochs and replans on
// mismatch. Appends bump the epoch (PointCloud.InvalidateIndexes,
// VectorTable.Append), so a cached statement can never serve a plan bound
// to moved arrays. Plans bind table pointers, not names, so buildPlan also
// captures the catalog generation (engine.DB.Generation, bumped by every
// Register call) before bind resolves a name: a table re-registered under
// a bound name replans too.
//
// Parameterisation contract (PR 4): plans are SKELETONS over a bound
// literal vector. Everything literal-derived — the spatial region, the
// ColumnPred constants, the compiled generic kernels' constant slots, the
// vt class/geometry constants, the join distance, LIMIT — can be re-bound
// to a new vector of the same shape (rebind) without re-planning: no parse,
// no classification, no kernel compile. Rebinding re-derives each
// value-dependent ingredient from its source conjunct; if a new literal
// vector would change a conjunct's CLASSIFICATION (e.g. a constant
// sub-expression that now errors), rebind reports failure and the caller
// replans from the AST — correctness never depends on the literals staying
// classification-equivalent. Epoch mismatches still replan, never rebind.
package sql

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
)

// planMode is the physical strategy fixed at prepare time.
type planMode uint8

const (
	planPointCloud planMode = iota
	planVector
	planJoin
)

// outMode classifies the SELECT list.
type outMode uint8

const (
	outProject outMode = iota
	outAggregate
	outGrouped
)

// genericStep is one WHERE conjunct the planner could not hand to the
// engine's predicate kernels, in original conjunct order (order matters
// for error semantics: an earlier conjunct may narrow away the rows on
// which a later one would fail). cf is the compiled vector kernel when the
// expression compiler covered the shape; nil means the row-at-a-time
// interpreter evaluates expr.
type genericStep struct {
	cf   *compiledFilter
	expr Expr
}

// vtStepKind tags one vector-table filter step.
type vtStepKind uint8

const (
	vtStepClass      vtStepKind = iota // class = 'x' through the dictionary
	vtStepIntersects                   // ST_Intersects(geom, const) through the R-tree
	vtStepGeneric                      // row-wise interpreter
)

// vtStep is one planned vector-table conjunct.
type vtStep struct {
	kind  vtStepKind
	class string
	g     geom.Geometry
	expr  Expr
}

// joinKind is the recognised spatial-join operator.
type joinKind uint8

const (
	joinNone    joinKind = iota
	joinDWithin          // ST_DWithin(vt.geom, pc point, d) → PointsNearFeaturesRun
	joinWithin           // containment variants → PointsInFeaturesRun
)

// queryPlan is the immutable product of one planning pass. Everything in
// it is either a constant (region geometries, predicate bounds, output
// columns) or bound to table state no older than the captured epochs.
type queryPlan struct {
	b    *binding
	mode planMode

	// Epochs of the bound tables and the catalog generation when planning
	// started; see the package comment for the revalidation contract.
	pcEpoch uint64
	vtEpoch uint64
	catGen  uint64

	// The bound literal vector and its numeric mirror for compiled kernels.
	// Both are rewritten IN PLACE by rebind (under the statement lock):
	// interpreter steps read params through evalCtx, compiled nodes are
	// handed slots on every evaluation.
	params []Value
	slots  *paramStore

	// Point-cloud phase (planPointCloud and the join tail). regionConj and
	// predConjs are the source conjuncts of the literal-derived region and
	// predicate constants — rebind re-derives from them.
	region     grid.Region
	regionConj Expr
	preds      []engine.ColumnPred
	predConjs  []Expr
	generic    []genericStep

	// Vector phase (planVector and the join head).
	vtSteps []vtStep

	// Join operator (joinConj is its source predicate, kept for rebind).
	join     joinKind
	joinDist float64
	joinConj Expr

	// Output phase. limit is the bound LIMIT (-1 when absent), resolved
	// from the literal vector when the statement parameterised it. grouped
	// is the prepare-time GROUP BY classification (groupby.go), present only
	// for outGrouped plans; it derives nothing from the literal vector
	// (GROUP BY/SELECT-list literals stay inline by policy), so rebind
	// leaves it untouched. proj parallels exprs: the compiled vector kernel
	// of each projected item, nil where compileNum declined the shape and
	// the interpreter evaluates the expression instead. limitSelect marks
	// a shape whose LIMIT cuts the region selection itself (selectLimit).
	out         outMode
	cols        []string
	exprs       []Expr
	proj        []numNode
	limit       int
	limitSelect bool
	grouped     *groupedPlan
}

// PreparedQuery is a statement prepared for repeated execution: parse,
// binding, conjunct classification, kernel compilation and strategy choice
// all happened once, at Prepare time. RunContext executes the captured plan,
// replanning transparently when a bound table's epoch moved.
//
// A PreparedQuery is safe for concurrent use: one run at a time executes
// the cached plan (the compiled kernels carry per-statement chunk
// scratch), and overlapping runs fall back to a transient plan of their
// own, so concurrent identical statements scale instead of serialising.
type PreparedQuery struct {
	ex   *Executor
	stmt *SelectStmt

	// init is the literal vector captured at Prepare time; immutable. The
	// plan's bound vector may advance past it through shape-cache rebinds
	// (Executor.QueryContext); RunContext always re-presents init, which is a
	// no-op for a standalone prepared statement.
	init []Value

	mu   sync.Mutex
	plan *queryPlan

	// poisoned marks the plan untrustworthy after a recovered panic: a
	// panic can unwind out of the plan's per-statement scratch (compiled
	// kernel chunk buffers, grouped-aggregate result record) in a torn
	// state. The next run replans from the AST and clears the mark only
	// once the fresh plan is committed (lifecycle.go / run.go).
	poisoned atomic.Bool
}

// Prepare parses and plans src for repeated execution. The statement is
// auto-parameterised first, so the resulting plan is a rebindable skeleton
// with src's literals bound.
func (e *Executor) Prepare(src string) (*PreparedQuery, error) {
	_, toks, params, err := parameterize(src)
	if err != nil {
		return nil, err
	}
	stmt, err := parseTokens(toks)
	if err != nil {
		return nil, err
	}
	return e.prepareBound(stmt, params)
}

// prepareBound plans stmt against the literal vector params.
func (e *Executor) prepareBound(stmt *SelectStmt, params []Value) (*PreparedQuery, error) {
	plan, err := e.buildPlan(stmt, params)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{ex: e, stmt: stmt, init: append([]Value(nil), params...), plan: plan}, nil
}

// buildPlan runs one full planning pass over stmt with the literal vector
// params bound.
func (e *Executor) buildPlan(stmt *SelectStmt, params []Value) (*queryPlan, error) {
	// The generation is read before bind resolves any name: a registration
	// racing the bind leaves the plan already stale — the safe direction.
	catGen := e.db.Generation()
	b, err := e.bind(stmt.From)
	if err != nil {
		return nil, err
	}
	p := &queryPlan{
		b:      b,
		catGen: catGen,
		params: append([]Value(nil), params...),
		slots:  newParamStore(params),
		limit:  -1,
	}
	// Capture epochs before reading any table state: if an append slips in
	// between the epoch read and kernel compilation, the recorded epoch is
	// already stale and the next Run replans — the safe direction.
	if b.pc != nil {
		p.pcEpoch = b.pc.Epoch()
	}
	if b.vt != nil {
		p.vtEpoch = b.vt.Epoch()
	}
	switch {
	case b.pc != nil && b.vt != nil:
		p.mode = planJoin
		if err := p.planJoinWhere(stmt.Where); err != nil {
			return nil, err
		}
	case b.pc != nil:
		p.mode = planPointCloud
		for _, c := range splitConjuncts(stmt.Where) {
			p.addPCConjunct(c, true)
		}
	case b.vt != nil:
		p.mode = planVector
		for _, c := range splitConjuncts(stmt.Where) {
			p.addVTConjunct(c)
		}
	default:
		return nil, fmt.Errorf("sql: no tables bound")
	}
	if err := p.planOutput(stmt); err != nil {
		return nil, err
	}
	limit, err := resolveLimit(stmt, p.params)
	if err != nil {
		return nil, err
	}
	p.limit = limit
	// A plain projection of region rows, with nothing filtering after the
	// selection and nothing reordering it, emits the selection's prefix:
	// the selector may stop at the LIMIT-th match. The shape survives every
	// rebind, so the decision is made once; the bound count is read per run.
	p.limitSelect = p.mode == planPointCloud && p.region != nil &&
		len(p.preds) == 0 && len(p.generic) == 0 && p.out == outProject && stmt.Order == nil
	return p, nil
}

// selectLimit is the LIMIT the region selection may stop at: the bound
// count on a limitSelect shape, -1 (every row) otherwise.
func (p *queryPlan) selectLimit() int {
	if p.limitSelect {
		return p.limit
	}
	return -1
}

// resolveLimit returns the statement's LIMIT bound against the literal
// vector (-1 when absent). A parameterised count is validated here — the
// parser accepted a typed placeholder, so the value check the literal form
// gets at parse time happens at bind time instead.
func resolveLimit(stmt *SelectStmt, params []Value) (int, error) {
	if stmt.LimitParam < 0 {
		return stmt.Limit, nil
	}
	if stmt.LimitParam >= len(params) {
		return 0, fmt.Errorf("sql: unbound LIMIT parameter $%d", stmt.LimitParam+1)
	}
	v := params[stmt.LimitParam]
	if v.Kind != KindNum || v.Num < 0 || v.Num != math.Trunc(v.Num) || v.Num > math.MaxInt32 {
		return 0, fmt.Errorf("sql: bad LIMIT %q", v.String())
	}
	return int(v.Num), nil
}

// rebind re-binds the plan skeleton to a new literal vector of the same
// shape: constants are re-derived from their source conjuncts, compiled
// kernels see the refreshed slot store, interpreter steps see the refreshed
// params — no parse, no classification, no kernel compile. It reports false
// when the new literals change a conjunct's classification (a constant
// sub-expression that stops evaluating, a region that stops being constant);
// the caller then replans from the AST. Must run under the statement lock.
//
// Stage-then-commit: every re-derivation runs against the incoming vector
// FIRST, and plan state is only written once all of them succeeded. A
// rebind that fails therefore leaves the plan exactly as it was — still
// consistently bound to its previous vector — which matters when the
// caller's fallback replan also errors: the cached plan must not be left
// half-mutated with the new params but the old constants.
func (p *queryPlan) rebind(stmt *SelectStmt, params []Value) bool {
	if len(params) != len(p.params) {
		return false
	}
	limit, err := resolveLimit(stmt, params)
	if err != nil {
		return false
	}
	var region grid.Region
	if p.regionConj != nil {
		var ok bool
		region, ok = pcRegionFromConjunct(p.b, params, p.regionConj)
		if !ok {
			return false
		}
	}
	preds := make([]engine.ColumnPred, len(p.predConjs))
	for i, conj := range p.predConjs {
		pred, ok := pcPredFromConjunct(p.b, params, conj)
		if !ok || pred.Column != p.preds[i].Column || pred.Op != p.preds[i].Op {
			return false
		}
		preds[i] = pred
	}
	classes := make([]string, len(p.vtSteps))
	geoms := make([]geom.Geometry, len(p.vtSteps))
	for i := range p.vtSteps {
		st := &p.vtSteps[i]
		switch st.kind {
		case vtStepClass:
			cls, ok := vtClassEquality(p.b, params, st.expr)
			if !ok {
				return false
			}
			classes[i] = cls
		case vtStepIntersects:
			g, ok := vtIntersectsConst(p.b, params, st.expr)
			if !ok {
				return false
			}
			geoms[i] = g
		}
	}
	join, joinDist := p.join, p.joinDist
	if p.joinConj != nil {
		var err error
		join, joinDist, err = classifyJoinPredicate(p.b, params, p.joinConj)
		if err != nil {
			return false
		}
	}

	// Commit: everything staged successfully; bind the new vector.
	copy(p.params, params)
	p.slots.refresh(params)
	p.limit = limit
	p.region = region
	copy(p.preds, preds)
	for i := range p.vtSteps {
		switch p.vtSteps[i].kind {
		case vtStepClass:
			p.vtSteps[i].class = classes[i]
		case vtStepIntersects:
			p.vtSteps[i].g = geoms[i]
		}
	}
	p.join, p.joinDist = join, joinDist
	return true
}

// stale reports whether a bound table's epoch or db's catalog generation
// moved since planning.
func (p *queryPlan) stale(db *engine.DB) bool {
	if db.Generation() != p.catGen {
		return true
	}
	if p.b.pc != nil && p.b.pc.Epoch() != p.pcEpoch {
		return true
	}
	if p.b.vt != nil && p.b.vt.Epoch() != p.vtEpoch {
		return true
	}
	return false
}

// addPCConjunct classifies one point-cloud conjunct. allowRegion gates the
// single accelerable spatial region: plain point-cloud queries route their
// first recognised spatial conjunct through the imprint+grid path, while
// joins reach the point cloud through the join operator instead.
func (p *queryPlan) addPCConjunct(c Expr, allowRegion bool) {
	if allowRegion && p.region == nil {
		if r, ok := pcRegionFromConjunct(p.b, p.params, c); ok {
			p.region, p.regionConj = r, c
			return
		}
	}
	if pred, ok := pcPredFromConjunct(p.b, p.params, c); ok {
		p.preds = append(p.preds, pred)
		p.predConjs = append(p.predConjs, c)
		return
	}
	if cf, ok := compilePCFilter(p.b, p.slots, c); ok {
		p.generic = append(p.generic, genericStep{cf: cf, expr: c})
		return
	}
	p.generic = append(p.generic, genericStep{expr: c})
}

// addVTConjunct classifies one vector-table conjunct into its fast path.
func (p *queryPlan) addVTConjunct(c Expr) {
	if cls, ok := vtClassEquality(p.b, p.params, c); ok {
		p.vtSteps = append(p.vtSteps, vtStep{kind: vtStepClass, class: cls, expr: c})
		return
	}
	if g, ok := vtIntersectsConst(p.b, p.params, c); ok {
		p.vtSteps = append(p.vtSteps, vtStep{kind: vtStepIntersects, g: g, expr: c})
		return
	}
	p.vtSteps = append(p.vtSteps, vtStep{kind: vtStepGeneric, expr: c})
}

// planJoinWhere splits join conjuncts by table usage and recognises the
// single cross-table spatial predicate.
func (p *queryPlan) planJoinWhere(where Expr) error {
	var joinConj Expr
	for _, c := range splitConjuncts(where) {
		u := usage(p.b, c)
		switch {
		case u.pc && u.vt:
			if joinConj != nil {
				return fmt.Errorf("sql: at most one spatial join predicate supported")
			}
			joinConj = c
		case u.vt:
			p.addVTConjunct(c)
		default:
			p.addPCConjunct(c, false)
		}
	}
	if joinConj == nil {
		return fmt.Errorf("sql: joins require a spatial predicate linking the tables (e.g. ST_DWithin)")
	}
	p.joinConj = joinConj
	join, dist, err := classifyJoinPredicate(p.b, p.params, joinConj)
	if err != nil {
		return err
	}
	p.join, p.joinDist = join, dist
	return nil
}

// classifyJoinPredicate recognises the join predicate shape once, at
// prepare (or rebind) time, so Run only dispatches on the resolved kind.
// Pure: it never touches plan state, so rebind can stage its result.
func classifyJoinPredicate(b *binding, ps []Value, conj Expr) (joinKind, float64, error) {
	f, ok := conj.(FuncCall)
	if !ok {
		return joinNone, 0, fmt.Errorf("sql: unsupported join predicate %q", conj.exprString())
	}
	switch f.Name {
	case "st_dwithin":
		if len(f.Args) == 3 {
			d, dok := constNum(b, ps, f.Args[2])
			if dok {
				for i := 0; i < 2; i++ {
					if isVTGeom(b, f.Args[i]) && isPCPoint(b, f.Args[1-i]) {
						return joinDWithin, d, nil
					}
				}
			}
		}
	case "st_contains", "st_covers", "st_intersects":
		if len(f.Args) == 2 {
			for i := 0; i < 2; i++ {
				if isVTGeom(b, f.Args[i]) && isPCPoint(b, f.Args[1-i]) {
					if f.Name != "st_intersects" && i != 0 {
						break // containment is asymmetric
					}
					return joinWithin, 0, nil
				}
			}
		}
	case "st_within":
		if len(f.Args) == 2 && isPCPoint(b, f.Args[0]) && isVTGeom(b, f.Args[1]) {
			return joinWithin, 0, nil
		}
	}
	return joinNone, 0, fmt.Errorf("sql: unsupported join predicate %q", conj.exprString())
}

// planOutput classifies the SELECT list and hoists the output columns.
func (p *queryPlan) planOutput(stmt *SelectStmt) error {
	if len(stmt.GroupBy) > 0 {
		p.out = outGrouped
		gp, err := planGrouped(p.b, stmt, p.mode)
		if err != nil {
			return err
		}
		p.grouped = gp
		p.cols = gp.cols
		return nil
	}
	aggCount := 0
	for _, item := range stmt.Items {
		if _, ok := isAggregate(item.Expr); ok {
			aggCount++
		}
	}
	if aggCount > 0 {
		if aggCount != len(stmt.Items) {
			return fmt.Errorf("sql: cannot mix aggregates and plain columns without GROUP BY")
		}
		p.out = outAggregate
		for _, item := range stmt.Items {
			name := item.Alias
			if name == "" {
				name = item.Expr.exprString()
			}
			p.cols = append(p.cols, name)
		}
		return nil
	}
	p.out = outProject
	p.cols, p.exprs = expandItems(stmt.Items, p.b, p.mode == planVector)
	p.proj = make([]numNode, len(p.exprs))
	for i, e := range p.exprs {
		// A projected item is evaluated for every output row, so a fallible
		// kernel (runtime-checked division) is as good as the interpreter.
		if ev, _, ok := compileNum(p.b, p.slots, e); ok {
			p.proj[i] = ev
		}
	}
	return nil
}

// --- binding ---------------------------------------------------------------

// bind resolves FROM references against the catalog.
func (e *Executor) bind(from []TableRef) (*binding, error) {
	if len(from) == 0 {
		return nil, fmt.Errorf("sql: FROM clause required")
	}
	if len(from) > 2 {
		return nil, fmt.Errorf("sql: at most two tables supported (point cloud × vector join)")
	}
	b := &binding{}
	for _, ref := range from {
		names := []string{ref.Name}
		if ref.Alias != "" {
			names = append(names, ref.Alias)
		}
		if e.db.IsPointCloud(ref.Name) {
			if b.pc != nil {
				return nil, fmt.Errorf("sql: only one point cloud table per query")
			}
			pc, err := e.db.PointCloud(ref.Name)
			if err != nil {
				return nil, err
			}
			b.pc = pc
			b.pcNames = names
			continue
		}
		vt, err := e.db.Vector(ref.Name)
		if err != nil {
			return nil, fmt.Errorf("sql: unknown table %q", ref.Name)
		}
		if b.vt != nil {
			return nil, fmt.Errorf("sql: only one vector table per query")
		}
		b.vt = vt
		b.vtNames = names
	}
	return b, nil
}

// --- conjunct classification ------------------------------------------------

// refUse records which tables an expression touches.
type refUse struct {
	pc, vt bool
}

// usage walks e and classifies its column references under b.
func usage(b *binding, e Expr) refUse {
	var u refUse
	var walk func(Expr)
	walk = func(e Expr) {
		switch t := e.(type) {
		case ColumnRef:
			name := strings.ToLower(t.Name)
			if t.Table != "" {
				if b.isPCName(t.Table) && !b.isVTName(t.Table) {
					u.pc = true
					return
				}
				if b.isVTName(t.Table) && !b.isPCName(t.Table) {
					u.vt = true
					return
				}
			}
			// Unqualified: resolve by column name.
			if b.pc != nil && b.pc.Column(name) != nil {
				u.pc = true
				return
			}
			if b.vt != nil {
				if name == vcID || name == vcClass || name == vcName || name == vcGeom {
					u.vt = true
					return
				}
				for _, attr := range b.vt.NumericAttrs() {
					if strings.EqualFold(attr, name) {
						u.vt = true
						return
					}
				}
			}
		case FuncCall:
			for _, a := range t.Args {
				walk(a)
			}
		case BinaryExpr:
			walk(t.L)
			walk(t.R)
		case NotExpr:
			walk(t.E)
		case BetweenExpr:
			walk(t.Subject)
			walk(t.Lo)
			walk(t.Hi)
		}
	}
	walk(e)
	return u
}

// constGeom evaluates e without row context against the literal vector,
// expecting a geometry.
func constGeom(b *binding, ps []Value, e Expr) (geom.Geometry, bool) {
	v, err := evalExpr(&evalCtx{b: b, ps: ps, pcRow: -1, vtRow: -1}, e)
	if err != nil || v.Kind != KindGeom {
		return nil, false
	}
	return v.Geom, true
}

// constNum evaluates e without row context against the literal vector,
// expecting a number.
func constNum(b *binding, ps []Value, e Expr) (float64, bool) {
	v, err := evalExpr(&evalCtx{b: b, ps: ps, pcRow: -1, vtRow: -1}, e)
	if err != nil || v.Kind != KindNum {
		return 0, false
	}
	return v.Num, true
}

// isPCPoint recognises ST_Point(x, y) over the point cloud's coordinate
// columns — the shape the imprint filter accelerates.
func isPCPoint(b *binding, e Expr) bool {
	f, ok := e.(FuncCall)
	if !ok || f.Name != "st_point" || len(f.Args) != 2 {
		return false
	}
	cx, okx := f.Args[0].(ColumnRef)
	cy, oky := f.Args[1].(ColumnRef)
	if !okx || !oky {
		return false
	}
	return b.isPCName(cx.Table) && b.isPCName(cy.Table) &&
		strings.EqualFold(cx.Name, engine.ColX) && strings.EqualFold(cy.Name, engine.ColY)
}

// isVTGeom recognises a reference to the vector table's geometry column.
func isVTGeom(b *binding, e Expr) bool {
	c, ok := e.(ColumnRef)
	return ok && strings.EqualFold(c.Name, vcGeom) && b.isVTName(c.Table)
}

// pcRegionFromConjunct extracts an accelerable spatial region predicate over
// the point cloud, if e has one of the recognised shapes.
func pcRegionFromConjunct(b *binding, ps []Value, e Expr) (grid.Region, bool) {
	f, ok := e.(FuncCall)
	if !ok {
		return nil, false
	}
	switch f.Name {
	case "st_contains", "st_covers", "st_intersects":
		if len(f.Args) != 2 {
			return nil, false
		}
		for i := 0; i < 2; i++ {
			g, gok := constGeom(b, ps, f.Args[i])
			if gok && isPCPoint(b, f.Args[1-i]) {
				return grid.GeometryRegion{G: g}, true
			}
			// st_contains is asymmetric: the geometry must be first.
			if f.Name != "st_intersects" {
				break
			}
		}
	case "st_within":
		if len(f.Args) != 2 {
			return nil, false
		}
		if g, gok := constGeom(b, ps, f.Args[1]); gok && isPCPoint(b, f.Args[0]) {
			return grid.GeometryRegion{G: g}, true
		}
	case "st_dwithin":
		if len(f.Args) != 3 {
			return nil, false
		}
		d, dok := constNum(b, ps, f.Args[2])
		if !dok {
			return nil, false
		}
		for i := 0; i < 2; i++ {
			g, gok := constGeom(b, ps, f.Args[i])
			if gok && isPCPoint(b, f.Args[1-i]) {
				return grid.BufferRegion{G: g, D: d}, true
			}
		}
	}
	return nil, false
}

// pcPredFromConjunct extracts a thematic column predicate.
func pcPredFromConjunct(b *binding, ps []Value, e Expr) (engine.ColumnPred, bool) {
	switch t := e.(type) {
	case BinaryExpr:
		ops := map[string]engine.CmpOp{
			"=": engine.CmpEQ, "<>": engine.CmpNE, "<": engine.CmpLT,
			"<=": engine.CmpLE, ">": engine.CmpGT, ">=": engine.CmpGE,
		}
		op, ok := ops[t.Op]
		if !ok {
			return engine.ColumnPred{}, false
		}
		if col, v, ok := colAndConst(b, ps, t.L, t.R); ok {
			return engine.ColumnPred{Column: col, Op: op, Value: v}, true
		}
		if col, v, ok := colAndConst(b, ps, t.R, t.L); ok {
			return engine.ColumnPred{Column: col, Op: flipOp(op), Value: v}, true
		}
	case BetweenExpr:
		col, okc := pcColumnName(b, t.Subject)
		lo, okl := constNum(b, ps, t.Lo)
		hi, okh := constNum(b, ps, t.Hi)
		if okc && okl && okh {
			return engine.ColumnPred{Column: col, Op: engine.CmpBetween, Value: lo, Value2: hi}, true
		}
	}
	return engine.ColumnPred{}, false
}

func colAndConst(b *binding, ps []Value, colSide, constSide Expr) (string, float64, bool) {
	col, ok := pcColumnName(b, colSide)
	if !ok {
		return "", 0, false
	}
	v, ok := constNum(b, ps, constSide)
	if !ok {
		return "", 0, false
	}
	return col, v, true
}

func pcColumnName(b *binding, e Expr) (string, bool) {
	c, ok := e.(ColumnRef)
	if !ok || !b.isPCName(c.Table) || b.pc == nil {
		return "", false
	}
	name := strings.ToLower(c.Name)
	if b.pc.Column(name) == nil {
		return "", false
	}
	return name, true
}

func flipOp(op engine.CmpOp) engine.CmpOp {
	switch op {
	case engine.CmpLT:
		return engine.CmpGT
	case engine.CmpLE:
		return engine.CmpGE
	case engine.CmpGT:
		return engine.CmpLT
	case engine.CmpGE:
		return engine.CmpLE
	default:
		return op
	}
}

func vtClassEquality(b *binding, ps []Value, e Expr) (string, bool) {
	t, ok := e.(BinaryExpr)
	if !ok || t.Op != "=" {
		return "", false
	}
	// The class constant may be an inline literal or a parameter slot of
	// string type — the slot's type is part of the statement shape, so a
	// rebind can change the value but never the route.
	constStr := func(e Expr) (string, bool) {
		switch s := e.(type) {
		case StringLit:
			return s.Value, true
		case ParamRef:
			if s.Kind == KindStr && s.Index >= 0 && s.Index < len(ps) {
				return ps[s.Index].Str, true
			}
		}
		return "", false
	}
	if c, ok := t.L.(ColumnRef); ok && strings.EqualFold(c.Name, vcClass) && b.isVTName(c.Table) {
		if s, ok := constStr(t.R); ok {
			return s, true
		}
	}
	if c, ok := t.R.(ColumnRef); ok && strings.EqualFold(c.Name, vcClass) && b.isVTName(c.Table) {
		if s, ok := constStr(t.L); ok {
			return s, true
		}
	}
	return "", false
}

func vtIntersectsConst(b *binding, ps []Value, e Expr) (geom.Geometry, bool) {
	f, ok := e.(FuncCall)
	if !ok || f.Name != "st_intersects" || len(f.Args) != 2 {
		return nil, false
	}
	for i := 0; i < 2; i++ {
		if isVTGeom(b, f.Args[i]) {
			if g, ok := constGeom(b, ps, f.Args[1-i]); ok {
				return g, true
			}
		}
	}
	return nil, false
}

// expandItems resolves * and aliases into output columns and expressions.
func expandItems(items []SelectItem, b *binding, isVector bool) ([]string, []Expr) {
	var cols []string
	var exprs []Expr
	for _, item := range items {
		if _, ok := item.Expr.(Star); ok {
			if isVector {
				for _, name := range []string{vcID, vcClass, vcName, vcGeom} {
					cols = append(cols, name)
					exprs = append(exprs, ColumnRef{Name: name})
				}
				attrs := b.vt.NumericAttrs()
				sort.Strings(attrs)
				for _, a := range attrs {
					cols = append(cols, a)
					exprs = append(exprs, ColumnRef{Name: a})
				}
			} else {
				for _, f := range b.pc.Schema().Fields {
					cols = append(cols, f.Name)
					exprs = append(exprs, ColumnRef{Name: f.Name})
				}
			}
			continue
		}
		name := item.Alias
		if name == "" {
			name = item.Expr.exprString()
		}
		cols = append(cols, name)
		exprs = append(exprs, item.Expr)
	}
	return cols, exprs
}
