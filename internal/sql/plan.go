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
// pan and zoom, so everything above the scan layer is hoisted here. A plan
// is written once, by buildPlan, and only read after: runs share it without
// a lock, and a run that panics leaves nothing in it torn.
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
// Parameterisation contract: plans are SKELETONS over a literal vector.
// Everything literal-derived — the spatial region, the ColumnPred
// constants, the compiled nodes' constant slots, the vt class/geometry
// constants, the join distance, LIMIT — lives in a bound, a value bind
// derives from the plan's source conjuncts and a vector of the statement's
// shape: no parse, no classification, no kernel compile. If a new literal
// vector would change a conjunct's CLASSIFICATION (e.g. a constant
// sub-expression that now errors), bind reports failure and the caller
// replans from the AST — correctness never depends on the literals staying
// classification-equivalent. Epoch mismatches still replan, never rebind.
package sql

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
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

// vtStep is one planned vector-table conjunct; its constant, if it has
// one, is in the bound (vtConst).
type vtStep struct {
	kind vtStepKind
	expr Expr
}

// joinKind is the recognised spatial-join operator.
type joinKind uint8

const (
	joinNone    joinKind = iota
	joinDWithin          // ST_DWithin(vt.geom, pc point, d) → PointsNearFeaturesRun
	joinWithin           // containment variants → PointsInFeaturesRun
)

// queryPlan is the product of one planning pass, read-only after buildPlan:
// everything in it is fixed by the statement's shape or bound to table
// state no older than the captured epochs; what literals supply is a bound.
type queryPlan struct {
	b    *binding
	mode planMode

	// Epochs of the bound tables and the catalog generation when planning
	// started; see the package comment for the revalidation contract.
	pcEpoch uint64
	vtEpoch uint64
	catGen  uint64

	// slots is the compile-time paramStore bind copies per vector; nums
	// and keeps count the frame blocks the compiled nodes address.
	slots       paramStore
	nums, keeps int

	// Point-cloud phase (planPointCloud and the join tail). regionConj and
	// predConjs are the source conjuncts of the bound's region and
	// predicate constants.
	regionConj Expr
	predConjs  []Expr
	generic    []genericStep

	// Vector phase (planVector and the join head).
	vtSteps []vtStep

	// Join operator (joinConj is its source predicate).
	join     joinKind
	joinConj Expr

	// Output phase. grouped is the aggregate classification (groupby.go)
	// of a select list with a GROUP BY or an aggregate, nil for a
	// projection. proj parallels exprs: the compiled kernel of each
	// projected item, nil where the interpreter evaluates it. limitSelect
	// marks a shape whose LIMIT cuts the region selection.
	cols        []string
	exprs       []Expr
	proj        []numNode
	limitSelect bool
	grouped     *groupedPlan
}

// bound is what one literal vector contributes to runs of a plan: the
// vector, its paramStore and every constant derived from it. bind writes
// it once; runs share it through PreparedQuery.last and only read it.
type bound struct {
	plan     *queryPlan
	params   []Value // the caller's vector, read-only by contract
	slots    paramStore
	region   grid.Region         // nil when the plan has no regionConj
	preds    []engine.ColumnPred // parallel to plan.predConjs
	vt       []vtConst           // parallel to plan.vtSteps
	joinDist float64
	limit    int // -1 when absent

	// A navigation statement's slots and predicates fit these, so binding
	// its vector costs one allocation.
	numBuf  [8]float64
	predBuf [2]engine.ColumnPred
}

// vtConst is the constant of one vector-table step: the class of a
// vtStepClass, the geometry of a vtStepIntersects.
type vtConst struct {
	class string
	g     geom.Geometry
}

// PreparedQuery is a statement prepared for repeated execution: parse,
// binding, conjunct classification, kernel compilation and strategy choice
// all happened once, at Prepare time. RunContext executes the captured plan,
// replanning transparently when a bound table's epoch moved. It is safe for
// concurrent use without a lock: runs never write a plan or a bound, and
// each run's scratch is its own frame (lifecycle.go).
type PreparedQuery struct {
	ex   *Executor
	stmt *SelectStmt

	// init is the literal vector captured at Prepare time, which RunContext
	// presents; shape-cache hits (Executor.QueryContext) present others.
	init []Value

	// last is the most recently published bound, which names its plan: a
	// run whose literals equal its vector runs it as is. Racing publishers
	// each publish a valid bound.
	last atomic.Pointer[bound]
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
	return e.prepareBound(stmt, params, nil)
}

// prepareBound plans stmt against the literal vector params, tracing into
// ex.
func (e *Executor) prepareBound(stmt *SelectStmt, params []Value, ex *engine.Explain) (*PreparedQuery, error) {
	bd, err := e.buildPlan(stmt, params, ex)
	if err != nil {
		return nil, err
	}
	pq := &PreparedQuery{ex: e, stmt: stmt, init: params}
	pq.last.Store(bd)
	return pq, nil
}

// buildPlan runs one full planning pass over stmt, classifying its
// conjuncts under the literal vector params, and returns the new plan's
// bound of params. Every point-cloud column the plan binds becomes
// resident first, in one first touch traced into ex; a touch that fails
// is a planning error.
func (e *Executor) buildPlan(stmt *SelectStmt, params []Value, ex *engine.Explain) (*bound, error) {
	e.builds.Add(1)
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
		slots:  paramStore{nums: make([]float64, len(params)), params: len(params)},
	}
	c := &compiler{b: b, slots: &p.slots}
	// Capture epochs before reading any table state: if an append slips in
	// between the epoch read and kernel compilation, the recorded epoch is
	// already stale and the next Run replans — the safe direction.
	if b.pc != nil {
		p.pcEpoch = b.pc.Epoch()
		// Publishing a column bumps no epoch, so the capture stays valid.
		if err := b.pc.EnsureColumns(ex, pcColumns(b, stmt)...); err != nil {
			return nil, err
		}
	}
	if b.vt != nil {
		p.vtEpoch = b.vt.Epoch()
	}
	switch {
	case b.pc != nil && b.vt != nil:
		p.mode = planJoin
		if err := p.planJoinWhere(c, params, stmt.Where); err != nil {
			return nil, err
		}
	case b.pc != nil:
		p.mode = planPointCloud
		for _, conj := range splitConjuncts(stmt.Where) {
			p.addPCConjunct(c, params, conj, true)
		}
	case b.vt != nil:
		p.mode = planVector
		for _, conj := range splitConjuncts(stmt.Where) {
			p.addVTConjunct(params, conj)
		}
	default:
		return nil, fmt.Errorf("sql: no tables bound")
	}
	if err := p.planOutput(c, stmt); err != nil {
		return nil, err
	}
	p.nums, p.keeps = c.nums, c.keeps
	// A plain projection of region rows, with nothing filtering after the
	// selection and nothing reordering it, emits the selection's prefix:
	// the selector may stop at the LIMIT-th match. The shape survives every
	// rebind, so the decision is made once; the bound count is read per run.
	p.limitSelect = p.mode == planPointCloud && p.regionConj != nil &&
		len(p.predConjs) == 0 && len(p.generic) == 0 && p.grouped == nil && stmt.Order == nil
	return p.bind(stmt, params)
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

// errReclassified reports a literal vector that changes how the plan
// classified one of its conjuncts.
var errReclassified = errors.New("sql: new literals change the statement's plan")

// bind derives the bound of params, a literal vector of the plan's shape:
// every constant is re-derived from its source conjunct, the compiled nodes'
// slots are set from params — no parse, no classification, no kernel
// compile. It writes nothing but the new bound. An error means params
// change a conjunct's classification (a constant sub-expression that stops
// evaluating, a region that stops being constant) or bind no valid LIMIT;
// the caller then replans from the AST, which reports the error the
// statement has.
func (p *queryPlan) bind(stmt *SelectStmt, params []Value) (*bound, error) {
	if len(params) != p.slots.params {
		return nil, errReclassified
	}
	limit, err := resolveLimit(stmt, params)
	if err != nil {
		return nil, err
	}
	bd := &bound{plan: p, params: params, limit: limit}
	bd.slots = p.slots.bind(params, bd.numBuf[:0])
	if p.regionConj != nil {
		var ok bool
		if bd.region, ok = pcRegionFromConjunct(p.b, params, p.regionConj); !ok {
			return nil, errReclassified
		}
	}
	bd.preds = bd.predBuf[:0]
	for _, conj := range p.predConjs {
		pred, ok := pcPredFromConjunct(p.b, params, conj)
		if !ok {
			return nil, errReclassified
		}
		bd.preds = append(bd.preds, pred)
	}
	bd.vt = make([]vtConst, len(p.vtSteps)) // no allocation when empty
	for i, st := range p.vtSteps {
		ok := true
		switch st.kind {
		case vtStepClass:
			bd.vt[i].class, ok = vtClassEquality(p.b, params, st.expr)
		case vtStepIntersects:
			bd.vt[i].g, ok = vtIntersectsConst(p.b, params, st.expr)
		}
		if !ok {
			return nil, errReclassified
		}
	}
	if p.joinConj != nil {
		join, dist, err := classifyJoinPredicate(p.b, params, p.joinConj)
		if err != nil {
			return nil, err
		}
		if join != p.join {
			return nil, errReclassified
		}
		bd.joinDist = dist
	}
	return bd, nil
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

// addPCConjunct classifies one point-cloud conjunct under the literal
// vector params (bind derives its constants). allowRegion gates the single
// accelerable spatial region: plain point-cloud queries route their first
// recognised spatial conjunct through the imprint+grid path, while joins
// reach the point cloud through the join operator instead.
func (p *queryPlan) addPCConjunct(c *compiler, params []Value, conj Expr, allowRegion bool) {
	if allowRegion && p.regionConj == nil {
		if _, ok := pcRegionFromConjunct(p.b, params, conj); ok {
			p.regionConj = conj
			return
		}
	}
	if _, ok := pcPredFromConjunct(p.b, params, conj); ok {
		p.predConjs = append(p.predConjs, conj)
		return
	}
	cf, _ := c.filter(conj) // nil: the interpreter evaluates conj
	p.generic = append(p.generic, genericStep{cf: cf, expr: conj})
}

// addVTConjunct classifies one vector-table conjunct into its fast path.
func (p *queryPlan) addVTConjunct(params []Value, conj Expr) {
	kind := vtStepGeneric
	if _, ok := vtClassEquality(p.b, params, conj); ok {
		kind = vtStepClass
	} else if _, ok := vtIntersectsConst(p.b, params, conj); ok {
		kind = vtStepIntersects
	}
	p.vtSteps = append(p.vtSteps, vtStep{kind: kind, expr: conj})
}

// planJoinWhere splits join conjuncts by table usage and recognises the
// single cross-table spatial predicate.
func (p *queryPlan) planJoinWhere(c *compiler, params []Value, where Expr) error {
	var joinConj Expr
	for _, conj := range splitConjuncts(where) {
		u := usage(p.b, conj)
		switch {
		case u.pc && u.vt:
			if joinConj != nil {
				return fmt.Errorf("sql: at most one spatial join predicate supported")
			}
			joinConj = conj
		case u.vt:
			p.addVTConjunct(params, conj)
		default:
			p.addPCConjunct(c, params, conj, false)
		}
	}
	if joinConj == nil {
		return fmt.Errorf("sql: joins require a spatial predicate linking the tables (e.g. ST_DWithin)")
	}
	p.joinConj = joinConj
	join, _, err := classifyJoinPredicate(p.b, params, joinConj)
	p.join = join
	return err
}

// classifyJoinPredicate recognises the join predicate shape once, at
// prepare (or bind) time, so Run only dispatches on the resolved kind.
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

// planOutput classifies the SELECT list and hoists the output columns. A
// select list with aggregates and no GROUP BY is grouped by no key: one
// group over the whole selection.
func (p *queryPlan) planOutput(c *compiler, stmt *SelectStmt) error {
	grouped := len(stmt.GroupBy) > 0
	for _, item := range stmt.Items {
		_, agg := isAggregate(item.Expr)
		grouped = grouped || agg
	}
	if grouped {
		gp, err := planGrouped(p.b, stmt, p.mode)
		if err != nil {
			return err
		}
		p.grouped = gp
		p.cols = gp.cols
		return nil
	}
	p.cols, p.exprs = expandItems(stmt.Items, p.b, p.mode == planVector)
	p.proj = make([]numNode, len(p.exprs))
	for i, e := range p.exprs {
		// A projected item is evaluated for every output row, so a fallible
		// kernel (runtime-checked division) is as good as the interpreter.
		p.proj[i], _, _ = c.num(e)
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
	walkExpr(e, func(e Expr) {
		t, ok := e.(ColumnRef)
		if !ok {
			return
		}
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
		if b.pc != nil && b.pc.HasColumn(name) {
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
	})
	return u
}

// walkExpr calls fn on e and on every expression below it, parents first.
func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch t := e.(type) {
	case FuncCall:
		for _, a := range t.Args {
			walkExpr(a, fn)
		}
	case BinaryExpr:
		walkExpr(t.L, fn)
		walkExpr(t.R, fn)
	case NotExpr:
		walkExpr(t.E, fn)
	case BetweenExpr:
		walkExpr(t.Subject, fn)
		walkExpr(t.Lo, fn)
		walkExpr(t.Hi, fn)
	}
}

// pcColumns lists the point-cloud columns stmt can bind: every column a
// star expands to and every reference the point cloud resolves. buildPlan
// makes them resident in one first touch.
func pcColumns(b *binding, stmt *SelectStmt) []string {
	var names []string
	add := func(e Expr) {
		if t, ok := e.(ColumnRef); ok {
			if name := strings.ToLower(t.Name); b.isPCName(t.Table) && b.pc.HasColumn(name) {
				names = append(names, name)
			}
		}
	}
	for _, item := range stmt.Items {
		if _, star := item.Expr.(Star); star {
			for _, f := range b.pc.Schema().Fields {
				names = append(names, f.Name)
			}
		}
		walkExpr(item.Expr, add)
	}
	walkExpr(stmt.Where, add)
	for _, g := range stmt.GroupBy {
		walkExpr(g, add)
	}
	if stmt.Order != nil {
		walkExpr(stmt.Order.Expr, add)
	}
	return names
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
	if !b.pc.HasColumn(name) {
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
