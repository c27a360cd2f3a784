package sql

import (
	"fmt"
	"strings"

	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
)

// ValueKind tags runtime values.
type ValueKind uint8

// Runtime value kinds.
const (
	KindNull ValueKind = iota
	KindNum
	KindStr
	KindBool
	KindGeom
)

// Value is one runtime SQL value.
type Value struct {
	Kind ValueKind
	Num  float64
	Str  string
	Bool bool
	Geom geom.Geometry
}

// Num returns a numeric value.
func numVal(v float64) Value { return Value{Kind: KindNum, Num: v} }

// strVal returns a string value.
func strVal(s string) Value { return Value{Kind: KindStr, Str: s} }

// boolVal returns a boolean value.
func boolVal(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// geomVal returns a geometry value.
func geomVal(g geom.Geometry) Value { return Value{Kind: KindGeom, Geom: g} }

// String renders the value for result display.
func (v Value) String() string {
	switch v.Kind {
	case KindNum:
		return trimFloat(v.Num)
	case KindStr:
		return v.Str
	case KindBool:
		if v.Bool {
			return "true"
		}
		return "false"
	case KindGeom:
		return v.Geom.WKT()
	default:
		return "NULL"
	}
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

// truthy interprets a value as a predicate result.
func (v Value) truthy() bool {
	switch v.Kind {
	case KindBool:
		return v.Bool
	case KindNum:
		return v.Num != 0
	default:
		return false
	}
}

// binding maps FROM aliases onto engine tables. At most one point cloud and
// one vector table participate (the demo's join shape).
type binding struct {
	pc      *engine.PointCloud
	pcNames []string // alias and table name
	vt      *engine.VectorTable
	vtNames []string
}

// isPCName reports whether qualifier names the point cloud (empty matches).
func (b *binding) isPCName(q string) bool {
	if b.pc == nil {
		return false
	}
	if q == "" {
		return true
	}
	for _, n := range b.pcNames {
		if strings.EqualFold(n, q) {
			return true
		}
	}
	return false
}

func (b *binding) isVTName(q string) bool {
	if b.vt == nil {
		return false
	}
	if q == "" {
		return true
	}
	for _, n := range b.vtNames {
		if strings.EqualFold(n, q) {
			return true
		}
	}
	return false
}

// evalCtx is the row context of the generic evaluator. Row indices of -1
// mean "no current row" for that table. ps is the statement's bound literal
// vector; ParamRef nodes read it, so a rebound plan's interpreter steps see
// the new constants without any AST rewrite.
type evalCtx struct {
	b     *binding
	ps    []Value
	pcRow int
	vtRow int
}

// vector table pseudo-columns.
const (
	vcID    = "id"
	vcClass = "class"
	vcName  = "name"
	vcGeom  = "geom"
)

// evalExpr evaluates an expression in the row context.
func evalExpr(ctx *evalCtx, e Expr) (Value, error) {
	switch t := e.(type) {
	case NumberLit:
		return numVal(t.Value), nil
	case StringLit:
		return strVal(t.Value), nil
	case BoolLit:
		return boolVal(t.Value), nil
	case ParamRef:
		if t.Index >= 0 && t.Index < len(ctx.ps) {
			return ctx.ps[t.Index], nil
		}
		return Value{}, fmt.Errorf("sql: unbound parameter $%d", t.Index+1)
	case Star:
		return Value{}, fmt.Errorf("sql: '*' is only valid in SELECT list or count(*)")
	case ColumnRef:
		return evalColumn(ctx, t)
	case FuncCall:
		return evalFunc(ctx, t)
	case NotExpr:
		v, err := evalExpr(ctx, t.E)
		if err != nil {
			return Value{}, err
		}
		return boolVal(!v.truthy()), nil
	case BetweenExpr:
		s, err := evalExpr(ctx, t.Subject)
		if err != nil {
			return Value{}, err
		}
		lo, err := evalExpr(ctx, t.Lo)
		if err != nil {
			return Value{}, err
		}
		hi, err := evalExpr(ctx, t.Hi)
		if err != nil {
			return Value{}, err
		}
		if s.Kind != KindNum || lo.Kind != KindNum || hi.Kind != KindNum {
			return Value{}, fmt.Errorf("sql: BETWEEN needs numeric operands")
		}
		return boolVal(s.Num >= lo.Num && s.Num <= hi.Num), nil
	case BinaryExpr:
		return evalBinary(ctx, t)
	default:
		return Value{}, fmt.Errorf("sql: cannot evaluate %T", e)
	}
}

func evalColumn(ctx *evalCtx, c ColumnRef) (Value, error) {
	b := ctx.b
	name := strings.ToLower(c.Name)
	// Point cloud columns take precedence for unqualified refs.
	if b.isPCName(c.Table) && ctx.pcRow >= 0 {
		if col := b.pc.Column(name); col != nil {
			return numVal(col.Value(ctx.pcRow)), nil
		}
	}
	if b.isVTName(c.Table) && ctx.vtRow >= 0 {
		switch name {
		case vcID:
			return numVal(float64(b.vt.ID(ctx.vtRow))), nil
		case vcClass:
			return strVal(b.vt.Class(ctx.vtRow)), nil
		case vcName:
			return strVal(b.vt.Name(ctx.vtRow)), nil
		case vcGeom:
			return geomVal(b.vt.Geometry(ctx.vtRow)), nil
		default:
			for _, attr := range b.vt.NumericAttrs() {
				if strings.EqualFold(attr, name) {
					return numVal(b.vt.Numeric(attr, ctx.vtRow)), nil
				}
			}
		}
	}
	return Value{}, fmt.Errorf("sql: unknown column %q", c.exprString())
}

func evalBinary(ctx *evalCtx, e BinaryExpr) (Value, error) {
	switch e.Op {
	case "AND":
		l, err := evalExpr(ctx, e.L)
		if err != nil {
			return Value{}, err
		}
		if !l.truthy() {
			return boolVal(false), nil
		}
		r, err := evalExpr(ctx, e.R)
		if err != nil {
			return Value{}, err
		}
		return boolVal(r.truthy()), nil
	case "OR":
		l, err := evalExpr(ctx, e.L)
		if err != nil {
			return Value{}, err
		}
		if l.truthy() {
			return boolVal(true), nil
		}
		r, err := evalExpr(ctx, e.R)
		if err != nil {
			return Value{}, err
		}
		return boolVal(r.truthy()), nil
	}
	l, err := evalExpr(ctx, e.L)
	if err != nil {
		return Value{}, err
	}
	r, err := evalExpr(ctx, e.R)
	if err != nil {
		return Value{}, err
	}
	switch e.Op {
	case "+", "-", "*", "/", "%":
		if l.Kind != KindNum || r.Kind != KindNum {
			return Value{}, fmt.Errorf("sql: arithmetic needs numbers")
		}
		switch e.Op {
		case "+":
			return numVal(l.Num + r.Num), nil
		case "-":
			return numVal(l.Num - r.Num), nil
		case "*":
			return numVal(l.Num * r.Num), nil
		case "/":
			if r.Num == 0 {
				return Value{}, fmt.Errorf("sql: division by zero")
			}
			return numVal(l.Num / r.Num), nil
		default:
			// Modulo runs in the int64 domain, so the zero check must too:
			// a fractional denominator like 0.5 truncates to 0 and would
			// otherwise panic the process instead of erroring.
			if int64(r.Num) == 0 {
				return Value{}, fmt.Errorf("sql: modulo by zero")
			}
			return numVal(float64(int64(l.Num) % int64(r.Num))), nil
		}
	case "=", "<>", "<", "<=", ">", ">=":
		return compareValues(l, r, e.Op)
	default:
		return Value{}, fmt.Errorf("sql: unknown operator %q", e.Op)
	}
}

func compareValues(l, r Value, op string) (Value, error) {
	if l.Kind == KindStr && r.Kind == KindStr {
		c := strings.Compare(l.Str, r.Str)
		return boolVal(cmpHolds(c, op)), nil
	}
	if l.Kind == KindNum && r.Kind == KindNum {
		c := 0
		if l.Num < r.Num {
			c = -1
		} else if l.Num > r.Num {
			c = 1
		}
		return boolVal(cmpHolds(c, op)), nil
	}
	if l.Kind == KindBool && r.Kind == KindBool {
		if op == "=" {
			return boolVal(l.Bool == r.Bool), nil
		}
		if op == "<>" {
			return boolVal(l.Bool != r.Bool), nil
		}
	}
	return Value{}, fmt.Errorf("sql: cannot compare %v and %v with %s", l.Kind, r.Kind, op)
}

func cmpHolds(c int, op string) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	default:
		return false
	}
}

// evalFunc dispatches scalar and spatial functions. Aggregates are handled
// by the executor before evaluation reaches here.
func evalFunc(ctx *evalCtx, f FuncCall) (Value, error) {
	var small [4]Value // up to four arguments stay off the heap (every bind's ST_MakeEnvelope)
	argv := small[:0]
	for _, a := range f.Args {
		v, err := evalExpr(ctx, a)
		if err != nil {
			return Value{}, err
		}
		argv = append(argv, v)
	}
	switch f.Name {
	case "st_makeenvelope":
		if err := wantArgs(f, argv, KindNum, KindNum, KindNum, KindNum); err != nil {
			return Value{}, err
		}
		env := geom.NewEnvelope(argv[0].Num, argv[1].Num, argv[2].Num, argv[3].Num)
		return geomVal(env.ToPolygon()), nil
	case "st_geomfromtext":
		if err := wantArgs(f, argv, KindStr); err != nil {
			return Value{}, err
		}
		g, err := geom.ParseWKT(argv[0].Str)
		if err != nil {
			return Value{}, fmt.Errorf("sql: %s: %w", f.Name, err)
		}
		return geomVal(g), nil
	case "st_point":
		if err := wantArgs(f, argv, KindNum, KindNum); err != nil {
			return Value{}, err
		}
		return geomVal(geom.Point{X: argv[0].Num, Y: argv[1].Num}), nil
	case "st_x":
		if err := wantArgs(f, argv, KindGeom); err != nil {
			return Value{}, err
		}
		p, ok := argv[0].Geom.(geom.Point)
		if !ok {
			return Value{}, fmt.Errorf("sql: st_x needs a point")
		}
		return numVal(p.X), nil
	case "st_y":
		if err := wantArgs(f, argv, KindGeom); err != nil {
			return Value{}, err
		}
		p, ok := argv[0].Geom.(geom.Point)
		if !ok {
			return Value{}, fmt.Errorf("sql: st_y needs a point")
		}
		return numVal(p.Y), nil
	case "st_area":
		if err := wantArgs(f, argv, KindGeom); err != nil {
			return Value{}, err
		}
		return numVal(geom.Area(argv[0].Geom)), nil
	case "st_length":
		if err := wantArgs(f, argv, KindGeom); err != nil {
			return Value{}, err
		}
		return numVal(geom.Length(argv[0].Geom)), nil
	case "st_centroid":
		if err := wantArgs(f, argv, KindGeom); err != nil {
			return Value{}, err
		}
		return geomVal(geom.Centroid(argv[0].Geom)), nil
	case "st_envelope":
		if err := wantArgs(f, argv, KindGeom); err != nil {
			return Value{}, err
		}
		return geomVal(argv[0].Geom.Envelope().ToPolygon()), nil
	case "st_convexhull":
		if err := wantArgs(f, argv, KindGeom); err != nil {
			return Value{}, err
		}
		return geomVal(geom.ConvexHull(argv[0].Geom)), nil
	case "st_astext":
		if err := wantArgs(f, argv, KindGeom); err != nil {
			return Value{}, err
		}
		return strVal(argv[0].Geom.WKT()), nil
	case "st_contains", "st_covers":
		if err := wantArgs(f, argv, KindGeom, KindGeom); err != nil {
			return Value{}, err
		}
		p, ok := argv[1].Geom.(geom.Point)
		if !ok {
			return Value{}, fmt.Errorf("sql: %s supports point containment only", f.Name)
		}
		return boolVal(geom.ContainsPoint(argv[0].Geom, p.X, p.Y)), nil
	case "st_within":
		if err := wantArgs(f, argv, KindGeom, KindGeom); err != nil {
			return Value{}, err
		}
		p, ok := argv[0].Geom.(geom.Point)
		if !ok {
			return Value{}, fmt.Errorf("sql: st_within supports point subjects only")
		}
		return boolVal(geom.ContainsPoint(argv[1].Geom, p.X, p.Y)), nil
	case "st_intersects":
		if err := wantArgs(f, argv, KindGeom, KindGeom); err != nil {
			return Value{}, err
		}
		return boolVal(geom.Intersects(argv[0].Geom, argv[1].Geom)), nil
	case "st_dwithin":
		if err := wantArgs(f, argv, KindGeom, KindGeom, KindNum); err != nil {
			return Value{}, err
		}
		// grid.ValidDistance is the single validity rule for distance
		// thresholds, shared with the accelerated BufferRegion path so the
		// scalar and region forms of the same query cannot diverge.
		d := argv[2].Num
		if !grid.ValidDistance(d) {
			return boolVal(false), nil
		}
		return boolVal(geom.GeometryDistance(argv[0].Geom, argv[1].Geom) <= d), nil
	case "st_distance":
		if err := wantArgs(f, argv, KindGeom, KindGeom); err != nil {
			return Value{}, err
		}
		return numVal(geom.GeometryDistance(argv[0].Geom, argv[1].Geom)), nil
	case "abs":
		if err := wantArgs(f, argv, KindNum); err != nil {
			return Value{}, err
		}
		if argv[0].Num < 0 {
			return numVal(-argv[0].Num), nil
		}
		return argv[0], nil
	default:
		return Value{}, fmt.Errorf("sql: unknown function %q", f.Name)
	}
}

func wantArgs(f FuncCall, argv []Value, kinds ...ValueKind) error {
	if len(argv) != len(kinds) {
		return fmt.Errorf("sql: %s expects %d arguments, got %d", f.Name, len(kinds), len(argv))
	}
	for i, k := range kinds {
		if argv[i].Kind != k {
			return fmt.Errorf("sql: %s argument %d has wrong type", f.Name, i+1)
		}
	}
	return nil
}

// aggFuncs maps aggregate names to engine functions.
var aggFuncs = map[string]engine.AggFunc{
	"count": engine.AggCount,
	"sum":   engine.AggSum,
	"avg":   engine.AggAvg,
	"min":   engine.AggMin,
	"max":   engine.AggMax,
}

// isAggregate reports whether e is a top-level aggregate call.
func isAggregate(e Expr) (FuncCall, bool) {
	f, ok := e.(FuncCall)
	if !ok {
		return FuncCall{}, false
	}
	_, ok = aggFuncs[f.Name]
	return f, ok
}
