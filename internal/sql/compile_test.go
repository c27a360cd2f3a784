package sql

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gisnav/internal/engine"
)

// whereExpr parses src as a WHERE clause over the ahn2 point cloud.
func whereExpr(t *testing.T, src string) Expr {
	t.Helper()
	stmt, err := Parse("SELECT count(*) FROM ahn2 WHERE " + src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return stmt.Where
}

// interpretFilter is the reference: the row-at-a-time interpreter loop
// genericFilterPC uses for non-compilable shapes.
func interpretFilter(b *binding, e Expr, rows []int) ([]int, error) {
	var out []int
	ctx := &evalCtx{b: b, vtRow: -1}
	for _, r := range rows {
		ctx.pcRow = r
		v, err := evalExpr(ctx, e)
		if err != nil {
			return nil, err
		}
		if v.truthy() {
			out = append(out, r)
		}
	}
	return out, nil
}

// runCompiled compiles e and applies it to a copy of rows.
func runCompiled(t *testing.T, b *binding, e Expr, rows []int) ([]int, error, bool) {
	t.Helper()
	c := &compiler{b: b, slots: &paramStore{}}
	cf, ok := c.filter(e)
	if !ok {
		return nil, nil, false
	}
	assertConstFree(t, cf)
	var fr frame
	fr.fit(c.nums, c.keeps)
	cp := append([]int(nil), rows...)
	got, err := cf.apply(nil, &fr, c.slots, cp)
	return got, err, true
}

// assertSameFilter checks compiled and interpreted agree on rows and errors.
func assertSameFilter(t *testing.T, b *binding, src string, rows []int, wantCompiled bool) {
	t.Helper()
	e := whereExpr(t, src)
	got, cerr, ok := runCompiled(t, b, e, rows)
	if ok != wantCompiled {
		t.Fatalf("%q: compiled=%v, want %v", src, ok, wantCompiled)
	}
	if !ok {
		return
	}
	want, ierr := interpretFilter(b, e, rows)
	if (cerr != nil) != (ierr != nil) {
		t.Fatalf("%q: compiled err %v, interpreter err %v", src, cerr, ierr)
	}
	if cerr != nil {
		if cerr.Error() != ierr.Error() {
			t.Fatalf("%q: error text %q vs %q", src, cerr, ierr)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%q: compiled kept %d rows, interpreter %d", src, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%q: row %d: compiled %d, interpreter %d", src, i, got[i], want[i])
		}
	}
}

func pcBinding(pc *engine.PointCloud) *binding {
	return &binding{pc: pc, pcNames: []string{"ahn2"}}
}

func allPCRows(pc *engine.PointCloud) []int {
	rows := make([]int, pc.Len())
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// TestCompiledFilterMatchesInterpreter runs the compiler over the conjunct
// shapes it claims to cover and pins them to the interpreter, on a row set
// large enough to exercise multiple chunks.
func TestCompiledFilterMatchesInterpreter(t *testing.T) {
	_, pc, _, _ := testDB(t)
	b := pcBinding(pc)
	rows := allPCRows(pc)
	if len(rows) <= exprChunk {
		t.Fatalf("test cloud has %d rows; need more than one chunk (%d)", len(rows), exprChunk)
	}

	compiled := []string{
		"z - 2*intensity > 10",
		"x + y BETWEEN 500 AND 2500",
		"z + 0.5 <= 25",
		"abs(scan_angle) < 5",
		"intensity % 7 = 3",
		"intensity / 100 >= 5",
		"NOT (classification = 2)",
		"classification = 2 OR classification = 6",
		"z > 10 AND intensity < 600",
		"x * x + y * y < 1000000",
		"classification - 2",  // bare numeric truthiness
		"z / intensity < 0.1", // runtime-checked division
		"2 > 1",               // constant conjunct
		"z = z",               // trivially true, NaN-sensitive shape
	}
	for _, src := range compiled {
		assertSameFilter(t, b, src, rows, true)
	}

	interpreted := []string{
		"st_x(st_point(x, y)) > 500",                        // function call
		"classification = 2 OR z / 0 > 1",                   // fallible operand under OR
		"z > 1 AND intensity % (intensity - intensity) = 0", // fallible under AND
		"nosuchcol + 1 > 0",                                 // unknown column
	}
	for _, src := range interpreted {
		assertSameFilter(t, b, src, rows, false)
	}
}

// TestCompiledFilterNaNSemantics pins the interpreter's three-way-compare
// quirk: NaN compares "equal" to everything, so `z = 0` keeps NaN rows and
// `z <> 0` drops them; BETWEEN uses plain float compares, so NaN fails.
func TestCompiledFilterNaNSemantics(t *testing.T) {
	_, pc, _, _ := testDB(t)
	zs := pc.Z()
	zs[0], zs[1], zs[2] = math.NaN(), math.NaN(), math.NaN()
	pc.InvalidateIndexes()
	b := pcBinding(pc)
	rows := allPCRows(pc)

	for _, src := range []string{
		"z = 123456", "z <> 123456", "z < 0", "z >= 0",
		"z BETWEEN -1000 AND 1000",
		"z - z = 0", // NaN - NaN = NaN, still "equal" to 0 under three-way
		"abs(z) > 1",
	} {
		assertSameFilter(t, b, src, rows, true)
	}

	// Explicit spot check so the quirk is pinned even if the interpreter
	// changes: row 0 (z = NaN) must survive `z = 123456`.
	got, _, ok := runCompiled(t, b, whereExpr(t, "z = 123456"), rows)
	if !ok {
		t.Fatal("z = 123456 should compile")
	}
	if len(got) == 0 || got[0] != 0 {
		t.Fatalf("NaN row should compare equal under =, got %v", got[:min(len(got), 5)])
	}
}

// TestCompiledFilterRandomized cross-checks randomly generated arithmetic
// comparisons against the interpreter.
func TestCompiledFilterRandomized(t *testing.T) {
	_, pc, _, _ := testDB(t)
	b := pcBinding(pc)
	rows := allPCRows(pc)[:3000] // a few chunks; keep the interpreter arm fast
	rng := rand.New(rand.NewSource(7))

	cols := []string{"x", "y", "z", "intensity", "classification", "scan_angle", "gps_time"}
	var genNum func(depth int) string
	genNum = func(depth int) string {
		if depth <= 0 || rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				return cols[rng.Intn(len(cols))]
			}
			return fmt.Sprintf("%g", math.Round(rng.Float64()*200-100))
		}
		ops := []string{"+", "-", "*"}
		return "(" + genNum(depth-1) + " " + ops[rng.Intn(len(ops))] + " " + genNum(depth-1) + ")"
	}
	cmps := []string{"=", "<>", "<", "<=", ">", ">="}

	for i := 0; i < 200; i++ {
		var src string
		switch rng.Intn(3) {
		case 0:
			src = genNum(2) + " " + cmps[rng.Intn(len(cmps))] + " " + genNum(2)
		case 1:
			src = genNum(2) + " BETWEEN " + genNum(1) + " AND " + genNum(1)
		default:
			src = "NOT (" + genNum(2) + " " + cmps[rng.Intn(len(cmps))] + " " + genNum(1) + ")"
		}
		assertSameFilter(t, b, src, rows, true)
	}
}

// TestCompiledFilterInQueryExplain verifies end-to-end execution routes a
// compilable generic conjunct through the vector kernel (visible in the
// trace) and produces the same count as a forced-interpreter equivalent.
func TestCompiledFilterInQueryExplain(t *testing.T) {
	e, _, _, _ := testDB(t)
	res := mustQuery(t, e, "SELECT count(*) FROM ahn2 WHERE z - 2*intensity > -500")
	var sawCompiled bool
	for _, s := range res.Explain.Steps {
		if s.Op == "filter.compiled" {
			sawCompiled = true
		}
		if s.Op == "filter.generic" {
			t.Fatalf("compilable conjunct fell back to the interpreter: %+v", s)
		}
	}
	if !sawCompiled {
		t.Fatalf("no filter.compiled step in trace: %+v", res.Explain.Steps)
	}

	// st_x(st_point(x,y)) forces the interpreter on an equivalent predicate.
	slow := mustQuery(t, e, "SELECT count(*) FROM ahn2 WHERE st_x(st_point(z - 2*intensity, 0)) > -500")
	if res.Rows()[0][0].Num != slow.Rows()[0][0].Num {
		t.Fatalf("compiled count %v != interpreter count %v", res.Rows()[0][0].Num, slow.Rows()[0][0].Num)
	}
}

// TestCompiledDivisionByZeroError pins the runtime error contract.
func TestCompiledDivisionByZeroError(t *testing.T) {
	e, _, _, _ := testDB(t)
	_, err := e.QueryContext(context.Background(), "SELECT count(*) FROM ahn2 WHERE z / (classification - classification) > 1")
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("want division-by-zero error, got %v", err)
	}
	_, err = e.QueryContext(context.Background(), "SELECT count(*) FROM ahn2 WHERE intensity % (classification - classification) = 1")
	if err == nil || !strings.Contains(err.Error(), "modulo by zero") {
		t.Fatalf("want modulo-by-zero error, got %v", err)
	}
}

// TestModuloFractionalDenominator: a denominator that is non-zero as a
// float but truncates to 0 in the int64 domain used by % must raise the
// modulo-by-zero error, not panic the process with an integer divide —
// in the compiled kernel, the interpreter, and a runtime-evaluated
// denominator alike.
func TestModuloFractionalDenominator(t *testing.T) {
	e, pc, _, _ := testDB(t)
	for _, q := range []string{
		// Constant fractional denominator (compiled path).
		"SELECT count(*) FROM ahn2 WHERE intensity % 0.5 = 0",
		// Interpreter path (function call blocks compilation).
		"SELECT count(*) FROM ahn2 WHERE st_x(st_point(intensity, 0)) % 0.5 = 0",
		// Runtime-evaluated fractional denominator.
		"SELECT count(*) FROM ahn2 WHERE intensity % (classification / 1000) = 0",
	} {
		_, err := e.QueryContext(context.Background(), q)
		if err == nil || !strings.Contains(err.Error(), "modulo by zero") {
			t.Fatalf("%s: want modulo-by-zero error, got %v", q, err)
		}
	}

	// Compiled and interpreted still agree on a fractional denominator
	// that survives truncation.
	b := pcBinding(pc)
	assertSameFilter(t, b, "intensity % 2.5 = 0", allPCRows(pc), true)
}

// TestAggregateNaNParityAcrossRoutes pins min/max semantics over
// NaN-polluted data to be identical whether the aggregate routes through
// the engine's typed kernels (bare column) or the interpreter fallback
// (any other expression shape): NaN values are skipped by both.
func TestAggregateNaNParityAcrossRoutes(t *testing.T) {
	e, pc, _, _ := testDB(t)
	zs := pc.Z()
	zs[0], zs[1] = math.NaN(), math.NaN()
	pc.InvalidateIndexes()

	for _, fn := range []string{"min", "max"} {
		kernel := mustQuery(t, e, "SELECT "+fn+"(z) FROM ahn2")
		interp := mustQuery(t, e, "SELECT "+fn+"(z + 0) FROM ahn2")
		k, i := kernel.Rows()[0][0].Num, interp.Rows()[0][0].Num
		if k != i && !(math.IsNaN(k) && math.IsNaN(i)) {
			t.Fatalf("%s(z) = %v via kernel but %v via interpreter on NaN-polluted data", fn, k, i)
		}
		if math.IsNaN(k) || math.IsInf(k, 0) {
			t.Fatalf("%s(z) = %v; NaN rows should be skipped, not poison the result", fn, k)
		}
	}
}

// TestCompiledProjectionMatchesInterpreter is the projection's differential
// property: every SELECT item compileNum takes must fill its float vector
// with exactly the bits the row-at-a-time interpreter boxes for the same
// rows — NaN, ±Inf, −0 and the division/modulo errors included — and items
// it declines must land in Value vectors beside them. The interpreter arm
// is the same plan with its compiled kernels removed.
func TestCompiledProjectionMatchesInterpreter(t *testing.T) {
	e, _ := nanDB(t, 5000) // > 4 expression chunks; NaN z, NaN/−0/+Inf gps_time
	for _, tc := range []struct {
		list     string
		compiled []bool // per item: expected to compile; nil = every item
	}{
		{"*", nil},
		{"x, y, z, classification, intensity", []bool{true, true, true, true, true}},
		{"z - 2*intensity, abs(z - 40) / 4, gps_time * 0, 7, intensity % 7", []bool{true, true, true, true, true}},
		{"z * 1e308 * 1e308, 0 - z * 1e308 * 1e308, gps_time - gps_time", []bool{true, true, true}},
		{"z, st_x(st_point(z, 0)), st_point(x, y), x > 500, 'k'", []bool{true, false, false, false, false}},
		{"z / (classification - 2)", []bool{true}},
		{"intensity % (classification - 2)", []bool{true}},
		{"z, intensity % 0.5", []bool{true, true}},
	} {
		q := "SELECT " + tc.list + " FROM cloud WHERE x < 700"
		pq, err := e.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		compiled := tc.compiled
		if compiled == nil {
			compiled = make([]bool, len(planOf(pq).proj))
			for i := range compiled {
				compiled[i] = true
			}
		}
		if len(planOf(pq).proj) != len(compiled) {
			t.Fatalf("%s: %d projected items, want %d", q, len(planOf(pq).proj), len(compiled))
		}
		for i, want := range compiled {
			if (planOf(pq).proj[i] != nil) != want {
				t.Fatalf("%s: item %d compiled = %v, want %v", q, i, !want, want)
			}
		}
		got, gerr := pq.RunContext(context.Background())
		clear(planOf(pq).proj) // every item through the interpreter
		want, werr := pq.RunContext(context.Background())
		if (gerr != nil) != (werr != nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("%s: compiled err %v, interpreter err %v", q, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		if got.Len() < 3*exprChunk || got.Len() != want.Len() {
			t.Fatalf("%s: %d rows compiled, %d interpreted; want the same, over 3 chunks", q, got.Len(), want.Len())
		}
		for j := range got.Cols {
			if numeric := got.Cols[j].Nums != nil; numeric != compiled[j] {
				t.Fatalf("%s: column %d numeric vector = %v, want %v", q, j, numeric, compiled[j])
			}
			for i := 0; i < got.Len(); i++ {
				g, w := got.Cols[j].Value(i), want.Cols[j].Value(i)
				if g.Kind != w.Kind || math.Float64bits(g.Num) != math.Float64bits(w.Num) || g.String() != w.String() {
					t.Fatalf("%s: row %d col %d: compiled %v, interpreter %v", q, i, j, g, w)
				}
			}
		}
	}
}

// walkConstFree fails t if v, followed through pointers, interface values,
// arrays, struct fields and the elements of slices of those, holds a field
// that could carry a constant or a buffer: a float, a 64-bit integer, a
// func, an interface other than numNode and predNode, or a slice other
// than gather's column array. Slot and block indices, operators and flags
// are allowed. Every node type it passes is recorded in seen.
func walkConstFree(t *testing.T, v reflect.Value, path string, seen map[reflect.Type]bool) {
	t.Helper()
	switch v.Kind() {
	case reflect.Float32, reflect.Float64, reflect.Int64, reflect.Uint64, reflect.Func:
		t.Errorf("%s: %s field can hold a constant", path, v.Type())
	case reflect.Interface:
		if v.Type() != reflect.TypeFor[numNode]() && v.Type() != reflect.TypeFor[predNode]() {
			t.Errorf("%s: interface %s is not a node interface", path, v.Type())
		} else if !v.IsNil() {
			seen[v.Elem().Type()] = true
			walkConstFree(t, v.Elem(), path+"."+v.Elem().Type().String(), seen)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			walkConstFree(t, v.Elem(), path, seen)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			f := v.Type().Field(i)
			if f.Type.Kind() == reflect.Slice && !strings.HasPrefix(v.Type().Name(), "gather[") {
				t.Errorf("%s.%s: %s field can hold a buffer", path, f.Name, f.Type)
				continue
			}
			walkConstFree(t, v.Field(i), path+"."+f.Name, seen)
		}
	case reflect.Array:
		for i := range v.Len() {
			walkConstFree(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen)
		}
	case reflect.Slice:
		switch v.Type().Elem().Kind() {
		case reflect.Interface, reflect.Pointer, reflect.Struct, reflect.Array, reflect.Func:
			for i := range v.Len() {
				walkConstFree(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen)
			}
		}
	}
}

// assertConstFree walks one compiled tree (a *compiledFilter or a plan's
// projection nodes) with walkConstFree.
func assertConstFree(t *testing.T, tree any) {
	t.Helper()
	walkConstFree(t, reflect.ValueOf(tree), fmt.Sprintf("%T", tree), map[reflect.Type]bool{})
}

// TestCompiledNodesHoldNoConstant is the constant-slot invariant of the
// compiled arm: trees using every node type, filters and projections,
// literals and parameters, reach no field that can hold a constant or a
// scratch buffer, so the paramStore a run is handed reaches every constant
// the tree reads and the run's frame holds everything it writes.
// runCompiled and FuzzCompiledExpr walk their trees too.
func TestCompiledNodesHoldNoConstant(t *testing.T) {
	e, pc, _, _ := testDB(t)
	b := pcBinding(pc)
	seen := map[reflect.Type]bool{}
	for _, src := range []string{
		"z - 2*intensity > 10 AND NOT (x + y BETWEEN 500 AND 2500)",
		"abs(scan_angle) % 7 / 2 = 3 OR TRUE",
		"classification * gps_time - 2",
	} {
		cf, ok := (&compiler{b: b, slots: &paramStore{}}).filter(whereExpr(t, src))
		if !ok {
			t.Fatalf("%q did not compile", src)
		}
		walkConstFree(t, reflect.ValueOf(cf), src, seen)
	}
	pq, err := e.Prepare("SELECT x, z - 2*intensity, abs(scan_angle) / 3, intensity % 7 FROM ahn2 WHERE z * 2 > 1 AND x + y <= 900")
	if err != nil {
		t.Fatal(err)
	}
	walkConstFree(t, reflect.ValueOf(planOf(pq).proj), "proj", seen)
	for _, g := range planOf(pq).generic {
		if g.cf == nil {
			t.Fatalf("%s did not compile", g.expr.exprString())
		}
		walkConstFree(t, reflect.ValueOf(g.cf), g.expr.exprString(), seen)
	}
	for _, n := range []any{
		&constNode{}, &gather[float64]{}, &gather[uint8]{}, &gather[uint16]{}, &gather[int32]{}, &absNode{}, &arithNode{},
		&cmpNode{}, &betweenNode{}, &logicNode{}, &notNode{}, &boolNode{}, &truthyNode{},
	} {
		if !seen[reflect.TypeOf(n)] {
			t.Errorf("no tree used %T; the walk does not cover the node set", n)
		}
	}
}
