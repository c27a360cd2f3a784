// Expression compiler for generic point-cloud WHERE conjuncts and projected
// items. Conjuncts the planner cannot hand to the engine's predicate
// kernels — arithmetic comparisons like `z - 2*intensity > 10` or
// `x + y BETWEEN 100 AND 900` — and numeric SELECT items compile into a tree
// of nodes that runs chunk-at-a-time: each numeric node evaluates
// operator-at-a-time into a float64 block buffer, then a monomorphic
// compare loop writes the verdicts — the same execution style the engine's
// ColumnPred kernels use (§2.1.1), instead of the row-at-a-time
// interpreter (evalExpr).
//
// The node set is closed: constNode, gather, absNode and arithNode compute
// numbers (numNode); cmpNode, betweenNode, logicNode, notNode, boolNode and
// truthyNode compute verdicts (predNode).
//
// Semantics contract: a compiled conjunct must be indistinguishable from
// the interpreter, including its quirks —
//   - comparisons go through the same three-way compare (compareValues),
//     under which NaN is *equal* to everything (neither < nor > holds);
//   - BETWEEN uses plain float comparisons (NaN fails);
//   - truthiness of a bare numeric conjunct is v != 0 (NaN is truthy);
//   - `/` and `%` by zero abort the query with the interpreter's error. To
//     preserve the interpreter's AND/OR short-circuiting, which can skip an
//     erroring operand entirely, subexpressions that can fail are only
//     compiled where the interpreter would evaluate them unconditionally
//     (comparison operands, BETWEEN operands, NOT) — fallible operands
//     under a compiled AND/OR send the whole conjunct back to the
//     interpreter.
//
// The interpreter remains the arm for the shapes no node covers: string or
// geometry operands, function calls other than abs(), vector-table columns.
//
// Constant-slot contract (the SQL-layer mirror of the engine kernels'
// KernelArgs), held by the types: no node has a field that can hold a
// constant. A ParamRef or NumberLit compiles to a constNode, which holds the
// index of its slot in the plan's paramStore; every evaluation receives the
// store as an argument. A shape-cache rebind refreshes the store's
// parameter slots in place, so the compiled tree serves the new literal
// vector without recompiling. TestCompiledNodesHoldNoConstant walks every
// tree the compile tests build with reflect and fails on any float, 64-bit
// integer or func field. A ParamRef is never "provably non-zero", so a
// parameterised division/modulo denominator is fallible for the AND/OR
// rule above — a rebind could make it zero.
package sql

import (
	"fmt"
	"math"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
)

// paramStore is the constant-slot array a plan's compiled nodes read their
// constants from: the ParamRef slots first, refreshed in place by every
// rebind (under the statement lock), then the NumberLit slots compile
// appends, which no rebind touches. Non-numeric parameters mirror as NaN —
// a compiled node never reads them (compileNum rejects non-numeric
// ParamRefs at compile time).
type paramStore struct {
	nums   []float64
	params int // parameter slots at the front of nums
}

// lit appends a literal constant and returns its slot index.
func (s *paramStore) lit(v float64) int {
	s.nums = append(s.nums, v)
	return len(s.nums) - 1
}

// newParamStore mirrors params into a fresh slot array.
func newParamStore(params []Value) *paramStore {
	s := &paramStore{nums: make([]float64, len(params)), params: len(params)}
	s.refresh(params)
	return s
}

// refresh re-mirrors params into the existing slots (rebind path).
func (s *paramStore) refresh(params []Value) {
	for i, v := range params {
		if v.Kind == KindNum {
			s.nums[i] = v.Num
		} else {
			s.nums[i] = math.NaN()
		}
	}
}

// exprChunk is the block size of the vectorized expression loops — the same
// cache-resident block the engine's scan kernels use.
const exprChunk = 1024

// numNode is a compiled numeric expression: eval writes its value for each
// of rows (at most exprChunk) into dst[:len(rows)].
type numNode interface {
	eval(ps *paramStore, rows []int, dst []float64) error
}

// predNode is a compiled boolean conjunct: test writes its verdict for each
// of rows (at most exprChunk) into keep[:len(rows)].
type predNode interface {
	test(ps *paramStore, rows []int, keep []bool) error
}

// compiledFilter is one compiled WHERE conjunct ready to narrow a selection
// vector in place.
type compiledFilter struct {
	pred predNode
	keep []bool
}

// apply narrows rows to the conjunct's survivors under the constants in ps,
// compacting in place (the write index never overtakes the read index). On
// error the selection's backing array is untouched beyond already-surviving
// prefixes; callers recycle their original slice. An evaluation error also
// returns the chunk it arose in: the nodes run operator-at-a-time, so they
// find that a chunk fails but not always the interpreter's first failure in
// row order, which firstError takes from those rows. tok is polled once per
// chunk; a fired token aborts with cancel.ErrCancelled (nil tok never
// fires).
func (f *compiledFilter) apply(tok *cancel.Token, ps *paramStore, rows []int) ([]int, error) {
	out := rows[:0]
	for base := 0; base < len(rows); base += exprChunk {
		if tok.Cancelled() {
			return nil, cancel.ErrCancelled
		}
		end := min(base+exprChunk, len(rows))
		chunk := rows[base:end]
		keep := f.keep[:len(chunk)]
		if err := f.pred.test(ps, chunk, keep); err != nil {
			return chunk, err
		}
		for i, row := range chunk {
			if keep[i] {
				out = append(out, row)
			}
		}
	}
	return out, nil
}

// compilePCFilter compiles conjunct e into a vector kernel over the bound
// point cloud, reporting ok=false for shapes the interpreter must keep.
// Its constants land in slots, the store every apply must be handed.
func compilePCFilter(b *binding, slots *paramStore, e Expr) (*compiledFilter, bool) {
	pred, _, ok := compilePred(b, slots, e)
	if !ok {
		return nil, false
	}
	return &compiledFilter{pred: pred, keep: make([]bool, exprChunk)}, true
}

// compilePred compiles a boolean expression; mayErr reports whether
// evaluation can fail (division or modulo whose denominator is not a
// provably non-zero constant), which gates compilation under AND/OR.
func compilePred(b *binding, slots *paramStore, e Expr) (pred predNode, mayErr bool, ok bool) {
	switch t := e.(type) {
	case BinaryExpr:
		switch t.Op {
		case "=", "<>", "<", "<=", ">", ">=":
			l, lerr, lok := compileNum(b, slots, t.L)
			r, rerr, rok := compileNum(b, slots, t.R)
			if !lok || !rok {
				return nil, false, false
			}
			return newCmpNode(l, r, t.Op), lerr || rerr, true
		case "AND", "OR":
			l, lerr, lok := compilePred(b, slots, t.L)
			r, rerr, rok := compilePred(b, slots, t.R)
			// Short-circuiting may skip a fallible operand row-by-row; the
			// vector kernel cannot, so such conjuncts stay interpreted.
			if !lok || !rok || lerr || rerr {
				return nil, false, false
			}
			return &logicNode{l: l, r: r, or: t.Op == "OR", rkeep: make([]bool, exprChunk)}, false, true
		default:
			// Arithmetic result used as a bare boolean conjunct.
			return compileTruthy(b, slots, e)
		}
	case BetweenExpr:
		s, serr, sok := compileNum(b, slots, t.Subject)
		lo, loerr, look := compileNum(b, slots, t.Lo)
		hi, hierr, hiok := compileNum(b, slots, t.Hi)
		if !sok || !look || !hiok {
			return nil, false, false
		}
		return &betweenNode{
			s: s, lo: lo, hi: hi,
			sbuf: make([]float64, exprChunk), lobuf: make([]float64, exprChunk), hibuf: make([]float64, exprChunk),
		}, serr || loerr || hierr, true
	case NotExpr:
		inner, ierr, iok := compilePred(b, slots, t.E)
		if !iok {
			return nil, false, false
		}
		return &notNode{inner}, ierr, true
	case BoolLit:
		return &boolNode{t.Value}, false, true
	default:
		return compileTruthy(b, slots, e)
	}
}

// compileTruthy compiles a numeric expression used as a predicate: the
// interpreter keeps rows where the value is non-zero (NaN included).
func compileTruthy(b *binding, slots *paramStore, e Expr) (predNode, bool, bool) {
	v, verr, ok := compileNum(b, slots, e)
	if !ok {
		return nil, false, false
	}
	return &truthyNode{v: v, buf: make([]float64, exprChunk)}, verr, true
}

// compileNum compiles a numeric expression; mayErr reports whether
// evaluation can fail at runtime (see compilePred).
func compileNum(b *binding, slots *paramStore, e Expr) (ev numNode, mayErr bool, ok bool) {
	switch t := e.(type) {
	case NumberLit:
		return &constNode{slots.lit(t.Value)}, false, true
	case ParamRef:
		if t.Kind != KindNum || t.Index < 0 || t.Index >= slots.params {
			return nil, false, false
		}
		return &constNode{t.Index}, false, true
	case ColumnRef:
		name, nok := pcColumnName(b, t)
		if !nok {
			return nil, false, false
		}
		return compileColumnGather(b.pc.Column(name)), false, true
	case FuncCall:
		// abs is the one scalar function the interpreter defines over
		// numbers; everything else stays interpreted.
		if t.Name != "abs" || len(t.Args) != 1 {
			return nil, false, false
		}
		inner, ierr, iok := compileNum(b, slots, t.Args[0])
		if !iok {
			return nil, false, false
		}
		return &absNode{inner}, ierr, true
	case BinaryExpr:
		switch t.Op {
		case "+", "-", "*", "/", "%":
		default:
			return nil, false, false
		}
		l, lerr, lok := compileNum(b, slots, t.L)
		r, rerr, rok := compileNum(b, slots, t.R)
		if !lok || !rok {
			return nil, false, false
		}
		mayErr = lerr || rerr
		if t.Op == "/" || t.Op == "%" {
			// Modulo runs in the int64 domain, so "provably non-zero" must
			// hold after truncation: a constant like 0.5 truncates to 0 and
			// raises the interpreter's modulo-by-zero error.
			c, isConst := constNonZero(t.R)
			mayErr = mayErr || !isConst || t.Op == "%" && int64(c) == 0
		}
		return &arithNode{op: t.Op[0], l: l, r: r, rbuf: make([]float64, exprChunk)}, mayErr, true
	default:
		return nil, false, false
	}
}

// constNonZero reports whether e is a numeric literal other than zero —
// the denominators whose division cannot fail. ParamRef denominators
// deliberately do NOT qualify: a shape-cache rebind can bind them to zero.
func constNonZero(e Expr) (float64, bool) {
	n, ok := e.(NumberLit)
	if !ok || n.Value == 0 {
		return 0, false
	}
	return n.Value, true
}

// compileColumnGather builds the typed gather node for one point-cloud
// column, instantiated per element type from this non-generic dispatch.
func compileColumnGather(col colstore.Column) numNode {
	switch c := col.(type) {
	case *colstore.F64Column:
		return &gather[float64]{c.Values()}
	case *colstore.I64Column:
		return &gather[int64]{c.Values()}
	case *colstore.I32Column:
		return &gather[int32]{c.Values()}
	case *colstore.U16Column:
		return &gather[uint16]{c.Values()}
	case *colstore.U8Column:
		return &gather[uint8]{c.Values()}
	default:
		panic(fmt.Sprintf("sql: no gather loop for %T", col))
	}
}

// --- numeric nodes ------------------------------------------------------------

// constNode is a constant: the value in slot of the plan's paramStore.
type constNode struct{ slot int }

func (n *constNode) eval(ps *paramStore, rows []int, dst []float64) error {
	c := ps.nums[n.slot]
	for i := range dst[:len(rows)] {
		dst[i] = c
	}
	return nil
}

// gather reads one typed column: dst[i] = float64(vals[rows[i]]).
type gather[T colstore.Number] struct{ vals []T }

func (n *gather[T]) eval(_ *paramStore, rows []int, dst []float64) error {
	vals := n.vals
	for i, r := range rows {
		dst[i] = float64(vals[r])
	}
	return nil
}

// absNode is the interpreter's abs: it negates only strictly negative
// values, so -0.0 and NaN pass through unchanged.
type absNode struct{ inner numNode }

func (n *absNode) eval(ps *paramStore, rows []int, dst []float64) error {
	if err := n.inner.eval(ps, rows, dst); err != nil {
		return err
	}
	for i := range dst[:len(rows)] {
		if dst[i] < 0 {
			dst[i] = -dst[i]
		}
	}
	return nil
}

// arithNode is l op r for op one of + - * / %, evaluated into dst with r in
// its own block; it switches on the operator once per chunk. A zero divisor
// (for %, one that truncates to zero) aborts with the interpreter's error.
type arithNode struct {
	op   byte
	l, r numNode
	rbuf []float64
}

func (n *arithNode) eval(ps *paramStore, rows []int, dst []float64) error {
	lv, rv := dst[:len(rows)], n.rbuf[:len(rows)]
	if err := n.l.eval(ps, rows, lv); err != nil {
		return err
	}
	if err := n.r.eval(ps, rows, rv); err != nil {
		return err
	}
	switch n.op {
	case '+':
		for i := range lv {
			lv[i] += rv[i]
		}
	case '-':
		for i := range lv {
			lv[i] -= rv[i]
		}
	case '*':
		for i := range lv {
			lv[i] *= rv[i]
		}
	case '/':
		for i := range lv {
			if rv[i] == 0 {
				return fmt.Errorf("sql: division by zero")
			}
			lv[i] /= rv[i]
		}
	default: // '%'
		for i := range lv {
			if int64(rv[i]) == 0 {
				return fmt.Errorf("sql: modulo by zero")
			}
			lv[i] = float64(int64(lv[i]) % int64(rv[i]))
		}
	}
	return nil
}

// --- predicate nodes ----------------------------------------------------------

// cmpNode is a comparison. It mirrors compareValues' three-way compare
// exactly: the relation is decided by (<, >) probes, so any NaN operand
// yields "equal", and the operator is the verdict for each relation sign.
type cmpNode struct {
	l, r         numNode
	neg, eq, pos bool // verdict when l < r, neither, l > r
	lbuf, rbuf   []float64
}

func newCmpNode(l, r numNode, op string) *cmpNode {
	return &cmpNode{
		l: l, r: r,
		neg:  op == "<" || op == "<=" || op == "<>",
		eq:   op == "=" || op == "<=" || op == ">=",
		pos:  op == ">" || op == ">=" || op == "<>",
		lbuf: make([]float64, exprChunk), rbuf: make([]float64, exprChunk),
	}
}

func (n *cmpNode) test(ps *paramStore, rows []int, keep []bool) error {
	lv, rv := n.lbuf[:len(rows)], n.rbuf[:len(rows)]
	if err := n.l.eval(ps, rows, lv); err != nil {
		return err
	}
	if err := n.r.eval(ps, rows, rv); err != nil {
		return err
	}
	for i := range keep[:len(rows)] {
		switch {
		case lv[i] < rv[i]:
			keep[i] = n.neg
		case lv[i] > rv[i]:
			keep[i] = n.pos
		default:
			keep[i] = n.eq
		}
	}
	return nil
}

// betweenNode is the interpreter's BETWEEN: plain float comparisons, so a
// NaN operand fails.
type betweenNode struct {
	s, lo, hi          numNode
	sbuf, lobuf, hibuf []float64
}

func (n *betweenNode) test(ps *paramStore, rows []int, keep []bool) error {
	sv, lov, hiv := n.sbuf[:len(rows)], n.lobuf[:len(rows)], n.hibuf[:len(rows)]
	if err := n.s.eval(ps, rows, sv); err != nil {
		return err
	}
	if err := n.lo.eval(ps, rows, lov); err != nil {
		return err
	}
	if err := n.hi.eval(ps, rows, hiv); err != nil {
		return err
	}
	for i := range keep[:len(rows)] {
		keep[i] = sv[i] >= lov[i] && sv[i] <= hiv[i]
	}
	return nil
}

// logicNode is l AND r, or l OR r when or is set; neither side can fail
// (see compilePred), so both evaluate over the whole chunk.
type logicNode struct {
	l, r  predNode
	or    bool
	rkeep []bool
}

func (n *logicNode) test(ps *paramStore, rows []int, keep []bool) error {
	if err := n.l.test(ps, rows, keep); err != nil {
		return err
	}
	rk := n.rkeep[:len(rows)]
	if err := n.r.test(ps, rows, rk); err != nil {
		return err
	}
	keep = keep[:len(rows)]
	if n.or {
		for i := range keep {
			keep[i] = keep[i] || rk[i]
		}
	} else {
		for i := range keep {
			keep[i] = keep[i] && rk[i]
		}
	}
	return nil
}

// notNode negates its operand's verdicts.
type notNode struct{ inner predNode }

func (n *notNode) test(ps *paramStore, rows []int, keep []bool) error {
	if err := n.inner.test(ps, rows, keep); err != nil {
		return err
	}
	for i := range keep[:len(rows)] {
		keep[i] = !keep[i]
	}
	return nil
}

// boolNode is TRUE or FALSE, part of the statement's shape.
type boolNode struct{ v bool }

func (n *boolNode) test(_ *paramStore, rows []int, keep []bool) error {
	for i := range keep[:len(rows)] {
		keep[i] = n.v
	}
	return nil
}

// truthyNode keeps the rows where its operand is non-zero (NaN included).
type truthyNode struct {
	v   numNode
	buf []float64
}

func (n *truthyNode) test(ps *paramStore, rows []int, keep []bool) error {
	vals := n.buf[:len(rows)]
	if err := n.v.eval(ps, rows, vals); err != nil {
		return err
	}
	for i := range keep[:len(rows)] {
		keep[i] = vals[i] != 0
	}
	return nil
}
