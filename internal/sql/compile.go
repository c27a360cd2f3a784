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
// constant or a buffer. A ParamRef or NumberLit compiles to a constNode,
// which holds the index of its slot in a paramStore; a node that needs a
// chunk-sized scratch block holds the index of its block in the run's
// frame. Every evaluation receives both as arguments, so a compiled tree is
// pure structure: one tree serves every literal vector and every concurrent
// run of its plan. TestCompiledNodesHoldNoConstant walks every tree the
// compile tests build with reflect and fails on any float, 64-bit integer,
// func or slice field (gather's column array aside). A ParamRef is never
// "provably non-zero", so a parameterised division/modulo denominator is
// fallible for the AND/OR rule above — a rebind could make it zero.
package sql

import (
	"fmt"
	"slices"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
	"gisnav/internal/engine"
)

// paramStore is the constant-slot array compiled nodes read their constants
// from: the ParamRef slots first, then the NumberLit slots compile appends.
// Each bound literal vector gets its own copy (bind). A non-numeric
// parameter's slot is never read: compiler.num rejects its ParamRef.
type paramStore struct {
	nums   []float64
	params int // parameter slots at the front of nums
}

// lit appends a literal constant and returns its slot index.
func (s *paramStore) lit(v float64) int {
	s.nums = append(s.nums, v)
	return len(s.nums) - 1
}

// bind returns s with its parameter slots set from params, appended to dst:
// the store a run under params hands its nodes.
func (s *paramStore) bind(params []Value, dst []float64) paramStore {
	for _, v := range params {
		dst = append(dst, v.Num)
	}
	return paramStore{nums: append(dst, s.nums[s.params:]...), params: s.params}
}

// frame is one run's scratch: the chunk-sized blocks compiled nodes
// evaluate into, addressed by the block numbers compile handed out, and the
// engine's grouped result record. Concurrent runs of a plan share nothing
// they write. Frames are pooled with the run record (lifecycle.go) and keep
// the capacity of the largest plan they served.
type frame struct {
	nums    []float64
	keeps   []bool
	grouped engine.GroupedResult
}

// fit sizes the frame to nums float blocks and keeps bool blocks.
func (f *frame) fit(nums, keeps int) {
	f.nums = slices.Grow(f.nums[:0], nums*exprChunk)[:nums*exprChunk]
	f.keeps = slices.Grow(f.keeps[:0], keeps*exprChunk)[:keeps*exprChunk]
}

// num and keep return float and bool block i.
func (f *frame) num(i int) []float64 { return f.nums[i*exprChunk : (i+1)*exprChunk] }
func (f *frame) keep(i int) []bool   { return f.keeps[i*exprChunk : (i+1)*exprChunk] }

// compiler is one plan's compile state: the binding, the store literals
// land in, and the frame blocks handed out (one per node that needs one).
type compiler struct {
	b           *binding
	slots       *paramStore
	nums, keeps int
}

func (c *compiler) numBlock() int  { c.nums++; return c.nums - 1 }
func (c *compiler) keepBlock() int { c.keeps++; return c.keeps - 1 }

// exprChunk is the block size of the vectorized expression loops — the same
// cache-resident block the engine's scan kernels use.
const exprChunk = 1024

// numNode is a compiled numeric expression: eval writes its value for each
// of rows (at most exprChunk) into dst[:len(rows)].
type numNode interface {
	eval(fr *frame, ps *paramStore, rows []int, dst []float64) error
}

// predNode is a compiled boolean conjunct: test writes its verdict for each
// of rows (at most exprChunk) into keep[:len(rows)].
type predNode interface {
	test(fr *frame, ps *paramStore, rows []int, keep []bool) error
}

// compiledFilter is one compiled WHERE conjunct ready to narrow a selection
// vector in place.
type compiledFilter struct {
	pred predNode
	keep int // frame block
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
func (f *compiledFilter) apply(tok *cancel.Token, fr *frame, ps *paramStore, rows []int) ([]int, error) {
	out := rows[:0]
	for b0, b1 := range tok.Blocks(0, len(rows), exprChunk) {
		chunk := rows[b0:b1]
		keep := fr.keep(f.keep)[:len(chunk)]
		if err := f.pred.test(fr, ps, chunk, keep); err != nil {
			return chunk, err
		}
		for i, row := range chunk {
			if keep[i] {
				out = append(out, row)
			}
		}
	}
	if tok.Cancelled() {
		return nil, cancel.ErrCancelled
	}
	return out, nil
}

// filter compiles conjunct e into a vector kernel over the bound
// point cloud, reporting ok=false for shapes the interpreter must keep.
// Its constants land in c.slots, whose bound copy every apply is handed.
func (c *compiler) filter(e Expr) (*compiledFilter, bool) {
	pred, _, ok := c.pred(e)
	if !ok {
		return nil, false
	}
	return &compiledFilter{pred: pred, keep: c.keepBlock()}, true
}

// pred compiles a boolean expression; mayErr reports whether
// evaluation can fail (division or modulo whose denominator is not a
// provably non-zero constant), which gates compilation under AND/OR.
func (c *compiler) pred(e Expr) (pred predNode, mayErr bool, ok bool) {
	switch t := e.(type) {
	case BinaryExpr:
		switch t.Op {
		case "=", "<>", "<", "<=", ">", ">=":
			l, lerr, lok := c.num(t.L)
			r, rerr, rok := c.num(t.R)
			if !lok || !rok {
				return nil, false, false
			}
			return newCmpNode(l, r, t.Op, c.numBlock(), c.numBlock()), lerr || rerr, true
		case "AND", "OR":
			l, lerr, lok := c.pred(t.L)
			r, rerr, rok := c.pred(t.R)
			// Short-circuiting may skip a fallible operand row-by-row; the
			// vector kernel cannot, so such conjuncts stay interpreted.
			if !lok || !rok || lerr || rerr {
				return nil, false, false
			}
			return &logicNode{l: l, r: r, or: t.Op == "OR", rkeep: c.keepBlock()}, false, true
		default:
			// Arithmetic result used as a bare boolean conjunct.
			return c.truthy(e)
		}
	case BetweenExpr:
		s, serr, sok := c.num(t.Subject)
		lo, loerr, look := c.num(t.Lo)
		hi, hierr, hiok := c.num(t.Hi)
		if !sok || !look || !hiok {
			return nil, false, false
		}
		return &betweenNode{
			s: s, lo: lo, hi: hi,
			sbuf: c.numBlock(), lobuf: c.numBlock(), hibuf: c.numBlock(),
		}, serr || loerr || hierr, true
	case NotExpr:
		inner, ierr, iok := c.pred(t.E)
		if !iok {
			return nil, false, false
		}
		return &notNode{inner}, ierr, true
	case BoolLit:
		return &boolNode{t.Value}, false, true
	default:
		return c.truthy(e)
	}
}

// truthy compiles a numeric expression used as a predicate: the
// interpreter keeps rows where the value is non-zero (NaN included).
func (c *compiler) truthy(e Expr) (predNode, bool, bool) {
	v, verr, ok := c.num(e)
	if !ok {
		return nil, false, false
	}
	return &truthyNode{v: v, buf: c.numBlock()}, verr, true
}

// num compiles a numeric expression; mayErr reports whether
// evaluation can fail at runtime (see pred).
func (c *compiler) num(e Expr) (ev numNode, mayErr bool, ok bool) {
	switch t := e.(type) {
	case NumberLit:
		return &constNode{c.slots.lit(t.Value)}, false, true
	case ParamRef:
		if t.Kind != KindNum || t.Index < 0 || t.Index >= c.slots.params {
			return nil, false, false
		}
		return &constNode{t.Index}, false, true
	case ColumnRef:
		name, nok := pcColumnName(c.b, t)
		if !nok {
			return nil, false, false
		}
		return compileColumnGather(c.b.pc.Column(name)), false, true
	case FuncCall:
		// abs is the one scalar function the interpreter defines over
		// numbers; everything else stays interpreted.
		if t.Name != "abs" || len(t.Args) != 1 {
			return nil, false, false
		}
		inner, ierr, iok := c.num(t.Args[0])
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
		l, lerr, lok := c.num(t.L)
		r, rerr, rok := c.num(t.R)
		if !lok || !rok {
			return nil, false, false
		}
		mayErr = lerr || rerr
		if t.Op == "/" || t.Op == "%" {
			// Modulo runs in the int64 domain, so "provably non-zero" must
			// hold after truncation: a constant like 0.5 truncates to 0 and
			// raises the interpreter's modulo-by-zero error.
			d, isConst := constNonZero(t.R)
			mayErr = mayErr || !isConst || t.Op == "%" && int64(d) == 0
		}
		return &arithNode{op: t.Op[0], l: l, r: r, rbuf: c.numBlock()}, mayErr, true
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

// constNode is a constant: the value in slot of the run's paramStore.
type constNode struct{ slot int }

func (n *constNode) eval(_ *frame, ps *paramStore, rows []int, dst []float64) error {
	c := ps.nums[n.slot]
	for i := range dst[:len(rows)] {
		dst[i] = c
	}
	return nil
}

// gather reads one typed column: dst[i] = float64(vals[rows[i]]).
type gather[T colstore.Number] struct{ vals []T }

func (n *gather[T]) eval(_ *frame, _ *paramStore, rows []int, dst []float64) error {
	vals := n.vals
	for i, r := range rows {
		dst[i] = float64(vals[r])
	}
	return nil
}

// absNode is the interpreter's abs: it negates only strictly negative
// values, so -0.0 and NaN pass through unchanged.
type absNode struct{ inner numNode }

func (n *absNode) eval(fr *frame, ps *paramStore, rows []int, dst []float64) error {
	if err := n.inner.eval(fr, ps, rows, dst); err != nil {
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
// frame block rbuf; it switches on the operator once per chunk. A zero
// divisor (for %, one that truncates to zero) aborts with the interpreter's
// error.
type arithNode struct {
	op   byte
	l, r numNode
	rbuf int
}

func (n *arithNode) eval(fr *frame, ps *paramStore, rows []int, dst []float64) error {
	lv, rv := dst[:len(rows)], fr.num(n.rbuf)[:len(rows)]
	if err := n.l.eval(fr, ps, rows, lv); err != nil {
		return err
	}
	if err := n.r.eval(fr, ps, rows, rv); err != nil {
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
// The operands evaluate into frame blocks lbuf and rbuf.
type cmpNode struct {
	l, r         numNode
	neg, eq, pos bool // verdict when l < r, neither, l > r
	lbuf, rbuf   int
}

func newCmpNode(l, r numNode, op string, lbuf, rbuf int) *cmpNode {
	return &cmpNode{
		l: l, r: r,
		neg:  op == "<" || op == "<=" || op == "<>",
		eq:   op == "=" || op == "<=" || op == ">=",
		pos:  op == ">" || op == ">=" || op == "<>",
		lbuf: lbuf, rbuf: rbuf,
	}
}

func (n *cmpNode) test(fr *frame, ps *paramStore, rows []int, keep []bool) error {
	lv, rv := fr.num(n.lbuf)[:len(rows)], fr.num(n.rbuf)[:len(rows)]
	if err := n.l.eval(fr, ps, rows, lv); err != nil {
		return err
	}
	if err := n.r.eval(fr, ps, rows, rv); err != nil {
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
// NaN operand fails. The operands evaluate into frame blocks.
type betweenNode struct {
	s, lo, hi          numNode
	sbuf, lobuf, hibuf int
}

func (n *betweenNode) test(fr *frame, ps *paramStore, rows []int, keep []bool) error {
	sv, lov, hiv := fr.num(n.sbuf)[:len(rows)], fr.num(n.lobuf)[:len(rows)], fr.num(n.hibuf)[:len(rows)]
	if err := n.s.eval(fr, ps, rows, sv); err != nil {
		return err
	}
	if err := n.lo.eval(fr, ps, rows, lov); err != nil {
		return err
	}
	if err := n.hi.eval(fr, ps, rows, hiv); err != nil {
		return err
	}
	for i := range keep[:len(rows)] {
		keep[i] = sv[i] >= lov[i] && sv[i] <= hiv[i]
	}
	return nil
}

// logicNode is l AND r, or l OR r when or is set; neither side can fail
// (see compiler.pred), so both evaluate over the whole chunk, r into frame
// block rkeep.
type logicNode struct {
	l, r  predNode
	or    bool
	rkeep int
}

func (n *logicNode) test(fr *frame, ps *paramStore, rows []int, keep []bool) error {
	if err := n.l.test(fr, ps, rows, keep); err != nil {
		return err
	}
	rk := fr.keep(n.rkeep)[:len(rows)]
	if err := n.r.test(fr, ps, rows, rk); err != nil {
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

func (n *notNode) test(fr *frame, ps *paramStore, rows []int, keep []bool) error {
	if err := n.inner.test(fr, ps, rows, keep); err != nil {
		return err
	}
	for i := range keep[:len(rows)] {
		keep[i] = !keep[i]
	}
	return nil
}

// boolNode is TRUE or FALSE, part of the statement's shape.
type boolNode struct{ v bool }

func (n *boolNode) test(_ *frame, _ *paramStore, rows []int, keep []bool) error {
	for i := range keep[:len(rows)] {
		keep[i] = n.v
	}
	return nil
}

// truthyNode keeps the rows where its operand, evaluated into frame block
// buf, is non-zero (NaN included).
type truthyNode struct {
	v   numNode
	buf int
}

func (n *truthyNode) test(fr *frame, ps *paramStore, rows []int, keep []bool) error {
	vals := fr.num(n.buf)[:len(rows)]
	if err := n.v.eval(fr, ps, rows, vals); err != nil {
		return err
	}
	for i := range keep[:len(rows)] {
		keep[i] = vals[i] != 0
	}
	return nil
}
