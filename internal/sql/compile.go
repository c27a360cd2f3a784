// Expression compiler for generic point-cloud WHERE conjuncts. Conjuncts
// the planner cannot hand to the engine's predicate kernels — arithmetic
// comparisons like `z - 2*intensity > 10` or `x + y BETWEEN 100 AND 900` —
// used to fall back to the row-at-a-time expression interpreter (evalExpr:
// one Value box, one tree walk and one interface dispatch per operator per
// row). This file compiles those shapes into chunked vector kernels: each
// numeric subexpression evaluates operator-at-a-time into a float64 block
// buffer, then a monomorphic compare loop writes the surviving rows — the
// same execution style the engine's ColumnPred kernels use (§2.1.1).
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
// The interpreter remains the fallback for truly dynamic shapes: string or
// geometry operands, function calls other than abs(), vector-table columns.
//
// Constant-slot contract (the SQL-layer mirror of the engine kernels'
// KernelArgs): a compiled filter does not bake ParamRef constants into its
// closures — it reads them from the plan's paramStore, so a shape-cache
// rebind updates the store in place and the compiled kernel serves the new
// literal vector without recompiling. Literal AST nodes (NumberLit) read
// through the store's literal slots too — rebinds never rewrite those, but
// the kernel closures stay uniformly constant-free (the constslot invariant).
// One deliberate exception: a ParamRef is never "provably non-zero", so a
// parameterised division/modulo denominator always takes the runtime-checked
// arm — a rebind could make it zero.
package sql

import (
	"fmt"
	"math"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
)

// paramStore is the mutable constant-slot array a plan's compiled filters
// read their ParamRef constants from. Rebinds overwrite nums in place under
// the statement lock; the slice header never changes, so the compiled
// closures (which capture the store pointer) always see the current vector.
// Non-numeric parameters mirror as NaN — a compiled filter never reads them
// (compileNum rejects non-numeric ParamRefs at compile time).
//
// lits holds literal (NumberLit) constants appended at compile time: a
// rebind never touches them, but the compiled kernels still read every
// constant through the store, so no closure embeds a value the plan cache
// cannot see (the constslot invariant).
type paramStore struct {
	nums []float64
	lits []float64
}

// lit appends a literal constant and returns its slot index.
func (s *paramStore) lit(v float64) int {
	s.lits = append(s.lits, v)
	return len(s.lits) - 1
}

// newParamStore mirrors params into a fresh slot array.
func newParamStore(params []Value) *paramStore {
	s := &paramStore{nums: make([]float64, len(params))}
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

// numEval evaluates a compiled numeric expression for up to exprChunk rows,
// writing the per-row values into dst[:len(rows)].
type numEval func(rows []int, dst []float64) error

// chunkPred evaluates a compiled boolean conjunct for up to exprChunk rows,
// writing per-row verdicts into keep[:len(rows)].
type chunkPred func(rows []int, keep []bool) error

// compiledFilter is one compiled WHERE conjunct ready to narrow a selection
// vector in place.
type compiledFilter struct {
	pred chunkPred
	keep []bool
}

// apply narrows rows to the conjunct's survivors, compacting in place (the
// write index never overtakes the read index). On error the selection's
// backing array is untouched beyond already-surviving prefixes; callers
// recycle their original slice. tok is polled once per chunk; a fired
// token aborts with cancel.ErrCancelled (nil tok never fires).
func (f *compiledFilter) apply(tok *cancel.Token, rows []int) ([]int, error) {
	out := rows[:0]
	for base := 0; base < len(rows); base += exprChunk {
		if tok.Cancelled() {
			return nil, cancel.ErrCancelled
		}
		end := min(base+exprChunk, len(rows))
		chunk := rows[base:end]
		keep := f.keep[:len(chunk)]
		if err := f.pred(chunk, keep); err != nil {
			return nil, err
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
func compilePCFilter(b *binding, slots *paramStore, e Expr) (*compiledFilter, bool) {
	if slots == nil {
		// Plans without parameters still need a store for literal slots.
		slots = &paramStore{}
	}
	pred, _, ok := compileChunkPred(b, slots, e)
	if !ok {
		return nil, false
	}
	return &compiledFilter{pred: pred, keep: make([]bool, exprChunk)}, true
}

// compileChunkPred compiles a boolean expression; mayErr reports whether
// evaluation can fail (division or modulo whose denominator is not a
// provably non-zero constant), which gates compilation under AND/OR.
func compileChunkPred(b *binding, slots *paramStore, e Expr) (pred chunkPred, mayErr bool, ok bool) {
	switch t := e.(type) {
	case BinaryExpr:
		switch t.Op {
		case "=", "<>", "<", "<=", ">", ">=":
			l, lerr, lok := compileNum(b, slots, t.L)
			r, rerr, rok := compileNum(b, slots, t.R)
			if !lok || !rok {
				return nil, false, false
			}
			return cmpChunkPred(l, r, t.Op), lerr || rerr, true
		case "AND", "OR":
			l, lerr, lok := compileChunkPred(b, slots, t.L)
			r, rerr, rok := compileChunkPred(b, slots, t.R)
			// Short-circuiting may skip a fallible operand row-by-row; the
			// vector kernel cannot, so such conjuncts stay interpreted.
			if !lok || !rok || lerr || rerr {
				return nil, false, false
			}
			isAnd := t.Op == "AND"
			rkeep := make([]bool, exprChunk)
			return func(rows []int, keep []bool) error {
				if err := l(rows, keep); err != nil {
					return err
				}
				rk := rkeep[:len(rows)]
				if err := r(rows, rk); err != nil {
					return err
				}
				if isAnd {
					for i := range keep {
						keep[i] = keep[i] && rk[i]
					}
				} else {
					for i := range keep {
						keep[i] = keep[i] || rk[i]
					}
				}
				return nil
			}, false, true
		default:
			// Arithmetic result used as a bare boolean conjunct.
			return truthyChunkPred(b, slots, e)
		}
	case BetweenExpr:
		s, serr, sok := compileNum(b, slots, t.Subject)
		lo, loerr, look := compileNum(b, slots, t.Lo)
		hi, hierr, hiok := compileNum(b, slots, t.Hi)
		if !sok || !look || !hiok {
			return nil, false, false
		}
		sbuf := make([]float64, exprChunk)
		lobuf := make([]float64, exprChunk)
		hibuf := make([]float64, exprChunk)
		return func(rows []int, keep []bool) error {
			n := len(rows)
			sv, lov, hiv := sbuf[:n], lobuf[:n], hibuf[:n]
			if err := s(rows, sv); err != nil {
				return err
			}
			if err := lo(rows, lov); err != nil {
				return err
			}
			if err := hi(rows, hiv); err != nil {
				return err
			}
			for i := range keep[:n] {
				// Interpreter BETWEEN: plain float comparisons (NaN fails).
				keep[i] = sv[i] >= lov[i] && sv[i] <= hiv[i]
			}
			return nil
		}, serr || loerr || hierr, true
	case NotExpr:
		inner, ierr, iok := compileChunkPred(b, slots, t.E)
		if !iok {
			return nil, false, false
		}
		return func(rows []int, keep []bool) error {
			if err := inner(rows, keep); err != nil {
				return err
			}
			for i := range keep[:len(rows)] {
				keep[i] = !keep[i]
			}
			return nil
		}, ierr, true
	case BoolLit:
		v := t.Value
		return func(rows []int, keep []bool) error {
			for i := range keep[:len(rows)] {
				keep[i] = v
			}
			return nil
		}, false, true
	default:
		return truthyChunkPred(b, slots, e)
	}
}

// truthyChunkPred compiles a numeric expression used as a predicate: the
// interpreter keeps rows where the value is non-zero (NaN included).
func truthyChunkPred(b *binding, slots *paramStore, e Expr) (chunkPred, bool, bool) {
	v, verr, ok := compileNum(b, slots, e)
	if !ok {
		return nil, false, false
	}
	buf := make([]float64, exprChunk)
	return func(rows []int, keep []bool) error {
		vals := buf[:len(rows)]
		if err := v(rows, vals); err != nil {
			return err
		}
		for i := range keep[:len(rows)] {
			keep[i] = vals[i] != 0
		}
		return nil
	}, verr, true
}

// cmpChunkPred builds the comparison kernel. It mirrors compareValues'
// three-way compare exactly: the relation is decided by (<, >) probes, so
// any NaN operand yields "equal" — `z = 0/0-style NaN` matches — and the
// operator then tests the relation sign.
func cmpChunkPred(l, r numEval, op string) chunkPred {
	var allowNeg, allowZero, allowPos bool
	switch op {
	case "=":
		allowZero = true
	case "<>":
		allowNeg, allowPos = true, true
	case "<":
		allowNeg = true
	case "<=":
		allowNeg, allowZero = true, true
	case ">":
		allowPos = true
	case ">=":
		allowPos, allowZero = true, true
	}
	lbuf := make([]float64, exprChunk)
	rbuf := make([]float64, exprChunk)
	return func(rows []int, keep []bool) error {
		n := len(rows)
		lv, rv := lbuf[:n], rbuf[:n]
		if err := l(rows, lv); err != nil {
			return err
		}
		if err := r(rows, rv); err != nil {
			return err
		}
		for i := range keep[:n] {
			switch {
			case lv[i] < rv[i]:
				keep[i] = allowNeg
			case lv[i] > rv[i]:
				keep[i] = allowPos
			default:
				keep[i] = allowZero
			}
		}
		return nil
	}
}

// compileNum compiles a numeric expression; mayErr reports whether
// evaluation can fail at runtime (see compileChunkPred).
func compileNum(b *binding, slots *paramStore, e Expr) (ev numEval, mayErr bool, ok bool) {
	switch t := e.(type) {
	case NumberLit:
		// Literal-slot read: the constant lives in the plan's store like a
		// ParamRef (rebinds never rewrite it, but the kernel closure stays
		// constant-free either way).
		idx := slots.lit(t.Value)
		return func(rows []int, dst []float64) error {
			c := slots.lits[idx]
			for i := range dst[:len(rows)] {
				dst[i] = c
			}
			return nil
		}, false, true
	case ParamRef:
		// Constant-slot read: the value is fetched from the plan's store per
		// chunk, so a rebound literal vector flows into the compiled kernel
		// without recompilation.
		if t.Kind != KindNum || slots == nil || t.Index < 0 || t.Index >= len(slots.nums) {
			return nil, false, false
		}
		idx := t.Index
		return func(rows []int, dst []float64) error {
			c := slots.nums[idx]
			for i := range dst[:len(rows)] {
				dst[i] = c
			}
			return nil
		}, false, true
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
		return func(rows []int, dst []float64) error {
			if err := inner(rows, dst); err != nil {
				return err
			}
			for i := range dst[:len(rows)] {
				// Interpreter abs: negate only strictly negative values, so
				// -0.0 and NaN pass through unchanged.
				if dst[i] < 0 {
					dst[i] = -dst[i]
				}
			}
			return nil
		}, ierr, true
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
		rbuf := make([]float64, exprChunk)
		combine := func(fn func(rows []int, lv, rv []float64) error) numEval {
			return func(rows []int, dst []float64) error {
				n := len(rows)
				if err := l(rows, dst[:n]); err != nil {
					return err
				}
				rv := rbuf[:n]
				if err := r(rows, rv); err != nil {
					return err
				}
				return fn(rows, dst[:n], rv)
			}
		}
		switch t.Op {
		case "+":
			return combine(func(_ []int, lv, rv []float64) error {
				for i := range lv {
					lv[i] += rv[i]
				}
				return nil
			}), mayErr, true
		case "-":
			return combine(func(_ []int, lv, rv []float64) error {
				for i := range lv {
					lv[i] -= rv[i]
				}
				return nil
			}), mayErr, true
		case "*":
			return combine(func(_ []int, lv, rv []float64) error {
				for i := range lv {
					lv[i] *= rv[i]
				}
				return nil
			}), mayErr, true
		case "/":
			if c, isConst := constNonZero(t.R); isConst {
				return combine(func(_ []int, lv, _ []float64) error {
					for i := range lv {
						lv[i] /= c
					}
					return nil
				}), mayErr, true
			}
			return combine(func(_ []int, lv, rv []float64) error {
				for i := range lv {
					if rv[i] == 0 {
						return fmt.Errorf("sql: division by zero")
					}
					lv[i] /= rv[i]
				}
				return nil
			}), true, true
		default: // "%"
			// Modulo runs in the int64 domain, so "provably non-zero" must
			// hold after truncation: a constant like 0.5 truncates to 0 and
			// takes the runtime-checked arm, which raises the interpreter's
			// modulo-by-zero error instead of a divide panic.
			if c, isConst := constNonZero(t.R); isConst && int64(c) != 0 {
				ci := int64(c)
				return combine(func(_ []int, lv, _ []float64) error {
					for i := range lv {
						lv[i] = float64(int64(lv[i]) % ci)
					}
					return nil
				}), mayErr, true
			}
			return combine(func(_ []int, lv, rv []float64) error {
				for i := range lv {
					if int64(rv[i]) == 0 {
						return fmt.Errorf("sql: modulo by zero")
					}
					lv[i] = float64(int64(lv[i]) % int64(rv[i]))
				}
				return nil
			}), true, true
		}
	default:
		return nil, false, false
	}
}

// constNonZero reports whether e is a numeric literal other than zero —
// the denominators whose division can be compiled error-free. ParamRef
// denominators deliberately do NOT qualify: a shape-cache rebind can bind
// them to zero, so they keep the runtime-checked arm.
func constNonZero(e Expr) (float64, bool) {
	n, ok := e.(NumberLit)
	if !ok || n.Value == 0 {
		return 0, false
	}
	return n.Value, true
}

// compileColumnGather builds the typed gather loop for one point-cloud
// column: dst[i] = float64(col[rows[i]]), monomorphic per column type.
func compileColumnGather(col colstore.Column) numEval {
	switch c := col.(type) {
	case *colstore.F64Column:
		return gatherVals(c.Values())
	case *colstore.I64Column:
		return gatherVals(c.Values())
	case *colstore.I32Column:
		return gatherVals(c.Values())
	case *colstore.U16Column:
		return gatherVals(c.Values())
	case *colstore.U8Column:
		return gatherVals(c.Values())
	default:
		panic(fmt.Sprintf("sql: no gather loop for %T", col))
	}
}

// gatherVals is the gather loop over one typed column, instantiated per
// element type from the non-generic dispatch above.
func gatherVals[T colstore.Number](vals []T) numEval {
	return func(rows []int, dst []float64) error {
		for i, r := range rows {
			dst[i] = float64(vals[r])
		}
		return nil
	}
}
