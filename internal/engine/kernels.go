// Vectorized execution kernels: a predicate is compiled ONCE per
// (column, operator) into a typed filter kernel, then applied
// block-at-a-time over candidate ranges or selection vectors. This is the
// MonetDB-style operator-at-a-time execution the paper's performance case
// rests on (§2.1.1): the per-row cost is a monomorphic compare plus a
// branchless selection-vector write, with no interface dispatch, no operator
// re-dispatch, and no float64 widening on integer columns.
//
// One interval, one loop per value domain. Every operator binds to one
// closed interval [lo, hi] plus a complement flag (bindInterval, the only
// place an operator is interpreted): `=` is [c, c], `<` is
// [-Inf, nextDown(c)], `<>` is the complement of [c, c], and so on. The
// kernels then run exactly two loop pairs, one block loop and one selection
// loop per domain:
//
//   - float-compare (f64, widened i64): j += (v >= lo & v <= hi) ^ inv, with
//     ColumnPred.Matches' NaN semantics falling out of IEEE compares;
//   - native integer (u8, u16, i32): the bounds are ceil(lo)/floor(hi)
//     clamped to the type, tested with one 64-bit modular compare
//     uint64(v-lo) <= uint64(hi-lo); the complement is folded into the
//     bounds as the wrapped interval [hi+1, lo-1], so this loop has no
//     XOR. These types embed exactly in float64, so the result is
//     bit-identical to the float-widening scan.
//
// Never re-add a per-operator loop without a navbench workload that needs it.
//
// Constant-slot invariant, held by the types: a Kernel is an operator, a
// length and one loop struct (floatLoops or intLoops) whose only field is
// the column's backing array, so no compiled kernel can hold a predicate
// constant. The constants live in a KernelArgs record the caller binds once
// per run (Kernel.Bind) and passes by value into every FilterBlock/FilterSel
// call. A kernel is therefore pure per (column backing array, operator) and
// one compiled kernel serves every constant vector — the paper's pan/zoom
// workload slides its bbox on every step, and with constants out of the
// kernel the plan cache hits on every one of them (plancache.go keys on
// (column, op) alone; NaN constants never reach a map key).
// TestKernelsHoldNoConstant walks every column type × operator kernel with
// reflect and fails on any float, 64-bit integer or func field.
package engine

import (
	"fmt"
	"math"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
	"gisnav/internal/faultpoint"
)

// KernelArgs is the per-run constant-slot record of one compiled kernel: the
// predicate's bind-time interval [lo, hi] and complement flag. The integer
// kernels' bounds are integers whose interval wraps (hi < lo) in place of
// the flag (see intLoops.bind). It is produced by Kernel.Bind and passed BY
// VALUE through the filter entry points — no pointer, so per-query binding
// never escapes to the heap and the zero-allocation steady state survives.
//
// tok is the run's cooperative cancellation token, set by the filter entry
// points after Bind (Bind itself stays a pure function of the constants).
// The chunk driver polls it once per scanChunk block through Blocks — a
// nil-check plus one relaxed atomic load on the uncancellable paths — so a
// fired context stops a scan within one block without per-row cost.
type KernelArgs struct {
	lo, hi float64 // inclusive bounds
	inv    int     // 1: the predicate is the interval's complement (float kernels)
	tok    *cancel.Token
}

// bindInterval maps (op, v1, v2) to the closed interval [lo, hi] plus
// complement flag the kernels test: a value v satisfies the predicate under
// ColumnPred.Matches iff (lo <= v && v <= hi) != inv. This is the only
// function that interprets an operator; the float bind, the integer bind
// and predHint all read it.
//
// NaN needs no special case: a NaN bound (or value) fails both ordered
// compares, so every ordered test is false and `<>` — the complement — is
// true, exactly as in Matches. An empty interval is [+Inf, -Inf].
func bindInterval(op CmpOp, v1, v2 float64) (lo, hi float64, inv bool) {
	inf := math.Inf(1)
	switch op {
	case CmpEQ:
		return v1, v1, false
	case CmpNE:
		return v1, v1, true
	case CmpLT:
		if v1 == -inf {
			break
		}
		return -inf, math.Nextafter(v1, -inf), false
	case CmpLE:
		return -inf, v1, false
	case CmpGT:
		if v1 == inf {
			break
		}
		return math.Nextafter(v1, inf), inf, false
	case CmpGE:
		return v1, inf, false
	case CmpBetween:
		return v1, v2, false
	}
	// Unknown operators (and < -Inf, > +Inf) match nothing.
	return inf, -inf, false
}

// Kernel is a compiled (column, operator) pair bound to one column's backing
// array. Constants are NOT part of the kernel: Bind turns them into the
// KernelArgs every filter call takes, so one kernel serves every constant
// vector until the backing array moves (see plancache.go).
type Kernel struct {
	op    CmpOp
	n     int // column length: block scans stop here
	loops chunkLoops
}

// chunkLoops is one value domain's loop pair over one column, plus the bind
// that maps an operator's constants onto the interval the loops test.
// floatLoops and intLoops are its only implementations.
//
// block writes the row ids in [lo, hi) (at most scanChunk rows) matching
// args a into buf and returns how many matched; sel writes the surviving
// ids of rows (at most scanChunk of them). buf must have room for every
// candidate: the loops write each one unconditionally and advance the write
// index only on a match, so random selectivities pay no data-dependent
// branches.
type chunkLoops interface {
	bind(op CmpOp, v1, v2 float64) KernelArgs
	block(a KernelArgs, lo, hi int, buf []int) int
	sel(a KernelArgs, rows, buf []int) int
}

// CompileFilterKernel compiles the (column, op) pair into a kernel
// specialised for col's concrete type; the operator only selects the bind.
// Each arm instantiates a generic loop struct directly from this non-generic
// function: nesting the instantiation inside another generic function would
// leave the loops on the compiler's gcshape dictionary path, which costs ~4x
// in the inner loop.
func CompileFilterKernel(col colstore.Column, op CmpOp) *Kernel {
	var loops chunkLoops
	switch t := col.(type) {
	case *colstore.F64Column:
		loops = &floatLoops[float64]{t.Values()}
	case *colstore.U8Column:
		loops = &intLoops[uint8]{t.Values()}
	case *colstore.U16Column:
		loops = &intLoops[uint16]{t.Values()}
	case *colstore.I32Column:
		loops = &intLoops[int32]{t.Values()}
	case *colstore.I64Column:
		// Lossy widening: keep float64-compare semantics, but monomorphic.
		loops = &floatLoops[int64]{t.Values()}
	default:
		panic(fmt.Sprintf("engine: no filter kernel for %T", col))
	}
	return &Kernel{op: op, n: col.Len(), loops: loops}
}

// Bind normalises predicate constants (Value, Value2) into the args record
// subsequent FilterBlock/FilterSel calls read. Pure: safe for concurrent
// binds of the same kernel.
func (k *Kernel) Bind(v1, v2 float64) KernelArgs { return k.loops.bind(k.op, v1, v2) }

// --- scan machinery -----------------------------------------------------------

// scanChunk is the block size of the branchless inner loops: small enough
// to stay cache resident, large enough to amortise both the capacity
// reserve and the per-chunk method dispatch.
const scanChunk = 1024

// The inner loops below materialise each comparison as a 0/1 increment
// written out longhand (`inc := 0; if cond { inc = 1 }`) instead of through
// a helper: the compiler lowers the longhand shape to a branch-free SETcc,
// whereas a call to a tiny bool→int helper is NOT inlined inside
// gcshape-stenciled generic instantiations and costs a real CALL per row
// (measured ~4x on the u8 kernel). The float loop combines its two flags
// with & — a && would reintroduce a data-dependent short-circuit branch
// that mispredicts at mid selectivities. The bound args are hoisted once
// per chunk call, so the row loops see plain locals.

// growRows extends out's capacity to hold n more elements.
func growRows(out []int, n int) []int {
	need := len(out) + n
	newCap := 2 * cap(out)
	if newCap < need {
		newCap = need
	}
	if newCap < 64 {
		newCap = 64
	}
	grown := make([]int, len(out), newCap)
	copy(grown, out)
	return grown
}

// FilterBlock scans rows [lo, hi) of the column and appends the matches
// under args a to out — the block-at-a-time entry point driven by imprint
// candidate ranges. It reserves output capacity per chunk and drives the
// monomorphic inner loops; the per-chunk method call amortises over
// scanChunk rows. A fired token returns the partial vector, and the caller
// maps the token state to the context error.
func (k *Kernel) FilterBlock(a KernelArgs, lo, hi int, out []int) []int {
	for b0, b1 := range a.tok.Blocks(lo, min(hi, k.n), scanChunk) {
		_ = faultpoint.Hit("engine.kernel.chunk")
		cn := b1 - b0
		if cap(out)-len(out) < cn {
			out = growRows(out, cn)
		}
		j := k.loops.block(a, b0, b1, out[len(out):len(out)+cn])
		out = out[:len(out)+j]
	}
	return out
}

// FilterSel appends the row ids from rows that match under args a to out.
// out may alias rows[:0]: a chunk's unconditional writes land at indices
// never past the current read position, because matches emitted so far
// cannot exceed rows consumed.
func (k *Kernel) FilterSel(a KernelArgs, rows, out []int) []int {
	for b0, b1 := range a.tok.Blocks(0, len(rows), scanChunk) {
		_ = faultpoint.Hit("engine.kernel.chunk")
		cn := b1 - b0
		if cap(out)-len(out) < cn {
			out = growRows(out, cn)
		}
		j := k.loops.sel(a, rows[b0:b1], out[len(out):len(out)+cn])
		out = out[:len(out)+j]
	}
	return out
}

// --- float-compare domain (f64 and widened i64) -------------------------------

// floatLoops is the float-compare loop pair: one block loop, one selection
// loop, every operator.
type floatLoops[T float64 | int64] struct{ vals []T }

// bind binds op's interval as-is: the float loop compares float64-widened
// values against it exactly as ColumnPred.Matches does.
func (*floatLoops[T]) bind(op CmpOp, v1, v2 float64) KernelArgs {
	lo, hi, inv := bindInterval(op, v1, v2)
	a := KernelArgs{lo: lo, hi: hi}
	if inv {
		a.inv = 1
	}
	return a
}

func (l *floatLoops[T]) block(a KernelArgs, b0, b1 int, buf []int) int {
	lo, hi, inv := a.lo, a.hi, a.inv
	j := 0
	for k, v := range l.vals[b0:b1] {
		buf[j] = b0 + k
		f := float64(v)
		ge, le := 0, 0
		if f >= lo {
			ge = 1
		}
		if f <= hi {
			le = 1
		}
		j += (ge & le) ^ inv
	}
	return j
}

func (l *floatLoops[T]) sel(a KernelArgs, rows, buf []int) int {
	vals := l.vals
	lo, hi, inv := a.lo, a.hi, a.inv
	j := 0
	for _, r := range rows {
		buf[j] = r
		f := float64(vals[r])
		ge, le := 0, 0
		if f >= lo {
			ge = 1
		}
		if f <= hi {
			le = 1
		}
		j += (ge & le) ^ inv
	}
	return j
}

// --- native-integer domain (u8, u16, i32) -------------------------------------

// intLoops is the native-integer-domain loop pair: one block loop, one
// selection loop, every operator. lo <= v <= hi is one compare in modular
// arithmetic: v ∈ [lo, hi] iff uint64(v-lo) <= uint64(hi-lo). Widening to 64
// bits (sign-extending i32) lets the bound interval wrap past the type's
// range, which is how bind expresses a complement without a flag.
type intLoops[T uint8 | uint16 | int32] struct{ vals []T }

// bind narrows op's float interval to the integers of T's range
// [tmin, tmax] and folds its complement flag away, so the integer loop never
// reads inv. An integer v lies in [lo, hi] iff it lies in
// [ceil(lo), floor(hi)], which is exact because every value of these types
// embeds in float64; an interval that empties (a non-integral `=`, crossed,
// out-of-range or NaN bounds) is the complement of the whole domain. The
// complement of [lo, hi] is the wrapped interval [hi+1, lo-1] of the 64-bit
// ring the loop compares in — for the whole domain, [tmax+1, tmin-1], which
// holds no value of the type.
func (*intLoops[T]) bind(op CmpOp, v1, v2 float64) KernelArgs {
	var tmin, tmax float64
	switch any(T(0)).(type) {
	case uint8:
		tmin, tmax = 0, math.MaxUint8
	case uint16:
		tmin, tmax = 0, math.MaxUint16
	default:
		tmin, tmax = math.MinInt32, math.MaxInt32
	}
	lo, hi, inv := bindInterval(op, v1, v2)
	lo, hi = max(math.Ceil(lo), tmin), min(math.Floor(hi), tmax)
	if !(lo <= hi) {
		lo, hi, inv = tmin, tmax, !inv
	}
	if inv {
		lo, hi = hi+1, lo-1
	}
	return KernelArgs{lo: lo, hi: hi}
}

func (l *intLoops[T]) block(a KernelArgs, b0, b1 int, buf []int) int {
	lo := uint64(int64(a.lo))
	span := uint64(int64(a.hi)) - lo
	j := 0
	for k, v := range l.vals[b0:b1] {
		buf[j] = b0 + k
		inc := 0
		if uint64(v)-lo <= span {
			inc = 1
		}
		j += inc
	}
	return j
}

func (l *intLoops[T]) sel(a KernelArgs, rows, buf []int) int {
	vals := l.vals
	lo := uint64(int64(a.lo))
	span := uint64(int64(a.hi)) - lo
	j := 0
	for _, r := range rows {
		buf[j] = r
		inc := 0
		if uint64(vals[r])-lo <= span {
			inc = 1
		}
		j += inc
	}
	return j
}

// Pooled selection vectors live in pool.go (getRowBuf / RecycleRows): a
// striped mutex-backed free list shared with the candidate-range pool.
