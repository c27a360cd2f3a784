// Vectorized execution kernels: a predicate is compiled ONCE per
// (column, operator) into a typed, op-specialised filter kernel, then applied
// block-at-a-time over candidate ranges or selection vectors. This is the
// MonetDB-style operator-at-a-time execution the paper's performance case
// rests on (§2.1.1): the per-row cost is a monomorphic compare plus a
// branchless selection-vector write, with no interface dispatch, no operator
// re-dispatch, and no float64 widening on integer columns.
//
// Constant-slot invariant: compiled kernels do NOT close over predicate
// constants. The constants live in a KernelArgs record the caller binds once
// per run (Kernel.Bind) and passes by value into every FilterBlock/FilterSel
// call. A kernel is therefore pure per (column backing array, operator) and
// one compiled kernel serves every constant vector — the paper's pan/zoom
// workload slides its bbox on every step, and with constants out of the
// kernel the plan cache hits on every one of them (plancache.go keys on
// (column, op) alone; NaN constants need no cache bypass anymore because they
// never reach a map key). Binding is cheap: floats are stored as-is, integer
// domains run constant normalisation (normalizeIntPred) once per run, never
// per row.
//
// Integer columns (u8, u16, i32) are filtered in their native integer
// domain. The predicate's float64 constant is normalised at bind time into an
// inclusive integer interval [lo, hi] clamped to the column type's range —
// non-integral constants, out-of-range constants, NaN and ±Inf all reduce
// to trivially-true / trivially-false shapes or a tightened bound, so the
// per-value loop never sees a conversion. Every value of these types is
// exactly representable in float64, which makes the integer-domain result
// bit-identical to the naive float-widening scan. i64 columns keep the
// float64-compare semantics of the naive path (their widening is lossy, and
// equivalence with the scan arms takes priority over shaving the cast).
package engine

import (
	"math"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
	"gisnav/internal/faultpoint"
)

// KernelArgs is the per-run constant-slot record of one compiled kernel:
// float-domain constants for the float kernels, plus the bind-time
// normalised integer shape and bounds for the integer-domain kernels. It is
// produced by Kernel.Bind and passed BY VALUE through the filter entry
// points — no pointer, so per-query binding never escapes to the heap and
// the zero-allocation steady state survives.
//
// tok is the run's cooperative cancellation token, set by the filter entry
// points after Bind (Bind itself stays a pure function of the constants).
// The chunk driver polls it once per scanChunk block — a nil-check plus one
// relaxed atomic load on the uncancellable paths — so a fired context stops
// a scan within one block without per-row cost.
type KernelArgs struct {
	f1, f2 float64  // float-domain predicate constants
	i1, i2 int64    // normalised integer bounds [i1, i2] (bind-time)
	shape  intShape // normalised integer-domain shape (bind-time)
	tok    *cancel.Token
}

// blockFn appends the row ids in [lo, hi) that satisfy the compiled
// predicate under args a to out and returns the extended slice.
type blockFn func(a KernelArgs, lo, hi int, out []int) []int

// selFn appends the row ids from rows that satisfy the compiled predicate
// under args a to out. out may alias rows[:0]: the write index never
// overtakes the read index, so in-place compaction is safe.
type selFn func(a KernelArgs, rows, out []int) []int

// bindFn normalises one predicate's constants into a KernelArgs record.
type bindFn func(v1, v2 float64) KernelArgs

// Kernel is a compiled (column, operator) pair bound to one column's backing
// array. Constants are NOT part of the kernel: Bind turns them into the
// KernelArgs every filter call takes, so one kernel serves every constant
// vector until the backing array moves (see plancache.go).
type Kernel struct {
	// Bind normalises predicate constants (Value, Value2) into the args
	// record subsequent FilterBlock/FilterSel calls read. Pure: safe for
	// concurrent binds of the same kernel.
	Bind bindFn
	// FilterBlock scans rows [lo, hi) of the column and appends matches to
	// out — the block-at-a-time entry point driven by imprint candidate
	// ranges.
	FilterBlock blockFn
	// FilterSel narrows an existing selection vector.
	FilterSel selFn
}

// CompileFilterKernel compiles the (column, op) pair into a kernel
// specialised for col's concrete type and the operator. Columns without a
// typed fast path (dictionary strings) fall back to a generic Value() loop
// with semantics identical to ColumnPred.Matches.
// Each arm below dispatches through a concrete-typed helper rather than a
// shared generic one: instantiating the per-op generic loops from inside
// another generic function would leave them on the compiler's gcshape
// dictionary path, which costs ~4x in the inner loop. One level of
// genericity, instantiated from non-generic code, compiles to fully
// specialised loops.
func CompileFilterKernel(col colstore.Column, op CmpOp) *Kernel {
	switch t := col.(type) {
	case *colstore.F64Column:
		return floatKernelF64(t.Values(), op)
	case *colstore.U8Column:
		return intKernelU8(t.Values(), op)
	case *colstore.U16Column:
		return intKernelU16(t.Values(), op)
	case *colstore.I32Column:
		return intKernelI32(t.Values(), op)
	case *colstore.I64Column:
		// Lossy widening: keep float64-compare semantics, but monomorphic.
		return floatKernelI64(t.Values(), op)
	default:
		return genericKernel(col, op)
	}
}

// BoundKernel pairs a compiled kernel with one bound constant record — the
// one-shot convenience for callers outside the plan-cache fast path (tests,
// benchmarks, ad-hoc tooling) that still think in terms of a fully
// constant-specialised kernel.
type BoundKernel struct {
	k *Kernel
	a KernelArgs
}

// FilterBlock scans rows [lo, hi) under the bound constants.
func (b *BoundKernel) FilterBlock(lo, hi int, out []int) []int {
	return b.k.FilterBlock(b.a, lo, hi, out)
}

// FilterSel narrows rows under the bound constants.
func (b *BoundKernel) FilterSel(rows, out []int) []int {
	return b.k.FilterSel(b.a, rows, out)
}

// CompileFilter compiles pred into a kernel with its constants pre-bound.
func CompileFilter(col colstore.Column, pred ColumnPred) *BoundKernel {
	k := CompileFilterKernel(col, pred.Op)
	return &BoundKernel{k: k, a: k.Bind(pred.Value, pred.Value2)}
}

// --- scan machinery -----------------------------------------------------------

// number covers the element types with typed kernel instantiations.
type number interface {
	~float64 | ~int64 | ~int32 | ~uint16 | ~uint8
}

// scanChunk is the block size of the branchless inner loops: small enough
// to stay cache resident, large enough to amortise both the capacity
// reserve and the per-chunk indirect dispatch.
const scanChunk = 1024

// chunkBlockFn writes the row ids in [lo, hi) (at most scanChunk rows)
// matching the compiled predicate under args a into buf and returns how many
// matched. buf must have room for hi-lo ids: the inner loops write every
// candidate unconditionally and advance the write index only on a match, so
// random selectivities pay no data-dependent branches.
type chunkBlockFn func(a KernelArgs, lo, hi int, buf []int) int

// chunkSelFn is the selection-vector counterpart: it writes the surviving
// ids of rows (at most scanChunk of them) into buf.
type chunkSelFn func(a KernelArgs, rows, buf []int) int

// The inner loops below materialise each comparison as a 0/1 increment
// written out longhand (`inc := 0; if cond { inc = 1 }; j += inc`) instead
// of through a helper: the compiler lowers the longhand shape to a
// branch-free SETcc, whereas a call to a tiny bool→int helper is NOT
// inlined inside gcshape-stenciled generic instantiations and costs a real
// CALL per row (measured ~4x on the u8 kernel). Compound predicates combine
// two flags with & — a && would reintroduce a data-dependent short-circuit
// branch that mispredicts at mid selectivities. The predicate constants are
// hoisted from the args record once per chunk call, so the row loops see
// plain locals.

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

// bindFloat stores the raw float-domain constants; the float kernels apply
// ColumnPred.Matches semantics (including NaN failing every operator except
// <>) directly in their compare loops.
func bindFloat(v1, v2 float64) KernelArgs { return KernelArgs{f1: v1, f2: v2} }

// chunkKernel wraps per-op chunk filters into a Kernel: it reserves output
// capacity per chunk and drives the monomorphic inner loops. n bounds block
// scans to the column length. The per-chunk indirect call amortises over
// scanChunk rows; the row-level loops stay direct.
//
// The selection path may compact in place (out aliasing rows[:0]): the
// chunk's unconditional writes land at indices never past the current read
// position, because matches emitted so far can't exceed rows consumed.
func chunkKernel(n int, bind bindFn, cb chunkBlockFn, cs chunkSelFn) *Kernel {
	return &Kernel{
		Bind: bind,
		FilterBlock: func(a KernelArgs, lo, hi int, out []int) []int {
			if hi > n {
				hi = n
			}
			for lo < hi {
				// Cancellation is polled per block, never per row; a fired
				// token returns the partial vector and the caller maps the
				// token state to the context error.
				if a.tok.Cancelled() {
					return out
				}
				_ = faultpoint.Hit("engine.kernel.chunk")
				end := min(lo+scanChunk, hi)
				cn := end - lo
				if cap(out)-len(out) < cn {
					out = growRows(out, cn)
				}
				j := cb(a, lo, end, out[len(out):len(out)+cn])
				out = out[:len(out)+j]
				lo = end
			}
			return out
		},
		FilterSel: func(a KernelArgs, rows, out []int) []int {
			for base := 0; base < len(rows); base += scanChunk {
				if a.tok.Cancelled() {
					return out
				}
				_ = faultpoint.Hit("engine.kernel.chunk")
				end := min(base+scanChunk, len(rows))
				cn := end - base
				if cap(out)-len(out) < cn {
					out = growRows(out, cn)
				}
				j := cs(a, rows[base:end], out[len(out):len(out)+cn])
				out = out[:len(out)+j]
			}
			return out
		},
	}
}

// --- float-domain kernels (f64 and widened i64) ------------------------------

// The float-domain loops compare float64-widened values against the
// predicate constants, exactly as ColumnPred.Matches does — including its
// NaN behaviour (NaN fails every operator except <>). One generic function
// per operator keeps the comparison in the function body, so every
// (type × op) pair stencils into a direct branch-free loop.

func feqKernel[T number](vals []T) *Kernel {
	return chunkKernel(len(vals), bindFloat, func(a KernelArgs, lo, hi int, buf []int) int {
		c := a.f1
		j := 0
		for k, v := range vals[lo:hi] {
			buf[j] = lo + k
			inc := 0
			if float64(v) == c {
				inc = 1
			}
			j += inc
		}
		return j
	},
		func(a KernelArgs, rows, buf []int) int {
			c := a.f1
			j := 0
			for _, r := range rows {
				buf[j] = r
				inc := 0
				if float64(vals[r]) == c {
					inc = 1
				}
				j += inc
			}
			return j
		})
}

func fneKernel[T number](vals []T) *Kernel {
	return chunkKernel(len(vals), bindFloat, func(a KernelArgs, lo, hi int, buf []int) int {
		c := a.f1
		j := 0
		for k, v := range vals[lo:hi] {
			buf[j] = lo + k
			inc := 0
			if float64(v) != c {
				inc = 1
			}
			j += inc
		}
		return j
	},
		func(a KernelArgs, rows, buf []int) int {
			c := a.f1
			j := 0
			for _, r := range rows {
				buf[j] = r
				inc := 0
				if float64(vals[r]) != c {
					inc = 1
				}
				j += inc
			}
			return j
		})
}

func fltKernel[T number](vals []T) *Kernel {
	return chunkKernel(len(vals), bindFloat, func(a KernelArgs, lo, hi int, buf []int) int {
		c := a.f1
		j := 0
		for k, v := range vals[lo:hi] {
			buf[j] = lo + k
			inc := 0
			if float64(v) < c {
				inc = 1
			}
			j += inc
		}
		return j
	},
		func(a KernelArgs, rows, buf []int) int {
			c := a.f1
			j := 0
			for _, r := range rows {
				buf[j] = r
				inc := 0
				if float64(vals[r]) < c {
					inc = 1
				}
				j += inc
			}
			return j
		})
}

func fleKernel[T number](vals []T) *Kernel {
	return chunkKernel(len(vals), bindFloat, func(a KernelArgs, lo, hi int, buf []int) int {
		c := a.f1
		j := 0
		for k, v := range vals[lo:hi] {
			buf[j] = lo + k
			inc := 0
			if float64(v) <= c {
				inc = 1
			}
			j += inc
		}
		return j
	},
		func(a KernelArgs, rows, buf []int) int {
			c := a.f1
			j := 0
			for _, r := range rows {
				buf[j] = r
				inc := 0
				if float64(vals[r]) <= c {
					inc = 1
				}
				j += inc
			}
			return j
		})
}

func fgtKernel[T number](vals []T) *Kernel {
	return chunkKernel(len(vals), bindFloat, func(a KernelArgs, lo, hi int, buf []int) int {
		c := a.f1
		j := 0
		for k, v := range vals[lo:hi] {
			buf[j] = lo + k
			inc := 0
			if float64(v) > c {
				inc = 1
			}
			j += inc
		}
		return j
	},
		func(a KernelArgs, rows, buf []int) int {
			c := a.f1
			j := 0
			for _, r := range rows {
				buf[j] = r
				inc := 0
				if float64(vals[r]) > c {
					inc = 1
				}
				j += inc
			}
			return j
		})
}

func fgeKernel[T number](vals []T) *Kernel {
	return chunkKernel(len(vals), bindFloat, func(a KernelArgs, lo, hi int, buf []int) int {
		c := a.f1
		j := 0
		for k, v := range vals[lo:hi] {
			buf[j] = lo + k
			inc := 0
			if float64(v) >= c {
				inc = 1
			}
			j += inc
		}
		return j
	},
		func(a KernelArgs, rows, buf []int) int {
			c := a.f1
			j := 0
			for _, r := range rows {
				buf[j] = r
				inc := 0
				if float64(vals[r]) >= c {
					inc = 1
				}
				j += inc
			}
			return j
		})
}

func frangeKernel[T number](vals []T) *Kernel {
	return chunkKernel(len(vals), bindFloat, func(a KernelArgs, b0, b1 int, buf []int) int {
		lo, hi := a.f1, a.f2
		j := 0
		for k, v := range vals[b0:b1] {
			buf[j] = b0 + k
			f := float64(v)
			// Two independent flags combined with & — a && here would
			// reintroduce a data-dependent short-circuit branch.
			ge, le := 0, 0
			if f >= lo {
				ge = 1
			}
			if f <= hi {
				le = 1
			}
			j += ge & le
		}
		return j
	},
		func(a KernelArgs, rows, buf []int) int {
			lo, hi := a.f1, a.f2
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
				j += ge & le
			}
			return j
		})
}

// floatKernelF64 builds the op-specialised float-domain kernel over a
// float64 column. It is deliberately concrete (see CompileFilterKernel): the
// generic per-op constructors instantiate here at a concrete type.
func floatKernelF64(vals []float64, op CmpOp) *Kernel {
	switch op {
	case CmpEQ:
		return feqKernel(vals)
	case CmpNE:
		return fneKernel(vals)
	case CmpLT:
		return fltKernel(vals)
	case CmpLE:
		return fleKernel(vals)
	case CmpGT:
		return fgtKernel(vals)
	case CmpGE:
		return fgeKernel(vals)
	case CmpBetween:
		return frangeKernel(vals)
	default:
		// Unknown operators match nothing, as in ColumnPred.Matches.
		return noneKernel()
	}
}

// floatKernelI64 is the float-compare kernel over an int64 column (lossy
// widening, identical to the naive arm's semantics).
func floatKernelI64(vals []int64, op CmpOp) *Kernel {
	switch op {
	case CmpEQ:
		return feqKernel(vals)
	case CmpNE:
		return fneKernel(vals)
	case CmpLT:
		return fltKernel(vals)
	case CmpLE:
		return fleKernel(vals)
	case CmpGT:
		return fgtKernel(vals)
	case CmpGE:
		return fgeKernel(vals)
	case CmpBetween:
		return frangeKernel(vals)
	default:
		return noneKernel()
	}
}

// --- integer-domain kernels ---------------------------------------------------

// integer covers the exactly-representable integer column element types.
type integer interface {
	~int32 | ~uint16 | ~uint8
}

// unsigned is the same-width unsigned counterpart used by the modular range
// trick (see intChunks).
type unsigned interface {
	~uint32 | ~uint16 | ~uint8
}

// intShape is the normalised form of a predicate over an integer domain.
// With constants bound per run, the shape is per-run state (KernelArgs), not
// compile-time structure: the chunk loops dispatch on it once per chunk.
type intShape uint8

const (
	shapeNone  intShape = iota // matches no value
	shapeAll                   // matches every value
	shapeNE                    // v != lo
	shapeEQ                    // v == lo (lo == hi)
	shapeLE                    // v <= hi (lo is the type minimum)
	shapeGE                    // v >= lo (hi is the type maximum)
	shapeRange                 // lo <= v <= hi
)

// normalizeIntPred reduces the float64 constants of (op, v1, v2) to an
// inclusive integer interval [lo, hi] over the type domain [tmin, tmax], or
// to one of the degenerate shapes. The reduction is exact: a value v in
// [tmin, tmax] satisfies the original float-domain predicate iff it
// satisfies the returned shape. It runs once per bind, never per row.
func normalizeIntPred(op CmpOp, v1, v2 float64, tmin, tmax int64) (shape intShape, lo, hi int64) {
	c := v1
	if op == CmpNE {
		// v != c holds for every integer v unless c is an integral value
		// inside the domain.
		if math.IsNaN(c) || c != math.Trunc(c) || c < float64(tmin) || c > float64(tmax) {
			return shapeAll, 0, 0
		}
		return shapeNE, int64(c), int64(c)
	}
	// Express the operator as a float-domain inclusive interval [flo, fhi].
	flo, fhi := math.Inf(-1), math.Inf(1)
	switch op {
	case CmpEQ:
		// ceil/floor cross for non-integral constants, yielding the empty
		// interval; for integral constants both equal c.
		flo, fhi = math.Ceil(c), math.Floor(c)
	case CmpLT:
		fhi = math.Ceil(c) - 1 // v < c  ⇔  v <= ceil(c)-1 for integer v
	case CmpLE:
		fhi = math.Floor(c)
	case CmpGT:
		flo = math.Floor(c) + 1
	case CmpGE:
		flo = math.Ceil(c)
	case CmpBetween:
		flo, fhi = math.Ceil(c), math.Floor(v2)
	default:
		return shapeNone, 0, 0
	}
	// NaN constants fail every ordered comparison.
	if math.IsNaN(flo) || math.IsNaN(fhi) {
		return shapeNone, 0, 0
	}
	// Clamp to the type domain in the float domain first, so ±Inf and
	// constants beyond int64 never reach an integer conversion.
	if flo > float64(tmax) || fhi < float64(tmin) {
		return shapeNone, 0, 0
	}
	lo, hi = tmin, tmax
	if flo > float64(tmin) {
		lo = int64(flo)
	}
	if fhi < float64(tmax) {
		hi = int64(fhi)
	}
	switch {
	case lo > hi:
		return shapeNone, 0, 0
	case lo == tmin && hi == tmax:
		return shapeAll, lo, hi
	case lo == hi:
		return shapeEQ, lo, hi
	case lo == tmin:
		return shapeLE, lo, hi
	case hi == tmax:
		return shapeGE, lo, hi
	default:
		return shapeRange, lo, hi
	}
}

// bindInt builds the bind step of an integer-domain kernel: it normalises
// the run's constants into the shape + bounds the chunk loops dispatch on.
func bindInt(op CmpOp, tmin, tmax int64) bindFn {
	return func(v1, v2 float64) KernelArgs {
		shape, lo, hi := normalizeIntPred(op, v1, v2, tmin, tmax)
		return KernelArgs{shape: shape, i1: lo, i2: hi}
	}
}

// intChunks builds the shape-dispatching native-integer-domain chunk loops
// over one column. The dispatch runs once per chunk (1024 rows), the
// per-shape loops are written out longhand so each stays a direct
// branch-free scan; the range shape tests lo <= v <= hi with one compare
// via modular arithmetic (for lo <= hi, v ∈ [lo, hi] iff U(v-lo) <= U(hi-lo)
// in the same-width unsigned domain U — two's-complement wraparound makes
// this exact for signed T as well).
func intChunks[T integer, U unsigned](vals []T) (chunkBlockFn, chunkSelFn) {
	block := func(a KernelArgs, b0, b1 int, buf []int) int {
		j := 0
		switch a.shape {
		case shapeNone:
		case shapeAll:
			for k := range vals[b0:b1] {
				buf[j] = b0 + k
				j++
			}
		case shapeEQ:
			c := T(a.i1)
			for k, v := range vals[b0:b1] {
				buf[j] = b0 + k
				inc := 0
				if v == c {
					inc = 1
				}
				j += inc
			}
		case shapeNE:
			c := T(a.i1)
			for k, v := range vals[b0:b1] {
				buf[j] = b0 + k
				inc := 0
				if v != c {
					inc = 1
				}
				j += inc
			}
		case shapeLE:
			c := T(a.i2)
			for k, v := range vals[b0:b1] {
				buf[j] = b0 + k
				inc := 0
				if v <= c {
					inc = 1
				}
				j += inc
			}
		case shapeGE:
			c := T(a.i1)
			for k, v := range vals[b0:b1] {
				buf[j] = b0 + k
				inc := 0
				if v >= c {
					inc = 1
				}
				j += inc
			}
		default: // shapeRange
			lo := T(a.i1)
			span := U(T(a.i2)) - U(lo)
			for k, v := range vals[b0:b1] {
				buf[j] = b0 + k
				inc := 0
				if U(v)-U(lo) <= span {
					inc = 1
				}
				j += inc
			}
		}
		return j
	}
	sel := func(a KernelArgs, rows, buf []int) int {
		j := 0
		switch a.shape {
		case shapeNone:
		case shapeAll:
			for _, r := range rows {
				buf[j] = r
				j++
			}
		case shapeEQ:
			c := T(a.i1)
			for _, r := range rows {
				buf[j] = r
				inc := 0
				if vals[r] == c {
					inc = 1
				}
				j += inc
			}
		case shapeNE:
			c := T(a.i1)
			for _, r := range rows {
				buf[j] = r
				inc := 0
				if vals[r] != c {
					inc = 1
				}
				j += inc
			}
		case shapeLE:
			c := T(a.i2)
			for _, r := range rows {
				buf[j] = r
				inc := 0
				if vals[r] <= c {
					inc = 1
				}
				j += inc
			}
		case shapeGE:
			c := T(a.i1)
			for _, r := range rows {
				buf[j] = r
				inc := 0
				if vals[r] >= c {
					inc = 1
				}
				j += inc
			}
		default: // shapeRange
			lo := T(a.i1)
			span := U(T(a.i2)) - U(lo)
			for _, r := range rows {
				buf[j] = r
				inc := 0
				if U(vals[r])-U(lo) <= span {
					inc = 1
				}
				j += inc
			}
		}
		return j
	}
	return block, sel
}

// intKernelU8 builds the native-integer-domain kernel over a u8 column. The
// three intKernel* helpers are concrete clones of one instantiation: routing
// them through a shared generic dispatcher would nest the chunk-loop
// instantiations onto the slow gcshape dictionary path (see
// CompileFilterKernel).
func intKernelU8(vals []uint8, op CmpOp) *Kernel {
	cb, cs := intChunks[uint8, uint8](vals)
	return chunkKernel(len(vals), bindInt(op, 0, math.MaxUint8), cb, cs)
}

// intKernelU16 is the u16 instantiation of the integer-domain kernel.
func intKernelU16(vals []uint16, op CmpOp) *Kernel {
	cb, cs := intChunks[uint16, uint16](vals)
	return chunkKernel(len(vals), bindInt(op, 0, math.MaxUint16), cb, cs)
}

// intKernelI32 is the i32 instantiation of the integer-domain kernel.
func intKernelI32(vals []int32, op CmpOp) *Kernel {
	cb, cs := intChunks[int32, uint32](vals)
	return chunkKernel(len(vals), bindInt(op, math.MinInt32, math.MaxInt32), cb, cs)
}

// noneKernel rejects every row (unknown operators, as ColumnPred.Matches).
func noneKernel() *Kernel {
	return &Kernel{
		Bind:        bindFloat,
		FilterBlock: func(_ KernelArgs, _, _ int, out []int) []int { return out },
		FilterSel:   func(_ KernelArgs, _, out []int) []int { return out },
	}
}

// genericKernel is the interface-dispatch fallback for columns without a
// typed fast path; it preserves ColumnPred.Matches semantics exactly by
// rebuilding the predicate from the args record per call.
func genericKernel(col colstore.Column, op CmpOp) *Kernel {
	return &Kernel{
		Bind: bindFloat,
		FilterBlock: func(a KernelArgs, lo, hi int, out []int) []int {
			pred := ColumnPred{Op: op, Value: a.f1, Value2: a.f2}
			if n := col.Len(); hi > n {
				hi = n
			}
			// Block-granular cancellation, like the typed chunk driver; the
			// per-row interface dispatch dwarfs the masked counter check.
			for i := lo; i < hi; i++ {
				if (i-lo)%scanChunk == 0 && a.tok.Cancelled() {
					return out
				}
				if pred.Matches(col.Value(i)) {
					out = append(out, i)
				}
			}
			return out
		},
		FilterSel: func(a KernelArgs, rows, out []int) []int {
			pred := ColumnPred{Op: op, Value: a.f1, Value2: a.f2}
			for i, r := range rows {
				if i%scanChunk == 0 && a.tok.Cancelled() {
					return out
				}
				if pred.Matches(col.Value(r)) {
					out = append(out, r)
				}
			}
			return out
		},
	}
}

// Pooled selection vectors live in pool.go (getRowBuf / RecycleRows): a
// striped mutex-backed free list shared with the candidate-range pool.
