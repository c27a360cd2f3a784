package engine

import (
	"fmt"
	"time"

	"gisnav/internal/cancel"
	"gisnav/internal/faultpoint"
)

// CmpOp is a comparison operator for thematic column predicates.
type CmpOp uint8

// Supported comparison operators.
const (
	CmpEQ CmpOp = iota + 1
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
	CmpBetween // inclusive [Value, Value2]
)

// String renders the operator.
func (op CmpOp) String() string {
	switch op {
	case CmpEQ:
		return "="
	case CmpNE:
		return "<>"
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	case CmpBetween:
		return "between"
	default:
		return "?"
	}
}

// ColumnPred is a thematic predicate over one flat-table column, e.g.
// classification = 6 or z BETWEEN 0 AND 10. Values are compared in the
// column's float64 widening.
type ColumnPred struct {
	Column string
	Op     CmpOp
	Value  float64
	Value2 float64 // upper bound for CmpBetween
}

// Matches evaluates the predicate against a single value.
func (p ColumnPred) Matches(v float64) bool {
	switch p.Op {
	case CmpEQ:
		return v == p.Value
	case CmpNE:
		return v != p.Value
	case CmpLT:
		return v < p.Value
	case CmpLE:
		return v <= p.Value
	case CmpGT:
		return v > p.Value
	case CmpGE:
		return v >= p.Value
	case CmpBetween:
		return v >= p.Value && v <= p.Value2
	default:
		return false
	}
}

// String renders the predicate.
func (p ColumnPred) String() string {
	if p.Op == CmpBetween {
		return fmt.Sprintf("%s between %g and %g", p.Column, p.Value, p.Value2)
	}
	return fmt.Sprintf("%s %s %g", p.Column, p.Op, p.Value)
}

// FilterRows narrows a selection vector with thematic predicates, one
// operator-at-a-time pass per predicate (the MonetDB execution style the
// paper leans on, §2.1.1). A nil rows input means "all rows".
//
// The input slice is never modified: when preds is non-empty the result is
// a fresh (pooled) selection vector, and when preds is empty the input is
// returned unchanged (or an all-rows vector when rows is nil). Callers that
// are done with a returned vector may hand it back via RecycleRows.
func (pc *PointCloud) FilterRows(rows []int, preds []ColumnPred, ex *Explain) ([]int, error) {
	return pc.FilterRowsRun(nil, rows, preds, ex)
}

// FilterRowsRun is FilterRows under a query lifecycle: owned buffers are
// registered in run's release list (so a panic anywhere below unwinds
// without leaking them), each predicate pass polls the run's cancellation
// token at block boundaries, and a fired token surfaces as
// cancel.ErrCancelled with the owned buffer already recycled. A nil run
// behaves exactly like FilterRows.
func (pc *PointCloud) FilterRowsRun(run *Run, rows []int, preds []ColumnPred, ex *Explain) ([]int, error) {
	owned := false
	for _, pred := range preds {
		if err := faultpoint.Hit("engine.filter.block"); err != nil {
			if owned {
				run.RecycleRows(rows)
			}
			return nil, err
		}
		if run.Cancelled() {
			if owned {
				run.RecycleRows(rows)
			}
			return nil, cancel.ErrCancelled
		}
		col := pc.Column(pred.Column)
		if col == nil {
			if owned {
				run.RecycleRows(rows)
			}
			return nil, fmt.Errorf("engine: unknown column %q", pred.Column)
		}
		k := pc.compileFilterCached(col, pred.Column, pred.Op)
		// Bind the run's constants into the per-run slot record; the cached
		// kernel itself is constant-free (see kernels.go). The cancellation
		// token rides in the args record so the chunk driver can poll it.
		a := k.Bind(pred.Value, pred.Value2)
		a.tok = run.Token()
		start := time.Now()
		switch {
		case rows == nil:
			// First predicate over the whole table: drive the block kernel
			// over the full column instead of materialising an identity
			// vector. The buffer is tracked before the call (a panic
			// mid-kernel must not strand it) and swapped for the final
			// slice after — the drive may grow (and so reallocate) what it
			// was handed. Large tables fan across the resident worker set
			// (morsel.go); the vector is sized for the whole table, so the
			// ascending merge appends without growth.
			buf := run.TrackRows(getRowBuf(pc.Len()))
			deg := pc.morselDegree(run, pc.Len())
			res, ferr := filterAll(k, a, pc.Len(), deg, buf)
			rows = run.SwapRows(buf, res)
			if ferr != nil {
				run.RecycleRows(rows)
				return nil, ferr
			}
			owned = true
			if ex != nil {
				ex.Add(opFilterColumn, parDetail(pred.String(), deg), pc.Len(), len(rows), time.Since(start))
			}
		case !owned:
			// Copy-on-first-write: the caller keeps its slice untouched.
			// Same track-then-swap discipline as the block arm.
			in := len(rows)
			buf := run.TrackRows(getRowBuf(in))
			rows = run.SwapRows(buf, k.FilterSel(a, rows, buf))
			owned = true
			if ex != nil {
				ex.Add(opFilterColumn, pred.String(), in, len(rows), time.Since(start))
			}
		default:
			// We own the buffer now; compact in place (the write index
			// never overtakes the read index, and the backing array never
			// grows, so the release-list identity holds).
			in := len(rows)
			rows = k.FilterSel(a, rows, rows[:0])
			if ex != nil {
				ex.Add(opFilterColumn, pred.String(), in, len(rows), time.Since(start))
			}
		}
	}
	if run.Cancelled() {
		// The token may have fired inside the last kernel, leaving a
		// partial vector — never hand partial results to the caller.
		if owned {
			run.RecycleRows(rows)
		}
		return nil, cancel.ErrCancelled
	}
	if rows == nil {
		// No predicates over a nil selection: all rows, as before. The
		// capacity hint covers every append, so tracking at acquisition is
		// safe.
		rows = run.AcquireRows(pc.Len())
		for i, n := 0, pc.Len(); i < n; i++ {
			rows = append(rows, i)
		}
	}
	return rows, nil
}
