package engine

import (
	"fmt"
	"time"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
)

// AggFunc is an aggregate function over a column.
type AggFunc uint8

// Supported aggregates.
const (
	AggCount AggFunc = iota + 1
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String renders the function name.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "?"
	}
}

// Aggregate computes fn over the named column restricted to the selection
// vector rows (nil means all rows). Count ignores the column name.
//
// Sum, min and max are fused into one typed pass per column type — no
// per-value closure, no interface dispatch — for both the all-rows and the
// selection-vector path. Accumulation stays in float64 in ascending row
// order, so results are bit-identical to the naive widening loop.
func (pc *PointCloud) Aggregate(rows []int, fn AggFunc, column string, ex *Explain) (float64, error) {
	return pc.AggregateRun(nil, rows, fn, column, ex)
}

// AggregateRun is Aggregate under a query lifecycle: one fused
// sum/min/max pass (aggPass, morsel.go) folds the selection in scanChunk
// blocks, polling the run's token at every block boundary. Min and max
// over large inputs fan across the resident worker set — strict folds
// merged in ascending-partition order are bit-identical at every degree.
// Sum and avg pin degree 1 — float addition is not associative, and sums
// are pinned bit-identical to the row-at-a-time loop — and count reads no
// values at all. A nil run behaves exactly like Aggregate.
func (pc *PointCloud) AggregateRun(run *Run, rows []int, fn AggFunc, column string, ex *Explain) (float64, error) {
	start := time.Now()
	n := len(rows)
	all := rows == nil
	if all {
		n = pc.Len()
	}
	if fn == AggCount {
		if ex != nil {
			ex.Add(opAggregate, "count(*)", n, 1, time.Since(start))
		}
		return float64(n), nil
	}
	col, err := pc.column(ex, column)
	if err != nil {
		return 0, err
	}
	deg := 1
	if fn == AggMin || fn == AggMax {
		deg = pc.morselDegree(run, n, true)
	}
	sum, lo, hi, err := runAggPass(run, col, rows, all, n, deg)
	if err != nil {
		return 0, err
	}
	if run.Cancelled() {
		return 0, cancel.ErrCancelled
	}
	var res float64
	switch fn {
	case AggSum:
		res = sum
	case AggAvg:
		if n == 0 {
			return 0, fmt.Errorf("engine: avg over empty selection")
		}
		res = sum / float64(n)
	case AggMin:
		if n == 0 {
			return 0, fmt.Errorf("engine: min over empty selection")
		}
		res = lo
	case AggMax:
		if n == 0 {
			return 0, fmt.Errorf("engine: max over empty selection")
		}
		res = hi
	default:
		return 0, fmt.Errorf("engine: unknown aggregate %d", fn)
	}
	if ex != nil {
		ex.Add(opAggregate, parDetail(fmt.Sprintf("%s(%s)", fn, column), deg), n, 1, time.Since(start))
	}
	return res, nil
}

// aggColumn continues the fused sum/min/max fold (sum, lo, hi) over the
// span [start, end) of the selection, dispatching to the typed kernel for
// col's concrete type. all scans the column span directly; otherwise
// rows[start:end] drives a selection-vector gather.
func aggColumn(col colstore.Column, rows []int, all bool, start, end int, sum, lo, hi float64) (float64, float64, float64) {
	if !all {
		rows = rows[start:end]
	}
	switch t := col.(type) {
	case *colstore.F64Column:
		return aggVals(colSpan(t.Values(), all, start, end), rows, all, sum, lo, hi)
	case *colstore.I64Column:
		return aggVals(colSpan(t.Values(), all, start, end), rows, all, sum, lo, hi)
	case *colstore.I32Column:
		return aggVals(colSpan(t.Values(), all, start, end), rows, all, sum, lo, hi)
	case *colstore.U16Column:
		return aggVals(colSpan(t.Values(), all, start, end), rows, all, sum, lo, hi)
	case *colstore.U8Column:
		return aggVals(colSpan(t.Values(), all, start, end), rows, all, sum, lo, hi)
	default:
		panic(fmt.Sprintf("engine: no aggregate loop for %T", col))
	}
}

// aggVals is the monomorphic fused sum/min/max loop, continuing the
// caller's accumulators. Values widen to float64 exactly as Column.Value
// does.
func aggVals[T colstore.Number](vals []T, rows []int, all bool, sum, lo, hi float64) (float64, float64, float64) {
	if all {
		for _, t := range vals {
			v := float64(t)
			sum += v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return sum, lo, hi
	}
	for _, r := range rows {
		v := float64(vals[r])
		sum += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return sum, lo, hi
}
