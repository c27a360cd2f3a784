package engine

import (
	"fmt"

	"gisnav/internal/morsel"
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

// aggOne is the scratch of one Aggregate call: its one-spec plan and the
// record the fold lands in, recycled so a repeated call allocates nothing.
type aggOne struct {
	specs [1]GroupedAggSpec
	res   GroupedResult
}

var aggOnes morsel.FreeList[aggOne]

// Aggregate computes fn over the named column restricted to the selection
// vector rows (nil means all rows): the key-less grouped fold of one spec
// (GroupedAggregateRun with an empty key). Count ignores the column name;
// over an empty selection count and sum are 0 and avg, min and max are
// errors. Accumulation stays in float64 in ascending row order, so results
// are bit-identical to the naive widening loop at every degree.
func (pc *PointCloud) Aggregate(rows []int, fn AggFunc, column string, ex *Explain) (float64, error) {
	a := aggOnes.Get()
	defer aggOnes.Put(a)
	a.specs[0] = GroupedAggSpec{Fn: fn, Column: column}
	if err := pc.GroupedAggregateRun(nil, rows, nil, "", a.specs[:], &a.res, ex); err != nil {
		return 0, err
	}
	if len(a.res.Keys) > 0 {
		return a.res.Cols[0][0], nil
	}
	if fn == AggCount || fn == AggSum {
		return 0, nil
	}
	return 0, fmt.Errorf("engine: %s over empty selection", fn)
}
