package engine

import (
	"fmt"
	"strings"
	"time"
)

// Canonical operator names used in EXPLAIN traces. The filter and refine
// operators all run through the compiled kernel layer (kernels.go); the
// names identify the plan stage, not the implementation strategy.
const (
	opFilterColumn   = "filter.column"   // thematic predicate kernel over a selection
	opImprintsFilter = "imprints.filter" // imprint candidate-range generation
	opAggregate      = "aggregate"       // typed aggregate kernel
	opGroupAgg       = "group.agg"       // grouped-aggregate kernel (dense/hash)
	opTileAgg        = "tile.agg"        // pyramid tile pre-aggregation build
	opGridRefine     = "grid.refine"     // spatial refinement over candidates
	opSelectRegion   = "select.region"   // spatial selection driver
	opImprintsBuild  = "imprints.build"  // one-time index construction
	opJoinCollect    = "join.collect"    // feature geometries of a spatial join
)

// Step is one operator's entry in an EXPLAIN trace.
type Step struct {
	Op       string
	Detail   string
	InRows   int
	OutRows  int
	Duration time.Duration
}

// Explain accumulates the per-operator execution trace the demo exposes to
// users in its second scenario ("the execution time spent in each
// operator", §4.2).
type Explain struct {
	Steps []Step
}

// Add appends a completed step.
func (e *Explain) Add(op, detail string, inRows, outRows int, d time.Duration) {
	if e == nil {
		return
	}
	e.Steps = append(e.Steps, Step{Op: op, Detail: detail, InRows: inRows, OutRows: outRows, Duration: d})
}

// parDetail tags an operator's step detail with its fan-out degree;
// degree 1 — the whole input as partition 0 — leaves it untouched.
func parDetail(detail string, deg int) string {
	if deg > 1 {
		return fmt.Sprintf("%s [par %d]", detail, deg)
	}
	return detail
}

// Total returns the summed operator time.
func (e *Explain) Total() time.Duration {
	if e == nil {
		return 0
	}
	var t time.Duration
	for _, s := range e.Steps {
		t += s.Duration
	}
	return t
}

// String renders the trace as an aligned table.
func (e *Explain) String() string {
	if e == nil || len(e.Steps) == 0 {
		return "(empty plan)"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %-34s %12s %12s %12s\n", "operator", "detail", "rows in", "rows out", "time")
	for _, s := range e.Steps {
		fmt.Fprintf(&sb, "%-22s %-34s %12d %12d %12s\n",
			s.Op, truncateDetail(s.Detail, 34), s.InRows, s.OutRows, s.Duration.Round(time.Microsecond))
	}
	fmt.Fprintf(&sb, "%-22s %-34s %12s %12s %12s\n", "total", "", "", "", e.Total().Round(time.Microsecond))
	return sb.String()
}

func truncateDetail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
