package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"gisnav/internal/bench"
	"gisnav/internal/engine"
	"gisnav/internal/sql"
)

// --- E16: morsel-driven parallel execution -------------------------------------

// parallelDegrees is the scaling curve E16 publishes. Degrees past
// GOMAXPROCS still execute real multi-partition passes (excess partitions
// queue on the resident workers), so the bit-identity checks hold on any
// machine; the speedup column is only meaningful up to the core count,
// which the JSON report records alongside the curve.
var parallelDegrees = []int{1, 2, 4}

// expParallel measures the PR 8 morsel fan-out on the same 1M-point cloud
// as E14, one arm per parallel driver:
//
//   - filter: compiled predicate kernel over the full column,
//   - agg: the fused min/max pass (sum/avg stay serial by the float
//     determinism invariant),
//   - grouped dense (u8 class key) and grouped hash (f64 gps_time key)
//     with merge-exact specs (count/min/max).
//
// Every parallel result is checked bit-identical to the serial one before
// its timing is published — the determinism contract is part of the
// experiment, not just the test suite. E16b drives the same shapes through
// the SQL layer with the executor capped at degree 4 and publishes guarded
// steady records.
func expParallel(env *benchEnv, w io.Writer, repeats int) {
	pc := buildGroupedCloud()
	db := engine.NewDB()
	db.RegisterPointCloud("cloud1m", pc)
	preds := []engine.ColumnPred{{Column: engine.ColZ, Op: engine.CmpGT, Value: 5}}
	exact := []engine.GroupedAggSpec{
		{Fn: engine.AggCount},
		{Fn: engine.AggMin, Column: engine.ColZ},
		{Fn: engine.AggMax, Column: engine.ColGPSTime},
	}
	parRun := func(deg int) *engine.Run {
		run := new(engine.Run)
		run.SetMaxParallel(deg)
		return run
	}

	// Serial truths, once.
	serialRows, err := pc.FilterRows(nil, preds, nil)
	if err != nil {
		fmt.Fprintln(w, "E16:", err)
		return
	}
	serialMax, err := pc.Aggregate(nil, engine.AggMax, engine.ColZ, nil)
	if err != nil {
		fmt.Fprintln(w, "E16:", err)
		return
	}
	var serialDense, serialHash engine.GroupedResult
	if err := pc.GroupedAggregate(nil, engine.ColClassification, exact, &serialDense, nil); err != nil {
		fmt.Fprintln(w, "E16:", err)
		return
	}
	if err := pc.GroupedAggregate(nil, engine.ColGPSTime, exact, &serialHash, nil); err != nil {
		fmt.Fprintln(w, "E16:", err)
		return
	}

	sameGrouped := func(a, b *engine.GroupedResult) bool {
		if a.Strategy != b.Strategy || len(a.Keys) != len(b.Keys) || len(a.Cols) != len(b.Cols) {
			return false
		}
		for i := range a.Keys {
			if math.Float64bits(a.Keys[i]) != math.Float64bits(b.Keys[i]) {
				return false
			}
		}
		for c := range a.Cols {
			for i := range a.Cols[c] {
				if math.Float64bits(a.Cols[c][i]) != math.Float64bits(b.Cols[c][i]) {
					return false
				}
			}
		}
		return true
	}

	type arm struct {
		name string
		// run executes one pass at the given degree and reports whether the
		// result is bit-identical to the serial truth.
		run func(run *engine.Run) bool
	}
	var res engine.GroupedResult
	arms := []arm{
		{"parallel_filter_1m", func(run *engine.Run) bool {
			rows, err := pc.FilterRowsRun(run, nil, preds, nil)
			if err != nil {
				return false
			}
			same := len(rows) == len(serialRows)
			if same {
				for i := range rows {
					if rows[i] != serialRows[i] {
						same = false
						break
					}
				}
			}
			run.RecycleRows(rows)
			return same
		}},
		{"parallel_agg_1m", func(run *engine.Run) bool {
			v, err := pc.AggregateRun(run, nil, engine.AggMax, engine.ColZ, nil)
			return err == nil && math.Float64bits(v) == math.Float64bits(serialMax)
		}},
		{"parallel_grouped_dense_1m", func(run *engine.Run) bool {
			if err := pc.GroupedAggregateRun(run, nil, engine.ColClassification, exact, &res, nil); err != nil {
				return false
			}
			return sameGrouped(&res, &serialDense)
		}},
		{"parallel_grouped_hash_1m", func(run *engine.Run) bool {
			if err := pc.GroupedAggregateRun(run, nil, engine.ColGPSTime, exact, &res, nil); err != nil {
				return false
			}
			return sameGrouped(&res, &serialHash)
		}},
	}

	tbl := bench.NewTable(
		fmt.Sprintf("E16a morsel scaling: 1M-point parallel drivers (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)),
		"driver", "degree", "mean time", "allocs/op", "speedup vs deg 1")
	for _, a := range arms {
		var base float64
		for _, deg := range parallelDegrees {
			run := parRun(deg)
			if !a.run(run) {
				fmt.Fprintf(w, "E16 MISMATCH: %s at degree %d diverged from serial\n", a.name, deg)
				return
			}
			d := bench.MeasureN(repeats*3, func() {
				if !a.run(run) {
					fmt.Fprintf(w, "E16 MISMATCH: %s at degree %d diverged from serial\n", a.name, deg)
				}
			})
			allocs := testing.AllocsPerRun(10, func() { a.run(run) })
			speedup := 1.0
			if base == 0 {
				base = float64(d)
			} else {
				speedup = base / float64(d)
			}
			tbl.AddRow(a.name, deg, d, fmt.Sprintf("%.0f", allocs), fmt.Sprintf("%.2fx", speedup))
			env.report.addFull("parallel", a.name, fmt.Sprintf("deg_%d", deg),
				pc.Len(), 0, d, speedup, allocs)
			// A single alloc/op can be the pool's capacity budget declining
			// to retain a worst-case partition buffer after earlier
			// experiments filled it — the zero-alloc contract proper is
			// pinned by engine/morsel_test.go; warn only on more.
			if allocs > 1 {
				fmt.Fprintf(w, "E16 WARNING: %s degree %d steady state allocates (%.0f/op)\n", a.name, deg, allocs)
			}
		}
	}
	tbl.WriteTo(w)
	engine.RecycleRows(serialRows)

	// --- E16b: the same shapes through SQL, executor capped at degree 4 ------
	queries := []struct{ name, text string }{
		{"sql_parallel_filter", "SELECT count(*) FROM cloud1m WHERE z > 5"},
		{"sql_parallel_agg", "SELECT max(z) FROM cloud1m"},
		{"sql_parallel_grouped", "SELECT classification, count(*), min(z) FROM cloud1m GROUP BY classification"},
	}
	tb := bench.NewTable("E16b SQL steady state at parallelism 4 vs serial",
		"query", "serial", "parallel", "allocs/op", "match")
	for _, q := range queries {
		serialExec := sql.New(db)
		serialExec.SetParallelism(1)
		want, err := serialExec.QueryUntraced(q.text)
		if err != nil {
			fmt.Fprintln(w, "E16:", err)
			return
		}
		dSerial := bench.MeasureN(repeats*2, func() {
			if _, err := serialExec.QueryUntraced(q.text); err != nil {
				fmt.Fprintln(w, "E16:", err)
			}
		})

		parExec := sql.New(db)
		parExec.SetParallelism(4)
		got, err := parExec.QueryUntraced(q.text)
		if err != nil {
			fmt.Fprintln(w, "E16:", err)
			return
		}
		match := sameRendering(got, want)
		if !match {
			fmt.Fprintf(w, "E16 MISMATCH: %s parallel result diverged from serial\n", q.name)
		}
		dPar := bench.MeasureN(repeats*2, func() {
			if _, err := parExec.QueryUntraced(q.text); err != nil {
				fmt.Fprintln(w, "E16:", err)
			}
		})
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := parExec.QueryUntraced(q.text); err != nil {
				fmt.Fprintln(w, "E16:", err)
			}
		})
		tb.AddRow(q.name, dSerial, dPar, fmt.Sprintf("%.0f", allocs), match)
		env.report.add("parallel", q.name, "serial", pc.Len(), want.Len(), dSerial, 1)
		env.report.addFull("parallel", q.name, "steady", pc.Len(), got.Len(),
			dPar, float64(dSerial)/float64(dPar), allocs)
	}
	tb.WriteTo(w)
	fmt.Fprintf(w, "GOMAXPROCS=%d; degrees past the core count exercise partition queueing, not speedup\n",
		runtime.GOMAXPROCS(0))
}
