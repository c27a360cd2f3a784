package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"gisnav/internal/bench"
	"gisnav/internal/engine"
	"gisnav/internal/las"
	"gisnav/internal/sql"
)

// --- E14: grouped navigation --------------------------------------------------

// groupedCloudPoints is the fixed population of the E14 cloud. The paper's
// navigation workload re-aggregates the viewport on every pan/zoom step
// (per-class histograms, per-class elevation stats); 1M points keeps the
// per-row cost of the competing strategies out of the noise regardless of
// the -scale flag.
const groupedCloudPoints = 1_000_000

// buildGroupedCloud synthesises the E14 point cloud: 12 LAS-style classes
// with skewed frequencies (terrain classes dominate real tiles), terrain-ish
// elevations, and u16 intensities — the per-class viewport histogram shape.
func buildGroupedCloud() *engine.PointCloud {
	rng := rand.New(rand.NewSource(2015))
	pts := make([]las.Point, groupedCloudPoints)
	for i := range pts {
		cls := uint8(rng.Intn(12))
		if rng.Intn(3) != 0 {
			cls = uint8(rng.Intn(3)) + 1 // skew towards ground/vegetation
		}
		x, y := rng.Float64()*4000, rng.Float64()*4000
		pts[i] = las.Point{
			X: x, Y: y,
			Z:              20*math.Sin(x/300) + 15*math.Cos(y/500) + rng.Float64()*8,
			Intensity:      uint16(rng.Intn(1 << 11)),
			Classification: cls,
			GPSTime:        float64(rng.Intn(5000)) / 7,
		}
	}
	pc := engine.NewPointCloud()
	pc.AppendLAS(pts)
	return pc
}

// refGroupedAcc is the interpreter-reference accumulator: one map entry per
// rendered key, exactly the shape the SQL interpreter arm accumulates
// through (string-keyed map, per-row widening and formatting).
type refGroupedAcc struct {
	n   float64
	sum float64
}

// interpreterReferenceGrouped is the row-at-a-time reference arm: per row,
// widen the key through the Column interface, render it, look the group up
// in a string-keyed map and fold the value — the execution shape
// internal/sql/groupby.go had before the vectorized kernels, minus the
// expression-tree walk (so the published speedup is a lower bound).
func interpreterReferenceGrouped(pc *engine.PointCloud, keyName, valName string) map[string]*refGroupedAcc {
	key := pc.Column(keyName)
	val := pc.Column(valName)
	groups := map[string]*refGroupedAcc{}
	var keyBuf []byte
	for i, n := 0, pc.Len(); i < n; i++ {
		keyBuf = strconv.AppendFloat(keyBuf[:0], key.Value(i), 'g', -1, 64)
		g, ok := groups[string(keyBuf)]
		if !ok {
			g = &refGroupedAcc{}
			groups[string(keyBuf)] = g
		}
		g.n++
		g.sum += val.Value(i)
	}
	return groups
}

// expGrouped measures the PR 5 grouped-aggregation stack on the navigation
// workload it exists for: a per-class aggregate recomputed on every step.
//
//   - E14a (engine): the dense grouped kernel vs the interpreter-reference
//     row-at-a-time arm on a 1M-point per-class count+avg — the tentpole's
//     headline ratio — plus the hash-path arm on a float key. The dense
//     steady state must report 0 allocs/op (pooled accumulator banks,
//     reused result record).
//   - E14b (SQL): a per-class viewport histogram swept across the cloud,
//     cold Prepare-per-step vs the shape-cache steady state (rebind per
//     step), with a rebound-vs-fresh-Prepare equality check.
func expGrouped(env *benchEnv, w io.Writer, repeats int) {
	pc := buildGroupedCloud()
	db := engine.NewDB()
	db.RegisterPointCloud("cloud1m", pc)

	// --- E14a: engine kernels vs interpreter reference -----------------------
	tbl := bench.NewTable("E14a grouped aggregation: 1M-point per-class count+avg(z)",
		"arm", "mean time", "allocs/op", "groups", "speedup")
	specs := []engine.GroupedAggSpec{
		{Fn: engine.AggCount},
		{Fn: engine.AggSum, Column: engine.ColZ},
	}
	var res engine.GroupedResult
	if err := pc.GroupedAggregate(nil, engine.ColClassification, specs, &res, nil); err != nil {
		fmt.Fprintln(w, "E14:", err)
		return
	}
	denseGroups := res.Groups()
	dDense := bench.MeasureN(repeats*3, func() {
		if err := pc.GroupedAggregate(nil, engine.ColClassification, specs, &res, nil); err != nil {
			fmt.Fprintln(w, "E14:", err)
		}
	})
	denseAllocs := testing.AllocsPerRun(10, func() {
		if err := pc.GroupedAggregate(nil, engine.ColClassification, specs, &res, nil); err != nil {
			fmt.Fprintln(w, "E14:", err)
		}
	})

	var refGroups int
	dRef := bench.MeasureN(repeats, func() {
		refGroups = len(interpreterReferenceGrouped(pc, engine.ColClassification, engine.ColZ))
	})
	if refGroups != denseGroups {
		fmt.Fprintf(w, "E14 MISMATCH: dense %d groups, reference %d\n", denseGroups, refGroups)
	}

	dHash := bench.MeasureN(repeats*3, func() {
		if err := pc.GroupedAggregate(nil, engine.ColGPSTime, specs, &res, nil); err != nil {
			fmt.Fprintln(w, "E14:", err)
		}
	})
	hashGroups := res.Groups()

	denseSpeedup := float64(dRef) / float64(dDense)
	tbl.AddRow("interpreter reference (map, row-at-a-time)", dRef, "-", refGroups, "1.0x")
	tbl.AddRow("dense kernel (u8 class key)", dDense, fmt.Sprintf("%.0f", denseAllocs), denseGroups,
		fmt.Sprintf("%.1fx", denseSpeedup))
	tbl.AddRow("hash kernel (f64 key)", dHash, "-", hashGroups,
		fmt.Sprintf("%.1fx", float64(dRef)/float64(dHash)))
	tbl.WriteTo(w)
	fmt.Fprintf(w, "dense vs interpreter reference %.1fx (target >= 3x); dense steady-state allocs %.0f (contract: 0)\n",
		denseSpeedup, denseAllocs)
	if denseSpeedup < 3 {
		fmt.Fprintf(w, "E14 WARNING: dense grouped kernel under 3x vs the interpreter reference\n")
	}
	if denseAllocs != 0 {
		fmt.Fprintf(w, "E14 WARNING: dense grouped steady state allocates — fast-path regression\n")
	}
	env.report.add("grouped", "grouped_dense_1m", "interpreter_reference",
		pc.Len(), refGroups, dRef, 1)
	env.report.addFull("grouped", "grouped_dense_1m", "kernel", pc.Len(), denseGroups,
		dDense, denseSpeedup, denseAllocs)
	env.report.add("grouped", "grouped_hash_1m", "kernel", pc.Len(), hashGroups,
		dHash, float64(dRef)/float64(dHash))

	// --- E14b: SQL viewport histogram, cold vs shape-steady ------------------
	tb := bench.NewTable("E14b grouped navigation: per-class viewport histogram through SQL",
		"arm", "mean time/query", "allocs/op", "groups (last)")
	const steps = 32
	texts := make([]string, steps)
	for i := range texts {
		frac := float64(i) / steps * 0.5
		x0, y0 := 4000*frac, 4000*frac
		texts[i] = fmt.Sprintf(
			"SELECT classification, count(*) AS n, avg(z) AS mean_z FROM cloud1m WHERE ST_Contains(ST_MakeEnvelope(%g, %g, %g, %g), ST_Point(x, y)) GROUP BY classification",
			x0, y0, x0+1200, y0+1200)
	}
	var lastGroups int

	coldExec := sql.New(db)
	if _, err := coldExec.Query(texts[0]); err != nil {
		fmt.Fprintln(w, "E14:", err)
		return
	}
	coldStep := 0
	dCold := bench.MeasureN(steps*2, func() {
		pq, err := coldExec.Prepare(texts[coldStep%steps])
		if err != nil {
			fmt.Fprintln(w, "E14:", err)
			return
		}
		r, err := pq.Run()
		if err != nil {
			fmt.Fprintln(w, "E14:", err)
			return
		}
		lastGroups = r.Len()
		coldStep++
	})

	exec := sql.New(db)
	for _, text := range texts {
		if _, err := exec.QueryUntraced(text); err != nil {
			fmt.Fprintln(w, "E14:", err)
			return
		}
	}
	step := 0
	dSteady := bench.MeasureN(steps*max(2, repeats/2), func() {
		r, err := exec.QueryUntraced(texts[step%steps])
		if err != nil {
			fmt.Fprintln(w, "E14:", err)
			return
		}
		lastGroups = r.Len()
		step++
	})
	steadyAllocs := testing.AllocsPerRun(20, func() {
		if _, err := exec.QueryUntraced(texts[step%steps]); err != nil {
			fmt.Fprintln(w, "E14:", err)
		}
		step++
	})

	// Rebind correctness: the shape-steady result of one position must equal
	// a fresh Prepare of the same text on a cold executor.
	probe := texts[steps/2]
	rebound, err := exec.QueryUntraced(probe)
	if err != nil {
		fmt.Fprintln(w, "E14:", err)
		return
	}
	freshPq, err := sql.New(db).Prepare(probe)
	if err != nil {
		fmt.Fprintln(w, "E14:", err)
		return
	}
	freshRes, err := freshPq.Run()
	if err != nil {
		fmt.Fprintln(w, "E14:", err)
		return
	}
	reboundOK := sameRendering(rebound, freshRes)
	if !reboundOK {
		fmt.Fprintln(w, "E14 MISMATCH: rebound grouped plan diverged from a fresh Prepare")
	}

	coldVsSteady := float64(dCold) / float64(dSteady)
	tb.AddRow("cold (prepare per step)", dCold, "-", lastGroups)
	tb.AddRow("shape steady (rebind per step)", dSteady, fmt.Sprintf("%.0f", steadyAllocs), lastGroups)
	tb.WriteTo(w)
	ss := exec.StmtCacheStats()
	fmt.Fprintf(w, "sweep cold/steady %.1fx; rebound == fresh prepare: %v; front hits %d\n",
		coldVsSteady, reboundOK, ss.FrontHits)
	env.report.addAllocs("grouped", "sql_grouped_hist", "cold", pc.Len(), lastGroups, dCold, -1)
	env.report.addFull("grouped", "sql_grouped_hist", "shape_steady", pc.Len(), lastGroups,
		dSteady, coldVsSteady, steadyAllocs)
	env.report.addCache("grouped", ss, pc.PlanCacheStats())
}
