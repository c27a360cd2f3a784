package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"gisnav/internal/bench"
	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/las"
	"gisnav/internal/pyramid"
	"gisnav/internal/sql"
)

// --- E18: pre-aggregation pyramid ----------------------------------------------

// pyramidBasePoints is the 1x population; the 4x and 16x arms grow the
// extent edge by sqrt(mult) at constant density, so the pyramid's base
// order deepens while per-tile occupancy stays comparable — the scaling
// regime the viewport-analytics claim is about.
const pyramidBasePoints = 120_000

// buildPyramidCloud synthesises one scale arm of the E18 cloud: the E14
// per-class histogram shape (skewed u8 classes, terrain-ish elevations)
// over an extent edge of 4000·sqrt(mult).
func buildPyramidCloud(mult int) *engine.PointCloud {
	edge := 4000 * sqrt(float64(mult))
	rng := rand.New(rand.NewSource(int64(2015 + mult)))
	pts := make([]las.Point, pyramidBasePoints*mult)
	for i := range pts {
		cls := uint8(rng.Intn(12))
		if rng.Intn(3) != 0 {
			cls = uint8(rng.Intn(3)) + 1
		}
		x, y := rng.Float64()*edge, rng.Float64()*edge
		pts[i] = las.Point{
			X: x, Y: y,
			Z:              20*math.Sin(x/300) + 15*math.Cos(y/500) + rng.Float64()*8,
			Intensity:      uint16(rng.Intn(1 << 11)),
			Classification: cls,
		}
	}
	pc := engine.NewPointCloud()
	pc.AppendLAS(pts)
	return pc
}

// expPyramid measures the PR 10 pre-aggregation pyramid on the workload it
// exists for: a whole-viewport per-class histogram recomputed as the
// dataset grows. Three scales (1x, 4x, 16x points at constant density),
// two arms each:
//
//   - exact:          the same SQL with pyramid routing disabled — the
//     filter + grouped-kernel path, O(rows in viewport).
//   - pyramid_steady: pyramid routing enabled with the pyramid resident —
//     interior tiles answer from pre-aggregates, O(visible tiles).
//
// The viewport is the extent buffered outward, so every data-carrying tile
// classifies as interior and the pyramid arm never touches a row. The
// contract printed at the end: pyramid latency grows <= 2x while the
// dataset grows 16x, the two arms return bit-identical rows, and the warm
// engine-level query does 0 allocs/op.
func expPyramid(env *benchEnv, w io.Writer, repeats int) {
	tbl := bench.NewTable("E18 pre-aggregation pyramid: whole-viewport histogram vs dataset scale",
		"scale", "arm", "mean time/query", "allocs/op", "groups")
	specs := []engine.GroupedAggSpec{
		{Fn: engine.AggCount},
		{Fn: engine.AggMin, Column: engine.ColZ},
		{Fn: engine.AggMax, Column: engine.ColZ},
	}
	type armTimes struct{ exact, pyr time.Duration }
	times := map[int]armTimes{}
	identical := true
	var routed bool

	for _, mult := range []int{1, 4, 16} {
		pc := buildPyramidCloud(mult)
		table := fmt.Sprintf("pyr%dx", mult)
		db := engine.NewDB()
		db.RegisterPointCloud(table, pc)
		exec := sql.New(db)
		ext := pc.Extent()
		text := fmt.Sprintf(
			"SELECT classification, count(*) AS n, min(z) AS lo, max(z) AS hi FROM %s WHERE ST_Contains(ST_MakeEnvelope(%g, %g, %g, %g), ST_Point(x, y)) GROUP BY classification",
			table, ext.MinX-1, ext.MinY-1, ext.MaxX+1, ext.MaxY+1)
		label := fmt.Sprintf("%dx (%d pts)", mult, pc.Len())

		// Exact arm: pyramid routing off, the full filter + kernel path.
		pyramid.SetEnabled(false)
		resExact, err := exec.QueryUntraced(text)
		if err != nil {
			pyramid.SetEnabled(true)
			fmt.Fprintln(w, "E18:", err)
			return
		}
		dExact := bench.MeasureN(max(2, repeats), func() {
			if _, err := exec.QueryUntraced(text); err != nil {
				fmt.Fprintln(w, "E18:", err)
			}
		})
		pyramid.SetEnabled(true)

		// Pyramid arm: first traced query builds the pyramid and must show
		// the route in EXPLAIN; the steady state is measured warm.
		traced, err := exec.Query(text)
		if err != nil {
			fmt.Fprintln(w, "E18:", err)
			return
		}
		routed = strings.Contains(traced.Explain.String(), "pyramid")
		resPyr, err := exec.QueryUntraced(text)
		if err != nil {
			fmt.Fprintln(w, "E18:", err)
			return
		}
		dPyr := bench.MeasureN(max(2, repeats)*3, func() {
			if _, err := exec.QueryUntraced(text); err != nil {
				fmt.Fprintln(w, "E18:", err)
			}
		})

		// Bit-identity: count/min/max merge exactly, so the routed rows
		// must match the exact arm's rendering verbatim.
		if !sameRendering(resPyr, resExact) {
			identical = false
		}

		// Engine-level warm query: the 0 allocs/op contract, measured under
		// the pyramid API directly (the SQL layer adds result rendering).
		sig, _ := pyramid.Shape(pc, engine.ColClassification, specs)
		run := new(engine.Run)
		pyr, err := pyramid.For(run, pc, engine.ColClassification, specs, sig, nil)
		if err != nil || pyr == nil {
			fmt.Fprintf(w, "E18: pyramid declined %s\n", table)
			return
		}
		var region grid.Region = grid.GeometryRegion{
			G: geom.NewEnvelope(ext.MinX-1, ext.MinY-1, ext.MaxX+1, ext.MaxY+1).ToPolygon()}
		var gres engine.GroupedResult
		if _, _, err := pyr.QueryRegionRun(run, region, specs, &gres); err != nil {
			fmt.Fprintln(w, "E18:", err)
			return
		}
		warmAllocs := testing.AllocsPerRun(50, func() {
			if _, _, err := pyr.QueryRegionRun(run, region, specs, &gres); err != nil {
				fmt.Fprintln(w, "E18:", err)
			}
		})
		pyr.Release()
		run.Drain()

		times[mult] = armTimes{exact: dExact, pyr: dPyr}
		tbl.AddRow(label, "exact (kernels)", dExact, "-", resExact.Len())
		tbl.AddRow(label, "pyramid steady", dPyr, fmt.Sprintf("%.0f", warmAllocs), resPyr.Len())
		name := fmt.Sprintf("sql_pyramid_%dx", mult)
		env.report.add("pyramid", name, "exact", pc.Len(), resExact.Len(), dExact, 1)
		env.report.addFull("pyramid", name, "pyramid_steady", pc.Len(), resPyr.Len(),
			dPyr, float64(dExact)/float64(dPyr), warmAllocs)
		if warmAllocs != 0 {
			fmt.Fprintf(w, "E18 WARNING: warm pyramid query allocates %.0f objects/op at %s (contract: 0)\n",
				warmAllocs, label)
		}
	}
	tbl.WriteTo(w)

	growth := float64(times[16].pyr) / float64(times[1].pyr)
	exactGrowth := float64(times[16].exact) / float64(times[1].exact)
	fmt.Fprintf(w, "dataset 16x: pyramid latency %.2fx (target <= 2x), exact arm %.1fx; rows bit-identical: %v; EXPLAIN routed: %v\n",
		growth, exactGrowth, identical, routed)
	if growth > 2 {
		fmt.Fprintf(w, "E18 WARNING: pyramid latency grew past 2x across the 16x scale sweep\n")
	}
	if !identical {
		fmt.Fprintf(w, "E18 MISMATCH: pyramid rows diverged from the exact arm\n")
	}
	if !routed {
		fmt.Fprintf(w, "E18 WARNING: EXPLAIN shows no pyramid route — the whole-viewport histogram fell back to kernels\n")
	}
	env.report.addPyramid(pyramid.Snapshot())
}
