package sql

import (
	"testing"

	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/synth"
)

// The small testDB cloud stays under the parallel crossover, so the tests
// of the morsel fan-out behind the SQL layer (here and, armed, in
// morsel_fault_test.go) build their own.

// morselTestDB registers a cloud big enough that a degree-4 cap actually
// fans out (~280k points; the crossover is 2×65536 rows).
func morselTestDB(t *testing.T) *Executor {
	t.Helper()
	region := geom.NewEnvelope(0, 0, 2000, 2000)
	terrain := synth.NewTerrain(81, region)
	pts := synth.GenerateTile(terrain, synth.TileSpec{Env: region, Density: 0.07, Seed: 11})
	pc := engine.NewPointCloud()
	pc.AppendLAS(pts)
	db := engine.NewDB()
	db.RegisterPointCloud("big", pc)
	e := New(db)
	e.SetParallelism(4)
	return e
}

// morselQueries routes each parallel driver through a real statement: the
// filter fan-out behind a thematic predicate, the min/max fused-aggregate
// fan-out, the grouped fan-out (count/min/max specs only — a sum in the
// list keeps the fold serial by design) and the pipelined pass, where a
// whole-table predicate feeds the grouped fold and only the filter fans
// out, so its avg stays in row order.
var morselQueries = map[string]string{
	"filter":  "SELECT count(*) FROM big WHERE z > 5",
	"agg":     "SELECT max(z) FROM big",
	"grouped": "SELECT classification, count(*), min(z) FROM big GROUP BY classification",
	"piped":   "SELECT classification, count(*), avg(z) FROM big WHERE z BETWEEN 5 AND 40 GROUP BY classification",
}

// TestParallelismCapMatchesSerial: the executor's degree cap changes no
// answer — every statement renders the same rows at parallelism 4 as at
// parallelism 1. The engine pins every degree to row-at-a-time references
// (engine/morsel_test.go) and the armed tests pin that these statements do
// fan out under the cap and do not at 1; this pins the SQL layer between.
func TestParallelismCapMatchesSerial(t *testing.T) {
	e := morselTestDB(t)
	for name, q := range morselQueries {
		e.SetParallelism(4)
		par := mustQuery(t, e, q)
		e.SetParallelism(1)
		resultRowsEqual(t, name+": parallelism 4 vs 1", par, mustQuery(t, e, q))
	}
}
