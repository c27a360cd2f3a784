package sql

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/las"
	"gisnav/internal/lastools"
	"gisnav/internal/pyramid"
	"gisnav/internal/synth"
)

// sameResultBits requires two results to hold the same rows bit for bit.
func sameResultBits(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Len() != want.Len() || len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: %d rows x %d cols, want %d x %d", label, got.Len(), len(got.Cols), want.Len(), len(want.Cols))
	}
	for j := range want.Cols {
		for i := 0; i < want.Len(); i++ {
			g, w := got.Cols[j].Value(i), want.Cols[j].Value(i)
			if g.Kind != w.Kind || g.Kind == KindNum && math.Float64bits(g.Num) != math.Float64bits(w.Num) ||
				g.Kind != KindNum && !valueEq(g, w) {
				t.Fatalf("%s: row %d col %d = %v, want %v", label, i, j, g, w)
			}
		}
	}
}

// panShapes renders the navigation workload's three viewport statements —
// bbox aggregate, viewport histogram (the pyramid's shape) and bounded row
// fetch — over env.
func panShapes(env geom.Envelope) []string {
	box := fmt.Sprintf("ST_Contains(ST_MakeEnvelope(%.3f, %.3f, %.3f, %.3f), ST_Point(x, y))",
		env.MinX, env.MinY, env.MaxX, env.MaxY)
	return []string{
		"SELECT count(*), avg(z) FROM ahn2 WHERE " + box + " AND classification = 2",
		"SELECT classification, count(*), min(z), max(z) FROM ahn2 WHERE " + box + " GROUP BY classification",
		"SELECT x, y, z, classification, intensity FROM ahn2 WHERE " + box + " LIMIT 500",
	}
}

// executors hosts pc under the name ahn2 at parallelism 1 and 2.
func executors(pc *engine.PointCloud) []*Executor {
	db := engine.NewDB()
	db.RegisterPointCloud("ahn2", pc)
	var out []*Executor
	for _, deg := range []int{1, 2} {
		e := New(db)
		e.SetParallelism(deg)
		out = append(out, e)
	}
	return out
}

// TestAppendedTableAnswersLikeFreshLoad appends random batches to a hosted
// table whose imprints and pyramid are built — sizes straddling imprint
// line and zone edges, most inside the extent (the extension paths), some
// outside it (a pyramid rebuild) — and after every append holds the
// navigation shapes, at degree 1 and 2, bit-identical to a table freshly
// loaded with the same rows.
func TestAppendedTableAnswersLikeFreshLoad(t *testing.T) {
	region := geom.NewEnvelope(0, 0, 1000, 1000)
	terrain := synth.NewTerrain(29, region)
	all := synth.GenerateTile(terrain, synth.TileSpec{Env: region, Density: 0.03, Seed: 4})
	pc := engine.NewPointCloud()
	pc.AppendLAS(all)
	grown := executors(pc)
	views := []geom.Envelope{
		geom.NewEnvelope(120, 140, 610, 520),
		geom.NewEnvelope(-10, -10, 1010, 1010),
		geom.NewEnvelope(700, 10, 760, 990),
	}
	run := func(e *Executor, q string) *Result {
		t.Helper()
		res, err := e.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	for _, e := range grown {
		for _, v := range views {
			for _, q := range panShapes(v) {
				run(e, q)
			}
		}
	}
	if !pc.HasImprints() {
		t.Fatal("the warm-up built no imprints")
	}

	rng := rand.New(rand.NewSource(12))
	vpl := 8
	sizes := []int{0, 1, vpl - 1, vpl, 64*vpl - 1, 64*vpl + 1}
	extensions := pyramid.Snapshot().Extensions
	for step := 0; step < 8; step++ {
		batch := make([]las.Point, sizes[rng.Intn(len(sizes))])
		for i := range batch {
			batch[i] = all[rng.Intn(len(all))]
			batch[i].Z += rng.Float64() - 0.5
			batch[i].Classification = uint8(rng.Intn(7))
		}
		if step == 5 && len(batch) > 0 {
			batch[0].X = 1200 // past the extent: the pyramid rebuilds
		}
		all = append(all, batch...)
		pc.AppendLAS(batch)

		fresh := engine.NewPointCloud()
		fresh.AppendLAS(all)
		loaded := executors(fresh)
		for d := range grown {
			for _, v := range views {
				for _, q := range panShapes(v) {
					sameResultBits(t, fmt.Sprintf("step %d degree %d: %s", step, d+1, q), run(grown[d], q), run(loaded[d], q))
				}
			}
		}
	}
	if s := pc.IndexStats(); s.ImprintExtensions == 0 || s.ImprintBuilds != 1 {
		t.Fatalf("appends did not extend the imprints: %+v", s)
	}
	if pyramid.Snapshot().Extensions == extensions {
		t.Fatal("appends never extended a pyramid")
	}
}

// TestFailedLoadRewritesIndexes loads a repository whose second tile is
// corrupt into a table with built imprints and a prepared statement. The
// first tile's rows land before the error, so the load must still move the
// epoch as a rewrite: the imprints drop (they cover only the old rows) and
// the statement replans and counts every row.
func TestFailedLoadRewritesIndexes(t *testing.T) {
	region := geom.NewEnvelope(0, 0, 600, 600)
	terrain := synth.NewTerrain(71, region)
	dir := t.TempDir()
	if _, err := synth.WriteTiles(terrain, region, 2, 2, 0.02, 3, false, 11, dir); err != nil {
		t.Fatal(err)
	}
	repo, err := lastools.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(repo.Files()[1], []byte("not a LAS tile"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func(*engine.PointCloud, *lastools.Repository) (engine.LoadStats, error){
		"binary": engine.LoadBinary, "csv": engine.LoadCSV,
	} {
		pc := engine.NewPointCloud()
		pc.AppendLAS(synth.GenerateTile(terrain, synth.TileSpec{Env: region, Density: 0.01, Seed: 5}))
		db := engine.NewDB()
		db.RegisterPointCloud("ahn2", pc)
		e := New(db)
		pq, err := e.Prepare("SELECT count(*) FROM ahn2 WHERE ST_Contains(ST_MakeEnvelope(-1, -1, 601, 601), ST_Point(x, y))")
		if err != nil {
			t.Fatal(err)
		}
		count := func() float64 {
			t.Helper()
			res, err := pq.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return res.Cols[0].Nums[0]
		}
		if got := count(); got != float64(pc.Len()) || !pc.HasImprints() {
			t.Fatalf("%s: warm count %v of %d rows, imprints %v", name, got, pc.Len(), pc.HasImprints())
		}
		epoch, n, inv := pc.Epoch(), pc.Len(), e.StmtCacheStats().Invalidations
		if _, err := load(pc, repo); err == nil {
			t.Fatalf("%s: loading a corrupt tile succeeded", name)
		}
		if pc.Len() == n {
			t.Fatalf("%s: the first tile loaded no rows; the test is vacuous", name)
		}
		if pc.Epoch() == epoch || pc.AppendOnlySince(epoch) || pc.HasImprints() {
			t.Fatalf("%s: failed load left epoch %d (was %d), append-only %v, imprints %v",
				name, pc.Epoch(), epoch, pc.AppendOnlySince(epoch), pc.HasImprints())
		}
		if got := count(); got != float64(pc.Len()) {
			t.Fatalf("%s: count after the failed load %v, table holds %d rows", name, got, pc.Len())
		}
		if d := e.StmtCacheStats().Invalidations - inv; d != 1 {
			t.Fatalf("%s: the statement replanned %d times, want 1", name, d)
		}
	}
}
