package sql

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/lastools"
	"gisnav/internal/synth"
)

// deferredCloud bulk-loads a small generated repository into an empty
// table, so only x, y and z are resident, and returns an executor over it.
func deferredCloud(t *testing.T) (*Executor, *engine.PointCloud, *lastools.Repository) {
	t.Helper()
	dir := t.TempDir()
	region := geom.NewEnvelope(0, 0, 600, 600)
	if _, err := synth.WriteTiles(synth.NewTerrain(71, region), region, 2, 2, 0.02, 3, false, 11, dir); err != nil {
		t.Fatal(err)
	}
	repo, err := lastools.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pc := engine.NewPointCloud()
	if _, err := engine.LoadBinary(pc, repo); err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB()
	db.RegisterPointCloud("ahn2", pc)
	return New(db), pc, repo
}

// columnLoads returns the column.load steps of a trace.
func columnLoads(ex *engine.Explain) []engine.Step {
	var steps []engine.Step
	for _, s := range ex.Steps {
		if s.Op == "column.load" {
			steps = append(steps, s)
		}
	}
	return steps
}

// The plan makes every point-cloud column it binds resident in one first
// touch, which the paying run's trace shows as one column.load step; the
// next run pays nothing, and naming a column without binding it decodes
// nothing.
func TestFirstTouchOneColumnLoad(t *testing.T) {
	e, pc, _ := deferredCloud(t)
	ctx := context.Background()
	const fetch = "SELECT x, y, z, classification, intensity FROM ahn2 WHERE ST_Contains(ST_MakeEnvelope(0, 0, 300, 300), ST_Point(x, y)) LIMIT 20"
	res, err := e.QueryContext(ctx, fetch)
	if err != nil {
		t.Fatal(err)
	}
	loads := columnLoads(res.Explain)
	if len(loads) != 1 || !strings.Contains(loads[0].Detail, "intensity+classification") || loads[0].OutRows != pc.Len() {
		t.Fatalf("column.load steps %+v, want one over classification and intensity", loads)
	}
	if res, err = e.QueryContext(ctx, fetch); err != nil {
		t.Fatal(err)
	}
	if loads := columnLoads(res.Explain); len(loads) != 0 {
		t.Fatalf("a warm run paid for a touch: %+v", loads)
	}
	// count(*) names no column; a bad column name fails before any touch.
	if res, err = e.QueryContext(ctx, "SELECT count(*) FROM ahn2"); err != nil || len(columnLoads(res.Explain)) != 0 {
		t.Fatalf("count(*): %v, trace %+v", err, res.Explain.Steps)
	}
	if _, err := e.QueryContext(ctx, "SELECT count(*) FROM ahn2 WHERE nosuch > 1"); err == nil {
		t.Fatal("an unknown column planned")
	}
	if err := pc.EnsureColumns(nil, engine.ColGPSTime); err != nil {
		t.Fatal(err)
	}
	if res, err = e.QueryContext(ctx, "SELECT avg(gps_time), avg(user_data) FROM ahn2"); err != nil {
		t.Fatal(err)
	}
	if loads := columnLoads(res.Explain); len(loads) != 1 || loads[0].Detail != "[par 1] user_data" {
		t.Fatalf("column.load steps %+v, want one over user_data", loads)
	}
}

// A tile that changed or vanished since the load makes the first run that
// binds a non-resident column fail to plan with an error naming the tile;
// statements over x, y and z keep answering, and Column panics with the
// same error.
func TestChangedTileFailsPlanning(t *testing.T) {
	for name, change := range map[string]func(path string) error{
		"truncated": func(path string) error { return os.Truncate(path, 300) },
		"removed":   os.Remove,
	} {
		t.Run(name, func(t *testing.T) {
			e, pc, repo := deferredCloud(t)
			path := repo.Files()[1]
			if err := change(path); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			_, planErr := e.QueryContext(ctx, "SELECT count(*) FROM ahn2 WHERE classification = 2")
			if !errors.Is(planErr, engine.ErrColumnLoad) || !strings.Contains(planErr.Error(), path) {
				t.Fatalf("err = %v, want a column load error naming %s", planErr, path)
			}
			res, err := e.QueryContext(ctx, "SELECT count(*), max(z) FROM ahn2 WHERE ST_Contains(ST_MakeEnvelope(-1, -1, 601, 601), ST_Point(x, y))")
			if err != nil || res.Cols[0].Nums[0] != float64(pc.Len()) {
				t.Fatalf("a statement over x, y and z: %v", err)
			}
			defer func() {
				if p, ok := recover().(error); !ok || p.Error() != planErr.Error() {
					t.Fatalf("Column panicked with %v, want %v", p, planErr)
				}
			}()
			pc.Column(engine.ColClassification)
		})
	}
}
