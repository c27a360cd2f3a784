package engine

import (
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/synth"
)

// buildDemoDB assembles the three demo datasets at small scale.
func buildDemoDB(t *testing.T) (*DB, *PointCloud, *VectorTable, *VectorTable) {
	t.Helper()
	region := geom.NewEnvelope(0, 0, 2000, 2000)
	terrain := synth.NewTerrain(61, region)
	pts := synth.GenerateTile(terrain, synth.TileSpec{Env: region, Density: 0.02, Seed: 4})
	pc := NewPointCloud()
	pc.AppendLAS(pts)

	osm := NewVectorTable()
	for _, f := range synth.GenerateOSM(terrain, 9) {
		osm.Append(f.ID, f.Class, f.Name, f.Geom, nil)
	}
	ua := NewVectorTable()
	for _, z := range synth.GenerateUrbanAtlas(terrain, synth.Motorways(synth.GenerateOSM(terrain, 9)), 16, 16, 7) {
		ua.Append(int64(z.ID), z.Code, z.Label, z.Geom, map[string]float64{"pop_density": z.PopDensity})
	}

	db := NewDB()
	db.RegisterPointCloud("ahn2", pc)
	db.RegisterVector("osm", osm)
	db.RegisterVector("ua", ua)
	return db, pc, osm, ua
}

func TestCatalog(t *testing.T) {
	db, pc, osm, _ := buildDemoDB(t)
	got, err := db.PointCloud("ahn2")
	if err != nil || got != pc {
		t.Fatal("point cloud lookup failed")
	}
	gotV, err := db.Vector("osm")
	if err != nil || gotV != osm {
		t.Fatal("vector lookup failed")
	}
	if _, err := db.PointCloud("missing"); err == nil {
		t.Fatal("missing cloud should error")
	}
	if _, err := db.Vector("missing"); err == nil {
		t.Fatal("missing vector should error")
	}
	tables := db.Tables()
	if len(tables) != 3 || tables[0] != "ahn2" {
		t.Fatalf("tables = %v", tables)
	}
	if !db.IsPointCloud("ahn2") || db.IsPointCloud("osm") {
		t.Fatal("IsPointCloud wrong")
	}
}

func TestVectorTableBasics(t *testing.T) {
	vt := NewVectorTable()
	vt.Append(1, "motorway", "A1", geom.MustParseWKT("LINESTRING (0 0, 100 0)"), nil)
	vt.Append(2, "river", "Rhine", geom.MustParseWKT("LINESTRING (0 50, 100 50)"),
		map[string]float64{"flow": 2.5})
	if vt.Len() != 2 || vt.ID(0) != 1 || vt.Class(1) != "river" || vt.Name(1) != "Rhine" {
		t.Fatal("basic accessors wrong")
	}
	if vt.Numeric("flow", 1) != 2.5 {
		t.Fatal("numeric attribute lost")
	}
	// Row 0 predates the flow column; it must read as 0.
	if vt.Numeric("flow", 0) != 0 {
		t.Fatal("zero-fill for late columns broken")
	}
	if vt.Numeric("missing", 0) != 0 {
		t.Fatal("missing attribute should read 0")
	}
	if len(vt.NumericAttrs()) != 1 {
		t.Fatal("attr listing wrong")
	}

	ex := &Explain{}
	rows := vt.SelectClassInto("motorway", nil, ex)
	if len(rows) != 1 || rows[0] != 0 {
		t.Fatalf("class select = %v", rows)
	}
	if rows := vt.SelectClassInto("park", nil, ex); rows != nil {
		t.Fatal("absent class should be empty")
	}
	hits := vt.SelectIntersects(geom.NewEnvelope(10, -5, 20, 5).ToPolygon(), ex)
	if len(hits) != 1 || hits[0] != 0 {
		t.Fatalf("intersects = %v", hits)
	}
}

func TestScenario2Queries(t *testing.T) {
	db, pc, _, ua := buildDemoDB(t)
	ex := &Explain{}
	fast := ua.SelectClassInto(synth.UAFastTransit, nil, ex)
	if len(fast) == 0 {
		t.Fatal("no fast transit zones in demo data")
	}
	// Query A: points near fast transit roads.
	joinEx := &Explain{}
	rows := db.PointsNearFeaturesRun(nil, pc, ua, fast, 25, joinEx)
	if len(rows) == 0 {
		t.Fatal("no points near fast transit zones")
	}
	// Cross-check against the naive evaluator.
	region := ua.CollectGeometries(fast)
	want := 0
	for i := 0; i < pc.Len(); i++ {
		if geom.DWithin(pc.X()[i], pc.Y()[i], region, 25) {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("join rows = %d, want %d", len(rows), want)
	}
	// Query B: average elevation of those points.
	avg, err := pc.Aggregate(rows, AggAvg, ColZ, joinEx)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range rows {
		sum += pc.Z()[r]
	}
	if wantAvg := sum / float64(len(rows)); avg != wantAvg {
		t.Fatalf("avg = %v, want %v", avg, wantAvg)
	}
	// The explain trace must show the operator pipeline.
	if len(joinEx.Steps) < 3 {
		t.Fatalf("expected multi-operator trace, got %d steps", len(joinEx.Steps))
	}
	// Containment join variant.
	rowsIn := db.PointsInFeaturesRun(nil, pc, ua, fast, nil)
	wantIn := 0
	for i := 0; i < pc.Len(); i++ {
		if geom.ContainsPoint(region, pc.X()[i], pc.Y()[i]) {
			wantIn++
		}
	}
	if len(rowsIn) != wantIn {
		t.Fatalf("containment join = %d, want %d", len(rowsIn), wantIn)
	}
	// Empty feature set short-circuits.
	if got := db.PointsNearFeaturesRun(nil, pc, ua, nil, 25, nil); len(got) != 0 {
		t.Fatal("empty feature set should match nothing")
	}
}

func TestDBExtent(t *testing.T) {
	db, _, _, _ := buildDemoDB(t)
	ext := db.Extent()
	if ext.IsEmpty() || !ext.ContainsPoint(1000, 1000) {
		t.Fatalf("extent = %v", ext)
	}
}
