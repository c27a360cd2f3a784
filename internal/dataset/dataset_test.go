package dataset

import (
	"os"
	"path/filepath"
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/grid"
)

func TestGenerateAndLoad(t *testing.T) {
	dir := t.TempDir()
	p := Params{
		Region: geom.NewEnvelope(0, 0, 500, 500),
		TilesX: 2, TilesY: 2,
		Density: 0.05,
		UACells: 8,
		Seed:    5,
	}
	info, err := Generate(dir, p)
	if err != nil {
		t.Fatal(err)
	}
	if info.Points == 0 || info.Tiles != 4 || info.OSM == 0 || info.UA != 64 {
		t.Fatalf("info = %+v", info)
	}
	db, st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != info.Points {
		t.Fatalf("loaded %d points, generated %d", st.Points, info.Points)
	}
	pc, err := db.PointCloud(TableCloud)
	if err != nil || pc.Len() != info.Points {
		t.Fatal("cloud table missing")
	}
	if _, err := db.Vector(TableOSM); err != nil {
		t.Fatal("osm table missing")
	}
	if _, err := db.Vector(TableUA); err != nil {
		t.Fatal("ua table missing")
	}
	// A selection touches real data.
	sel := pc.SelectRegionRows(grid.GeometryRegion{G: geom.NewEnvelope(50, 50, 200, 200).ToPolygon()})
	if len(sel) == 0 {
		t.Fatal("selection found nothing")
	}
}

func TestLoadWithoutVectors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Generate(dir, Params{
		Region: geom.NewEnvelope(0, 0, 200, 200),
		TilesX: 1, TilesY: 1, Density: 0.05, UACells: 4, Seed: 6,
	}); err != nil {
		t.Fatal(err)
	}
	// Remove the vector files; loading must still succeed.
	os.Remove(filepath.Join(dir, OSMFile))
	os.Remove(filepath.Join(dir, UAFile))
	db, _, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Vector(TableOSM); err == nil {
		t.Fatal("osm should be absent")
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing dataset should error")
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.TilesX != 4 || p.Density != 0.05 || p.Format != 3 || p.Seed != 2015 || p.UACells != 40 {
		t.Fatalf("defaults = %+v", p)
	}
	if p.Region.Width() != 4000 {
		t.Fatalf("default region = %v", p.Region)
	}
}

func TestCompressedDataset(t *testing.T) {
	dir := t.TempDir()
	info, err := Generate(dir, Params{
		Region: geom.NewEnvelope(0, 0, 300, 300),
		TilesX: 1, TilesY: 1, Density: 0.05, UACells: 4, Seed: 7,
		Compressed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	repo, err := Repo(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(repo.Files()) != 1 || filepath.Ext(repo.Files()[0]) != ".laz" {
		t.Fatalf("files = %v", repo.Files())
	}
	db, st, err := Load(dir)
	if err != nil || st.Points != info.Points {
		t.Fatalf("laz load: %v", err)
	}
	if _, err := db.PointCloud(TableCloud); err != nil {
		t.Fatal(err)
	}
}
