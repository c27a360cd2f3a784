package engine

import (
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/lastools"
	"gisnav/internal/synth"
)

// writeRepo generates a small tile repository on disk.
func writeRepo(t *testing.T, compressed bool) *lastools.Repository {
	t.Helper()
	dir := t.TempDir()
	region := geom.NewEnvelope(0, 0, 600, 600)
	terrain := synth.NewTerrain(71, region)
	if _, err := synth.WriteTiles(terrain, region, 2, 2, 0.05, 3, compressed, 11, dir); err != nil {
		t.Fatal(err)
	}
	repo, err := lastools.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

func TestLoadBinary(t *testing.T) {
	repo := writeRepo(t, false)
	pc := NewPointCloud()
	st, err := LoadBinary(pc, repo)
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 4 || st.Points == 0 || pc.Len() != st.Points {
		t.Fatalf("stats = %+v, len = %d", st, pc.Len())
	}
	if st.StageBytes == 0 {
		t.Fatal("binary dumps should have bytes")
	}
	if st.PointsPerSecond() <= 0 {
		t.Fatal("throughput should be positive")
	}
	// The loaded table answers queries identically to direct row appends.
	sel := pc.SelectRegionRows(boxRegion(geom.NewEnvelope(50, 50, 300, 300)))
	if len(sel) == 0 {
		t.Fatal("loaded table should answer queries")
	}
}

func TestLoadCSVMatchesBinary(t *testing.T) {
	repo := writeRepo(t, false)
	bin := NewPointCloud()
	if _, err := LoadBinary(bin, repo); err != nil {
		t.Fatal(err)
	}
	csv := NewPointCloud()
	stCSV, err := LoadCSV(csv, repo)
	if err != nil {
		t.Fatal(err)
	}
	if csv.Len() != bin.Len() {
		t.Fatalf("csv rows %d != binary rows %d", csv.Len(), bin.Len())
	}
	// Row-for-row equality across all columns.
	for i, col := range bin.Columns() {
		other := csv.Columns()[i]
		for r := 0; r < bin.Len(); r += 97 { // stride to keep the test fast
			if col.Value(r) != other.Value(r) {
				t.Fatalf("column %d row %d: %v vs %v", i, r, col.Value(r), other.Value(r))
			}
		}
	}
	// The binary stage representation is far denser than the text one.
	stBin := LoadStats{}
	pc2 := NewPointCloud()
	stBin, err = LoadBinary(pc2, repo)
	if err != nil {
		t.Fatal(err)
	}
	if stBin.StageBytes >= stCSV.StageBytes {
		t.Fatalf("binary staging (%d B) should be smaller than CSV staging (%d B)",
			stBin.StageBytes, stCSV.StageBytes)
	}
}

func TestLoadCompressedTiles(t *testing.T) {
	repo := writeRepo(t, true)
	pc := NewPointCloud()
	st, err := LoadBinary(pc, repo)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Len() != st.Points || st.Points == 0 {
		t.Fatalf("laz load failed: %+v", st)
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	repo, err := lastools.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPointCloud()
	st, err := LoadBinary(pc, repo)
	if err != nil || st.Files != 0 {
		t.Fatal("empty repo should load nothing")
	}
}
