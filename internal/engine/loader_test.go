package engine

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/las"
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

// randomPoints draws n points over every field's full range, coordinates
// on the 0.01 grid over the whole int32 span and GPS times as raw bits.
func randomPoints(n int, seed int64) []las.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]las.Point, n)
	for i := range pts {
		coord := func() float64 { return float64(int32(rng.Uint32()))*0.01 + 1000 }
		pts[i] = las.Point{
			X: coord(), Y: coord(), Z: coord(),
			Intensity:      uint16(rng.Uint32()),
			ReturnNumber:   uint8(rng.Intn(8)),
			NumReturns:     uint8(rng.Intn(8)),
			ScanDirection:  rng.Intn(2) == 0,
			EdgeOfFlight:   rng.Intn(2) == 0,
			Classification: uint8(rng.Uint32()),
			ScanAngleRank:  int8(rng.Uint32()),
			UserData:       uint8(rng.Uint32()),
			PointSourceID:  uint16(rng.Uint32()),
			GPSTime:        math.Float64frombits(rng.Uint64()),
			Red:            uint16(rng.Uint32()),
			Green:          uint16(rng.Uint32()),
			Blue:           uint16(rng.Uint32()),
		}
	}
	return pts
}

// writeTile writes pts to dir/name.las, or as LAZ-sim to dir/name.laz.
func writeTile(t *testing.T, dir, name string, format uint8, compressed bool, pts []las.Point) string {
	t.Helper()
	write, path := las.WriteFile, filepath.Join(dir, name+".las")
	if compressed {
		write, path = las.WriteLAZFile, filepath.Join(dir, name+".laz")
	}
	if err := write(path, format, 0.01, 0.01, 0.01, 1000, 1000, 1000, pts); err != nil {
		t.Fatal(err)
	}
	return path
}

// rowWise loads repo point by point: las.ReadAnyFile into AppendLAS.
func rowWise(t *testing.T, repo *lastools.Repository) *PointCloud {
	t.Helper()
	pc := NewPointCloud()
	for _, path := range repo.Files() {
		_, pts, err := las.ReadAnyFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pc.AppendLAS(pts)
	}
	return pc
}

// sameColumnBits fails unless every column of got equals want's, length
// and Float64bits of every value.
func sameColumnBits(t *testing.T, what string, got, want *PointCloud) {
	t.Helper()
	for i, w := range want.Columns() {
		g := got.Columns()[i]
		if g.Len() != w.Len() {
			t.Fatalf("%s: column %d holds %d rows, want %d", what, i, g.Len(), w.Len())
		}
		for r := range w.Len() {
			if math.Float64bits(g.Value(r)) != math.Float64bits(w.Value(r)) {
				t.Fatalf("%s: column %d row %d: %v, want %v", what, i, r, g.Value(r), w.Value(r))
			}
		}
	}
}

// Property: over LAS formats 0–3 and LAZ-sim, at tile sizes around the
// decode chunk and over a repository of all of them, LoadBinary's table is
// bit-identical to the row-wise load.
func TestLoadBinaryBitIdentical(t *testing.T) {
	sizes := []int{0, 1, loadChunk - 1, loadChunk, loadChunk + 1}
	for _, compressed := range []bool{false, true} {
		for format := uint8(0); format <= 3; format++ {
			multi := t.TempDir()
			for k, n := range sizes {
				pts := randomPoints(n, int64(100*int(format)+k))
				single := t.TempDir()
				writeTile(t, single, "tile", format, compressed, pts)
				writeTile(t, multi, fmt.Sprintf("tile%d", k), format, compressed, pts)
				checkBitIdentical(t, fmt.Sprintf("format %d laz %v, %d points", format, compressed, n), single)
			}
			checkBitIdentical(t, fmt.Sprintf("format %d laz %v, %d tiles", format, compressed, len(sizes)), multi)
		}
	}
}

func checkBitIdentical(t *testing.T, what, dir string) {
	t.Helper()
	repo, err := lastools.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPointCloud()
	st, err := LoadBinary(pc, repo)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want := rowWise(t, repo)
	if st.Points != want.Len() || st.Files != len(repo.Files()) {
		t.Fatalf("%s: stats %+v for %d rows", what, st, want.Len())
	}
	sameColumnBits(t, what, pc, want)
}

// A second tile that is truncated or corrupt fails the load after the
// first tile's rows landed: the load is a rewrite (the imprints built over
// the old rows drop and the epoch is not append-only), and the columns
// stay of one length.
func TestLoadBinaryBadSecondTile(t *testing.T) {
	pts := randomPoints(2*loadChunk+5, 9)
	for name, spoil := range map[string]func(path string) error{
		"truncated": func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, b[:len(b)*2/3], 0o644)
		},
		"corrupt": func(path string) error { return os.WriteFile(path, []byte("not a LAS tile"), 0o644) },
	} {
		for _, compressed := range []bool{false, true} {
			what := fmt.Sprintf("%s laz %v", name, compressed)
			dir := t.TempDir()
			writeTile(t, dir, "a", 3, compressed, pts[:loadChunk])
			if err := spoil(writeTile(t, dir, "b", 3, compressed, pts[loadChunk:])); err != nil {
				t.Fatal(err)
			}
			repo, err := lastools.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			pc := NewPointCloud()
			pc.AppendLAS(pts[:10])
			pc.SelectRegionRows(boxRegion(geom.NewEnvelope(0, 0, 1e6, 1e6)))
			if !pc.HasImprints() {
				t.Fatalf("%s: the selection built no imprints", what)
			}
			epoch := pc.Epoch()
			if _, err := LoadBinary(pc, repo); err == nil {
				t.Fatalf("%s: loading a bad second tile succeeded", what)
			}
			if pc.Len() < 10+loadChunk {
				t.Fatalf("%s: %d rows; the first tile did not land", what, pc.Len())
			}
			if err := validateSameLength(pc.Columns()); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if pc.Epoch() == epoch || pc.AppendOnlySince(epoch) || pc.HasImprints() {
				t.Fatalf("%s: failed load left epoch %d (was %d), append-only %v, imprints %v",
					what, pc.Epoch(), epoch, pc.AppendOnlySince(epoch), pc.HasImprints())
			}
		}
	}
}
