package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

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
func writeTile(t testing.TB, dir, name string, format uint8, compressed bool, pts []las.Point) string {
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

// readTile reads back the points of the tile at path.
func readTile(t *testing.T, path string) []las.Point {
	t.Helper()
	_, pts, err := las.ReadAnyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return pts
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

// testDegrees are the decode degrees a load is checked at: serial, two
// tiles at a time, an odd degree, and more partitions than any test
// repository has tiles. morselDegree would keep a small repository at 1.
var testDegrees = []int{1, 2, 3, 8}

// Property: over LAS formats 0–3 and LAZ-sim, at tile sizes around the
// decode chunk and over a repository of all of them, LoadBinary's table is
// bit-identical to the row-wise load at every degree.
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
	want := rowWise(t, repo)
	for _, deg := range testDegrees {
		pc := NewPointCloud()
		st, err := loadBinary(pc, repo, deg)
		if err != nil {
			t.Fatalf("%s, degree %d: %v", what, deg, err)
		}
		if st.Points != want.Len() || st.Files != len(repo.Files()) {
			t.Fatalf("%s, degree %d: stats %+v for %d rows", what, deg, st, want.Len())
		}
		sameColumnBits(t, fmt.Sprintf("%s, degree %d", what, deg), pc, want)
	}
}

// spoilers truncate or corrupt a tile file in place.
var spoilers = map[string]func(path string) error{
	"truncated": func(path string) error {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(path, b[:len(b)*2/3], 0o644)
	},
	"corrupt": func(path string) error { return os.WriteFile(path, []byte("not a LAS tile"), 0o644) },
}

// checkFailedLoad loads the tiles of dir, one of them bad, at every test
// degree into a table holding 10 of pts with built imprints. Every load
// must fail and leave what the serial one left — rows, bit for bit, epoch
// and rewrite state — and that must be the tile-by-tile load's state: the
// seed rows, the good tiles before the bad one (tiles, row-wise) and a
// whole number of chunks of the bad tile's points (bad), with the columns
// of one length, the epoch bumped as a rewrite and the imprints dropped.
// tiles and bad are the points as written, read back before the spoiling.
// It returns how many of bad's points landed.
func checkFailedLoad(t *testing.T, what, dir string, pts []las.Point, tiles [][]las.Point, bad []las.Point) int {
	t.Helper()
	repo, err := lastools.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	type state struct {
		pc           *PointCloud
		epoch        uint64
		appendOnly   bool
		hasImprints  bool
		files, cover int
	}
	var serial state
	for _, deg := range testDegrees {
		pc := NewPointCloud()
		pc.AppendLAS(pts[:10])
		pc.SelectRegionRows(boxRegion(geom.NewEnvelope(-1e12, -1e12, 1e12, 1e12)))
		if !pc.HasImprints() {
			t.Fatalf("%s: the selection built no imprints", what)
		}
		epoch := pc.Epoch()
		st, err := loadBinary(pc, repo, deg)
		if err == nil {
			t.Fatalf("%s, degree %d: loading a bad tile succeeded", what, deg)
		}
		if err := validateSameLength(pc.Columns()); err != nil {
			t.Fatalf("%s, degree %d: %v", what, deg, err)
		}
		got := state{pc, pc.Epoch(), pc.AppendOnlySince(epoch), pc.HasImprints(), st.Files, st.Points}
		if deg == 1 {
			serial = got
			if got.epoch == epoch || got.appendOnly || got.hasImprints {
				t.Fatalf("%s: failed load left epoch %d (was %d), append-only %v, imprints %v",
					what, got.epoch, epoch, got.appendOnly, got.hasImprints)
			}
			continue
		}
		if got.epoch != serial.epoch || got.appendOnly != serial.appendOnly || got.hasImprints != serial.hasImprints ||
			got.files != serial.files || got.cover != serial.cover {
			t.Fatalf("%s, degree %d: left epoch %d, append-only %v, imprints %v, stats %d/%d; degree 1 left %d, %v, %v, %d/%d",
				what, deg, got.epoch, got.appendOnly, got.hasImprints, got.files, got.cover,
				serial.epoch, serial.appendOnly, serial.hasImprints, serial.files, serial.cover)
		}
		sameColumnBits(t, fmt.Sprintf("%s, degree %d", what, deg), pc, serial.pc)
	}

	want := NewPointCloud()
	want.AppendLAS(pts[:10])
	for _, tile := range tiles {
		want.AppendLAS(tile)
	}
	k := serial.pc.Len() - want.Len()
	if k < 0 || k > len(bad) || k%loadChunk != 0 {
		t.Fatalf("%s: %d rows of the bad tile landed, want whole chunks of its %d", what, k, len(bad))
	}
	want.AppendLAS(bad[:k])
	sameColumnBits(t, what, serial.pc, want)
	return k
}

// A second tile that is truncated or corrupt fails the load after the
// first tile's rows landed: the load is a rewrite (the imprints built over
// the old rows drop and the epoch is not append-only), and the columns
// stay of one length. A truncated LAS tile keeps the whole chunks of its
// records before the cut.
func TestLoadBinaryBadSecondTile(t *testing.T) {
	pts := randomPoints(3*loadChunk+5, 9)
	for name, spoil := range spoilers {
		for _, compressed := range []bool{false, true} {
			what := fmt.Sprintf("%s laz %v", name, compressed)
			dir := t.TempDir()
			first := readTile(t, writeTile(t, dir, "a", 3, compressed, pts[:loadChunk]))
			path := writeTile(t, dir, "b", 3, compressed, pts[loadChunk:])
			bad := readTile(t, path)
			if err := spoil(path); err != nil {
				t.Fatal(err)
			}
			k := checkFailedLoad(t, what, dir, pts, [][]las.Point{first}, bad)
			if name == "truncated" && !compressed {
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				held := (int(fi.Size()) - las.HeaderSize) / las.PointFormatSize(3)
				if want := held / loadChunk * loadChunk; k != want || k == 0 {
					t.Fatalf("%s: %d rows of the cut tile landed, want the %d of its whole chunks", what, k, want)
				}
			}
		}
	}
}

// A bad tile in the middle of five: the tiles after it decode beside it at
// every degree above 1, and their rows must not become visible.
func TestLoadBinaryBadMiddleTile(t *testing.T) {
	sizes := []int{loadChunk + 3, 2*loadChunk + 1, 3*loadChunk + 7, loadChunk, 5}
	pts := randomPoints(8*loadChunk, 12)
	var tiles [][]las.Point
	for at, n := range sizes {
		tiles = append(tiles, pts[at*loadChunk:at*loadChunk+n])
	}
	for name, spoil := range spoilers {
		for _, compressed := range []bool{false, true} {
			what := fmt.Sprintf("middle %s laz %v", name, compressed)
			dir := t.TempDir()
			var written [][]las.Point
			for k, tile := range tiles {
				path := writeTile(t, dir, fmt.Sprintf("tile%d", k), 2, compressed, tile)
				written = append(written, readTile(t, path))
				if k == 2 {
					if err := spoil(path); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkFailedLoad(t, what, dir, pts, written[:2], written[2])
		}
	}
}

// A tile whose header claims 4,194,304 points over a few hundred bytes
// fails the load without sizing anything from the claim: the columns are
// reserved from what the bytes can hold.
func TestLoadBinaryClaimedCount(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		dir := t.TempDir()
		path := writeTile(t, dir, "liar", 3, compressed, randomPoints(5, 3))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		at := 107 // the point count's offset in the header
		if compressed {
			at += 4 // past the LAZ-sim magic
		}
		binary.LittleEndian.PutUint32(b[at:], 1<<22)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		repo, err := lastools.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		pc := NewPointCloud()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = LoadBinary(pc, repo)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("laz %v: a tile holding 5 of its claimed points loaded", compressed)
		}
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+32*len(b)); grew > bound {
			t.Fatalf("laz %v: a %d-byte tile claiming %d points allocated %d bytes, bound %d",
				compressed, len(b), 1<<22, grew, bound)
		}
	}
}

// A load reserves a sixteenth of headroom, so the first small append after
// it does not move the columns.
func TestLoadBinaryHeadroom(t *testing.T) {
	dir := t.TempDir()
	for k := range 3 {
		writeTile(t, dir, fmt.Sprintf("tile%d", k), 1, false, randomPoints(15000, int64(k)))
	}
	repo, err := lastools.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPointCloud()
	if _, err := LoadBinary(pc, repo); err != nil {
		t.Fatal(err)
	}
	x := unsafe.SliceData(pc.X())
	pc.AppendLAS(randomPoints(2500, 7))
	if unsafe.SliceData(pc.X()) != x || pc.Len() != 47500 {
		t.Fatalf("a 2,500-point append after a %d-row load moved the x column", pc.Len()-2500)
	}
}

// TestLoadBinaryTileAllocs: a tile costs the load no buffer of its own.
// The header pass reads each header through a header-sized buffer and each
// partition streams every tile it claims through one buffer, so six tiles
// allocate under 16 KiB per tile more than one tile of the same rows,
// whose column reservations are the same.
func TestLoadBinaryTileAllocs(t *testing.T) {
	const n, tiles = 2000, 6
	one, six := t.TempDir(), t.TempDir()
	writeTile(t, one, "all", 1, false, randomPoints(n*tiles, 1))
	for k := range tiles {
		writeTile(t, six, fmt.Sprintf("tile%d", k), 1, k%2 == 1, randomPoints(n, int64(k)))
	}
	loadBytes := func(dir string) uint64 {
		repo, err := lastools.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		least := uint64(math.MaxUint64)
		for range 3 {
			pc := NewPointCloud()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := loadBinary(pc, repo, 1); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	base, many := loadBytes(one), loadBytes(six)
	if per := (int64(many) - int64(base)) / (tiles - 1); per >= 16<<10 {
		t.Fatalf("a load of %d tiles allocates %d bytes, of one tile %d: %d bytes per extra tile, want < 16 KiB",
			tiles, many, base, per)
	}
}

// FuzzLoadBinary loads two arbitrary tile files: the load errors, or it
// yields exactly the rows the headers claim, every column bit-identical to
// the row-wise load of the same files. It never panics, and it allocates in
// proportion to the bytes on disk whatever the headers claim.
func FuzzLoadBinary(f *testing.F) {
	dir := f.TempDir()
	var seeds [][]byte
	for k, compressed := range []bool{false, true} {
		b, err := os.ReadFile(writeTile(f, dir, fmt.Sprint(k), uint8(2*k+1), compressed, randomPoints(7, int64(k))))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	lie := bytes.Clone(seeds[0])
	binary.LittleEndian.PutUint32(lie[107:], 1<<22)
	f.Add(seeds[0], seeds[1])
	f.Add(seeds[1], seeds[0][:len(seeds[0])-3])
	f.Add(lie, seeds[1])
	f.Add(seeds[0], []byte("LAZS"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		dir := t.TempDir()
		for i, data := range [][]byte{a, b} {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("tile%d.las", i)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		repo, err := lastools.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		pc := NewPointCloud()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = LoadBinary(pc, repo)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+32*(len(a)+len(b))); grew > bound {
			t.Fatalf("loading %d bytes of tiles allocated %d bytes, bound %d", len(a)+len(b), grew, bound)
		}
		if err != nil {
			if err := validateSameLength(pc.Columns()); err != nil {
				t.Fatal(err)
			}
			return
		}
		want := NewPointCloud()
		claimed := 0
		for _, path := range repo.Files() {
			h, pts, err := las.ReadAnyFile(path)
			if err != nil {
				t.Fatalf("loaded a tile the row-wise reader rejects: %v", err)
			}
			claimed += int(h.PointCount)
			want.AppendLAS(pts)
		}
		if pc.Len() != claimed {
			t.Fatalf("loaded %d rows, the headers claim %d", pc.Len(), claimed)
		}
		sameColumnBits(t, "fuzzed tiles", pc, want)
	})
}
