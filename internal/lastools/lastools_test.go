package lastools

import (
	"os"
	"path/filepath"
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/las"
	"gisnav/internal/sfc"
	"gisnav/internal/synth"
)

// writeTestTiles builds a small 2x2 tile repository and returns its dir and
// all points.
func writeTestTiles(t *testing.T, compressed bool) (string, []las.Point) {
	t.Helper()
	dir := t.TempDir()
	region := geom.NewEnvelope(0, 0, 800, 800)
	terrain := synth.NewTerrain(31, region)
	ds, err := synth.WriteTiles(terrain, region, 2, 2, 0.03, 1, compressed, 77, dir)
	if err != nil {
		t.Fatal(err)
	}
	var all []las.Point
	for _, f := range ds.Files {
		_, pts, err := las.ReadAnyFile(f)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, pts...)
	}
	return dir, all
}

func naiveClip(pts []las.Point, env geom.Envelope) int {
	n := 0
	for _, p := range pts {
		if env.ContainsPoint(p.X, p.Y) {
			n++
		}
	}
	return n
}

func TestOpenAndFiles(t *testing.T) {
	dir, _ := writeTestTiles(t, false)
	// Noise files must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "readme.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	repo, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(repo.Files()) != 4 {
		t.Fatalf("files = %d, want 4", len(repo.Files()))
	}
	if repo.meta != nil {
		t.Fatal("fresh repo should have no metadata")
	}
	if _, err := Open(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing dir should error")
	}
}

func TestClipBoxWithoutMetadata(t *testing.T) {
	dir, all := writeTestTiles(t, false)
	repo, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.NewEnvelope(100, 100, 300, 260)
	pts, st, err := repo.ClipBox(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := naiveClip(all, q); len(pts) != want {
		t.Fatalf("matches = %d, want %d", len(pts), want)
	}
	// Without metadata every header is read each query.
	if st.HeaderReads != 4 {
		t.Fatalf("header reads = %d, want 4", st.HeaderReads)
	}
	// Query box overlaps only tile (0,0): three tiles pruned.
	if st.FilesPruned != 3 || st.FilesScanned != 1 {
		t.Fatalf("pruned=%d scanned=%d", st.FilesPruned, st.FilesScanned)
	}
}

func TestClipBoxWithMetadata(t *testing.T) {
	dir, all := writeTestTiles(t, false)
	repo, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.ScanMetadata(); err != nil {
		t.Fatal(err)
	}
	if repo.meta == nil {
		t.Fatal("metadata should be cached")
	}
	q := geom.NewEnvelope(500, 500, 700, 700)
	pts, st, err := repo.ClipBox(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := naiveClip(all, q); len(pts) != want {
		t.Fatalf("matches = %d, want %d", len(pts), want)
	}
	if st.HeaderReads != 0 {
		t.Fatalf("metadata mode should read no headers, got %d", st.HeaderReads)
	}
}

func TestClipGeometry(t *testing.T) {
	dir, all := writeTestTiles(t, false)
	repo, _ := Open(dir)
	tri := geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: 100, Y: 100}, {X: 500, Y: 120}, {X: 300, Y: 500},
	}}}
	pts, _, err := repo.ClipGeometry(tri)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, p := range all {
		if geom.PolygonContainsPoint(tri, p.X, p.Y) {
			want++
		}
	}
	if len(pts) != want {
		t.Fatalf("polygon clip = %d, want %d", len(pts), want)
	}
}

func TestClipCompressedTiles(t *testing.T) {
	dir, all := writeTestTiles(t, true)
	repo, _ := Open(dir)
	q := geom.NewEnvelope(0, 0, 400, 400)
	pts, _, err := repo.ClipBox(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := naiveClip(all, q); len(pts) != want {
		t.Fatalf("laz clip = %d, want %d", len(pts), want)
	}
}

func TestSortFileMakesMortonOrder(t *testing.T) {
	dir, _ := writeTestTiles(t, false)
	repo, _ := Open(dir)
	path := repo.Files()[0]
	h, _, err := las.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SortFile(path, sfc.Morton); err != nil {
		t.Fatal(err)
	}
	h2, pts, err := las.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if h2.PointCount != h.PointCount {
		t.Fatal("sort lost points")
	}
	env := geom.NewEnvelope(h2.MinX, h2.MinY, h2.MaxX, h2.MaxY)
	g := sfc.NewGrid(env, 16)
	prev := uint64(0)
	for i, p := range pts {
		k := g.Key(sfc.Morton, p.X, p.Y)
		if k < prev {
			t.Fatalf("point %d out of morton order", i)
		}
		prev = k
	}
}

func TestIndexRoundTripAndClip(t *testing.T) {
	dir, all := writeTestTiles(t, false)
	repo, _ := Open(dir)
	for _, path := range repo.Files() {
		if err := SortFile(path, sfc.Hilbert); err != nil {
			t.Fatal(err)
		}
		if err := IndexFile(path, 256); err != nil {
			t.Fatal(err)
		}
		idx, err := LoadIndex(path + ".lax")
		if err != nil {
			t.Fatal(err)
		}
		if len(idx.Cells) < 2 {
			t.Fatalf("index of %s has %d cells", path, len(idx.Cells))
		}
		// Every record appears in exactly one cell.
		h, err := las.ReadAnyFileHeader(path)
		if err != nil {
			t.Fatal(err)
		}
		covered := make([]int, h.PointCount)
		for _, c := range idx.Cells {
			for _, iv := range c.Intervals {
				for r := iv[0]; r < iv[1]; r++ {
					covered[r]++
				}
			}
		}
		for r, n := range covered {
			if n != 1 {
				t.Fatalf("record %d covered %d times", r, n)
			}
		}
	}
	// Indexed clips still return exact results and read fewer points.
	repo2, _ := Open(dir)
	if err := repo2.ScanMetadata(); err != nil {
		t.Fatal(err)
	}
	q := geom.NewEnvelope(50, 50, 180, 180)
	pts, st, err := repo2.ClipBox(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := naiveClip(all, q); len(pts) != want {
		t.Fatalf("indexed clip = %d, want %d", len(pts), want)
	}
	if st.IndexedReads == 0 {
		t.Fatal("index sidecar was not used")
	}
	totalInScanned := 0
	for _, info := range repo2.meta {
		if info.Env.Intersects(q) {
			totalInScanned += int(info.PointCount)
		}
	}
	if st.PointsRead >= totalInScanned {
		t.Fatalf("indexed read %d points, full scan would read %d", st.PointsRead, totalInScanned)
	}
}

func TestIndexFileErrors(t *testing.T) {
	if err := IndexFile("nonexistent.las", 100); err == nil {
		t.Fatal("missing file should error")
	}
	dir, _ := writeTestTiles(t, false)
	repo, _ := Open(dir)
	if err := IndexFile(repo.Files()[0], 0); err == nil {
		t.Fatal("bad maxLeaf should error")
	}
	if _, err := LoadIndex(filepath.Join(dir, "no.lax")); err == nil {
		t.Fatal("missing sidecar should error")
	}
	// Corrupt magic.
	bad := filepath.Join(dir, "bad.lax")
	if err := os.WriteFile(bad, []byte("XXXXtrash"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(bad); err == nil {
		t.Fatal("bad magic should error")
	}
}

func TestIntervalsOf(t *testing.T) {
	ivs := intervalsOf([]uint32{5, 1, 2, 3, 9, 10})
	want := [][2]uint32{{1, 4}, {5, 6}, {9, 11}}
	if len(ivs) != len(want) {
		t.Fatalf("intervals = %v", ivs)
	}
	for i := range want {
		if ivs[i] != want[i] {
			t.Fatalf("intervals = %v, want %v", ivs, want)
		}
	}
	if intervalsOf(nil) != nil {
		t.Fatal("empty input should be nil")
	}
}
