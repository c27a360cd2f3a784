package las

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

// samplePoints builds a deterministic scan-like point sequence.
func samplePoints(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	x, y := 100000.0, 450000.0
	gps := 300000.0
	for i := range pts {
		x += rng.Float64() * 0.8
		if i%100 == 99 {
			y += 0.5
			x -= 70
		}
		gps += 0.0001
		pts[i] = Point{
			X: x, Y: y, Z: 10 + rng.Float64()*5,
			Intensity:      uint16(rng.Intn(4096)),
			ReturnNumber:   uint8(rng.Intn(3) + 1),
			NumReturns:     3,
			ScanDirection:  i%2 == 0,
			EdgeOfFlight:   i%100 == 0,
			Classification: uint8(rng.Intn(10)),
			ScanAngleRank:  int8(rng.Intn(60) - 30),
			UserData:       uint8(i % 256),
			PointSourceID:  uint16(7000 + rng.Intn(3)),
			GPSTime:        gps,
			Red:            uint16(rng.Intn(65536)),
			Green:          uint16(rng.Intn(65536)),
			Blue:           uint16(rng.Intn(65536)),
		}
	}
	return pts
}

func roundTripLAS(t *testing.T, format uint8, pts []Point) (Header, []Point) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, format, 0.01, 0.01, 0.01, 100000, 450000, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return r.Header(), got
}

func TestPointFormatSizes(t *testing.T) {
	want := map[uint8]int{0: 20, 1: 28, 2: 26, 3: 34, 4: 0, 99: 0}
	for f, sz := range want {
		if got := PointFormatSize(f); got != sz {
			t.Errorf("format %d size = %d, want %d", f, got, sz)
		}
	}
}

func TestFlagPacking(t *testing.T) {
	p := Point{ReturnNumber: 2, NumReturns: 3, ScanDirection: true, EdgeOfFlight: true}
	var q Point
	q.unpackFlags(p.packFlags())
	if q.ReturnNumber != 2 || q.NumReturns != 3 || !q.ScanDirection || !q.EdgeOfFlight {
		t.Fatalf("flag roundtrip = %+v", q)
	}
}

func TestRoundTripAllFormats(t *testing.T) {
	pts := samplePoints(500, 1)
	for _, format := range []uint8{0, 1, 2, 3} {
		h, got := roundTripLAS(t, format, pts)
		if h.PointFormat != format || int(h.PointCount) != len(pts) {
			t.Fatalf("format %d: header %+v", format, h)
		}
		for i, p := range pts {
			g := got[i]
			// Coordinates quantised to 0.01.
			if math.Abs(g.X-p.X) > 0.0051 || math.Abs(g.Y-p.Y) > 0.0051 || math.Abs(g.Z-p.Z) > 0.0051 {
				t.Fatalf("format %d point %d: coords %v vs %v", format, i, g, p)
			}
			if g.Intensity != p.Intensity || g.Classification != p.Classification ||
				g.ScanAngleRank != p.ScanAngleRank || g.UserData != p.UserData ||
				g.PointSourceID != p.PointSourceID || g.ReturnNumber != p.ReturnNumber ||
				g.NumReturns != p.NumReturns || g.ScanDirection != p.ScanDirection ||
				g.EdgeOfFlight != p.EdgeOfFlight {
				t.Fatalf("format %d point %d: attrs %+v vs %+v", format, i, g, p)
			}
			if FormatHasGPS(format) && g.GPSTime != p.GPSTime {
				t.Fatalf("format %d point %d: gps %v vs %v", format, i, g.GPSTime, p.GPSTime)
			}
			if !FormatHasGPS(format) && g.GPSTime != 0 {
				t.Fatalf("format %d should not carry gps", format)
			}
			if FormatHasRGB(format) && (g.Red != p.Red || g.Green != p.Green || g.Blue != p.Blue) {
				t.Fatalf("format %d point %d: rgb", format, i)
			}
		}
	}
}

func TestHeaderExtentTracksQuantisedPoints(t *testing.T) {
	pts := samplePoints(200, 2)
	h, got := roundTripLAS(t, 1, pts)
	minX, maxX := math.Inf(1), math.Inf(-1)
	for _, p := range got {
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
	}
	if h.MinX != minX || h.MaxX != maxX {
		t.Fatalf("header extent [%v,%v] vs observed [%v,%v]", h.MinX, h.MaxX, minX, maxX)
	}
}

func TestReturnCounts(t *testing.T) {
	pts := []Point{
		{ReturnNumber: 1}, {ReturnNumber: 1}, {ReturnNumber: 2}, {ReturnNumber: 5},
	}
	h, _ := roundTripLAS(t, 0, pts)
	if h.ReturnCounts[0] != 2 || h.ReturnCounts[1] != 1 || h.ReturnCounts[4] != 1 {
		t.Fatalf("return counts = %v", h.ReturnCounts)
	}
}

func TestEmptyFile(t *testing.T) {
	h, got := roundTripLAS(t, 0, nil)
	if h.PointCount != 0 || len(got) != 0 {
		t.Fatal("empty roundtrip failed")
	}
	if h.MinX != 0 || h.MaxX != 0 {
		t.Fatalf("empty extent should be zeroed: %+v", h)
	}
}

func TestWriterErrors(t *testing.T) {
	if _, err := NewWriter(io.Discard, 7, 0.01, 0.01, 0.01, 0, 0, 0); err == nil {
		t.Fatal("bad format should be rejected")
	}
	if _, err := NewWriter(io.Discard, 0, 0, 0.01, 0.01, 0, 0, 0); err == nil {
		t.Fatal("zero scale should be rejected")
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0, 0.01, 0.01, 0.01, 0, 0, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Point{}); err == nil {
		t.Fatal("write after close should fail")
	}
	if err := w.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
}

func TestReaderErrors(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("short"))); err == nil {
		t.Fatal("truncated header should error")
	}
	junk := make([]byte, HeaderSize)
	copy(junk, "JUNK")
	if _, err := NewReader(bytes.NewReader(junk)); err == nil {
		t.Fatal("bad magic should error")
	}
	// Valid header claiming more points than present.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0, 0.01, 0.01, 0.01, 0, 0, 0)
	w.Write(Point{X: 1, Y: 2, Z: 3})
	w.Close()
	full := buf.Bytes()
	r, err := NewReader(bytes.NewReader(full[:len(full)-5]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAll(); err == nil {
		t.Fatal("truncated body should error")
	}
}

func TestReadHeaderOnly(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 2, 0.001, 0.001, 0.001, 10, 20, 0)
	w.Write(Point{X: 11, Y: 21, Z: 5})
	w.Close()
	h, err := ReadHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.PointFormat != 2 || h.PointCount != 1 || h.ScaleX != 0.001 {
		t.Fatalf("header = %+v", h)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tile.las")
	pts := samplePoints(300, 3)
	if err := WriteFile(path, 3, 0.01, 0.01, 0.01, 100000, 450000, 0, pts); err != nil {
		t.Fatal(err)
	}
	h, got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int(h.PointCount) != len(pts) || len(got) != len(pts) {
		t.Fatal("file roundtrip count mismatch")
	}
	h2, err := ReadAnyFileHeader(path)
	if err != nil || h2.PointCount != h.PointCount {
		t.Fatal("header-only read mismatch")
	}
}

func TestLAZRoundTrip(t *testing.T) {
	pts := samplePoints(1000, 4)
	for _, format := range []uint8{0, 1, 2, 3} {
		var buf bytes.Buffer
		if err := WriteLAZ(&buf, format, 0.01, 0.01, 0.01, 100000, 450000, 0, pts); err != nil {
			t.Fatal(err)
		}
		h, got, err := ReadLAZ(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if int(h.PointCount) != len(pts) {
			t.Fatalf("format %d: count %d", format, h.PointCount)
		}
		for i, p := range pts {
			g := got[i]
			if math.Abs(g.X-p.X) > 0.0051 || math.Abs(g.Y-p.Y) > 0.0051 || math.Abs(g.Z-p.Z) > 0.0051 {
				t.Fatalf("format %d point %d: coords", format, i)
			}
			if g.Intensity != p.Intensity || g.Classification != p.Classification ||
				g.PointSourceID != p.PointSourceID {
				t.Fatalf("format %d point %d: attrs", format, i)
			}
			if FormatHasGPS(format) && g.GPSTime != p.GPSTime {
				t.Fatalf("format %d point %d: gps %v vs %v", format, i, g.GPSTime, p.GPSTime)
			}
			if FormatHasRGB(format) && (g.Red != p.Red || g.Green != p.Green || g.Blue != p.Blue) {
				t.Fatalf("format %d point %d: rgb", format, i)
			}
		}
	}
}

func TestLAZCompressesScanOrderedData(t *testing.T) {
	pts := samplePoints(5000, 5)
	var lasBuf, lazBuf bytes.Buffer
	w, _ := NewWriter(&lasBuf, 1, 0.01, 0.01, 0.01, 100000, 450000, 0)
	for _, p := range pts {
		w.Write(p)
	}
	w.Close()
	if err := WriteLAZ(&lazBuf, 1, 0.01, 0.01, 0.01, 100000, 450000, 0, pts); err != nil {
		t.Fatal(err)
	}
	ratio := float64(lazBuf.Len()) / float64(lasBuf.Len())
	if ratio > 0.7 {
		t.Fatalf("LAZ-sim ratio = %.2f, want < 0.7 on scan-ordered data", ratio)
	}
}

func TestLAZErrors(t *testing.T) {
	if _, _, err := ReadLAZ(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Fatal("bad magic should error")
	}
	if _, _, err := ReadLAZ(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream should error")
	}
	// Truncated body.
	var buf bytes.Buffer
	if err := WriteLAZ(&buf, 0, 0.01, 0.01, 0.01, 0, 0, 0, samplePoints(10, 6)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, _, err := ReadLAZ(bytes.NewReader(full[:len(full)-3])); err == nil {
		t.Fatal("truncated stream should error")
	}
}

func TestReadAnyFile(t *testing.T) {
	dir := t.TempDir()
	pts := samplePoints(100, 7)
	lasPath := filepath.Join(dir, "a.las")
	lazPath := filepath.Join(dir, "a.laz")
	if err := WriteFile(lasPath, 1, 0.01, 0.01, 0.01, 100000, 450000, 0, pts); err != nil {
		t.Fatal(err)
	}
	if err := WriteLAZFile(lazPath, 1, 0.01, 0.01, 0.01, 100000, 450000, 0, pts); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{lasPath, lazPath} {
		h, got, err := ReadAnyFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(got) != 100 || h.PointCount != 100 {
			t.Fatalf("%s: %d points", path, len(got))
		}
		hh, err := ReadAnyFileHeader(path)
		if err != nil || hh.PointCount != 100 {
			t.Fatalf("%s header: %v", path, err)
		}
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("zigzag roundtrip %d = %d", v, got)
		}
	}
}

// Property: quantise/dequantise round-trips within half a scale unit.
func TestQuickQuantisation(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.Abs(v) > 1e7 {
			return true
		}
		scale, offset := 0.01, 100000.0
		got := dequantise(quantise(v, scale, offset), scale, offset)
		return math.Abs(got-v) <= scale/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
