package las

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// Robustness: the LAS and LAZ-sim readers must reject corrupt streams with
// errors, never panic or over-allocate.

func TestLASReaderRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(HeaderSize * 2)
		buf := make([]byte, n)
		rng.Read(buf)
		if iter%3 == 0 && n >= 4 {
			copy(buf, "LASF") // plausible magic, garbage rest
		}
		r, err := NewReader(bytes.NewReader(buf))
		if err != nil {
			continue
		}
		// A reader that accepted a header must fail gracefully on points.
		_, _ = r.ReadAll()
	}
}

func TestLASHeaderFieldCorruption(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 1, 0.01, 0.01, 0.01, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(Point{X: 1, Y: 2, Z: 3, GPSTime: 4})
	w.Close()
	valid := buf.Bytes()

	rng := rand.New(rand.NewSource(223))
	for iter := 0; iter < 3000; iter++ {
		mut := append([]byte(nil), valid...)
		// Corrupt only header bytes so the failure lands in validation.
		for k := 0; k < 1+rng.Intn(3); k++ {
			mut[rng.Intn(HeaderSize)] = byte(rng.Intn(256))
		}
		r, err := NewReader(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		_, _ = r.ReadAll()
	}
}

func TestLAZReaderRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(600)
		buf := make([]byte, n)
		rng.Read(buf)
		if iter%2 == 0 && n >= 4 {
			copy(buf, lazMagic[:])
		}
		_, _, _ = ReadLAZ(bytes.NewReader(buf)) // must not panic
	}
}

func TestLAZMutatedValidStream(t *testing.T) {
	pts := samplePoints(200, 31)
	var buf bytes.Buffer
	if err := WriteLAZ(&buf, 3, 0.01, 0.01, 0.01, 100000, 450000, 0, pts); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	rng := rand.New(rand.NewSource(229))
	for iter := 0; iter < 1500; iter++ {
		mut := append([]byte(nil), valid...)
		for k := 0; k < 1+rng.Intn(5); k++ {
			mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
		}
		// Decoding may succeed (bit flips in coordinates) or fail; it must
		// never panic and never return more points than the header claims.
		h, got, err := ReadLAZ(bytes.NewReader(mut))
		if err == nil && len(got) > int(h.PointCount) {
			t.Fatalf("decoded %d points, header says %d", len(got), h.PointCount)
		}
	}
}

// allocated reports the bytes f allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what reading an n-byte stream may allocate: the bufio
// buffer, the header and a first chunk are fixed; points cost at most a few
// times their record bytes, doubling growth included.
func allocBound(n int) uint64 { return uint64(1<<20 + 32*n) }

// readerSeeds is writer output in every point format — LAS, or LAZ-sim
// when laz is set — truncations of it, and header corruptions.
func readerSeeds(tb testing.TB, laz bool) [][]byte {
	var seeds [][]byte
	for format := uint8(0); format <= 3; format++ {
		var buf bytes.Buffer
		pts := samplePoints(5, int64(format))
		hdr := 0 // where the LAS header block starts
		if laz {
			if err := WriteLAZ(&buf, format, 0.01, 0.01, 0.01, 100000, 450000, 0, pts); err != nil {
				tb.Fatal(err)
			}
			hdr = len(lazMagic)
		} else {
			w, err := NewWriter(&buf, format, 0.01, 0.01, 0.01, 100000, 450000, 0)
			if err != nil {
				tb.Fatal(err)
			}
			for _, p := range pts {
				w.Write(p)
			}
			w.Close()
		}
		valid := buf.Bytes()
		seeds = append(seeds, valid, valid[:len(valid)-1], valid[:hdr+HeaderSize], valid[:hdr+HeaderSize-1])
		le := binary.LittleEndian
		for _, corrupt := range []func(b []byte){
			func(b []byte) { le.PutUint32(b[107:], 0xFFFFFFFF) }, // point count: four billion records
			func(b []byte) { le.PutUint32(b[96:], 0xFFFFFFF0) },  // point data offset far past the stream
			func(b []byte) { le.PutUint32(b[96:], 100) },         // point data offset inside the header
			func(b []byte) { b[104] = 9 },                        // unsupported point format
			func(b []byte) { le.PutUint16(b[105:], 1) },          // record length against the format
			func(b []byte) { le.PutUint64(b[131:], 0) },          // zero X scale
		} {
			mut := append([]byte(nil), valid...)
			corrupt(mut[hdr:])
			seeds = append(seeds, mut)
		}
	}
	return seeds
}

// FuzzLASReader: whatever the bytes, NewReader plus ReadAll returns an
// error or exactly the points the header claims — never a panic, never
// success on a stream too short to hold the records, and never an
// allocation out of proportion to the stream (a header may claim four
// billion points over a few hundred bytes). ReadRecords, under a fuzzed
// buffer size, hands out the stream's record bytes verbatim in whole
// records and ends as ReadAll did. Seeds are readerSeeds.
func FuzzLASReader(f *testing.F) {
	bufSizes := []uint16{0, 1, 19, 20, 34, 35, 1000, 65535}
	for i, seed := range readerSeeds(f, false) {
		f.Add(seed, bufSizes[i%len(bufSizes)])
	}
	f.Fuzz(func(t *testing.T, data []byte, bufSize uint16) {
		var (
			h   Header
			pts []Point
			err error
		)
		if grew, bound := allocated(func() {
			var r *Reader
			if r, err = NewReader(bytes.NewReader(data)); err == nil {
				h = r.Header()
				pts, err = r.ReadAll()
			}
		}), allocBound(len(data)); grew > bound {
			t.Fatalf("reading %d bytes allocated %d bytes, bound %d", len(data), grew, bound)
		}
		if err == nil && len(pts) != int(h.PointCount) {
			t.Fatalf("read %d points, header claims %d", len(pts), h.PointCount)
		}
		if need := HeaderSize + len(pts)*h.RecordSize(); err == nil && len(data) < need {
			t.Fatalf("read %d points of %d bytes from a %d-byte stream", len(pts), h.RecordSize(), len(data))
		}

		r, rerr := NewReader(bytes.NewReader(data))
		if rerr != nil {
			return
		}
		size := r.Header().RecordSize()
		buf := make([]byte, bufSize)
		var recs []byte
		for rerr == nil {
			var n int
			n, rerr = r.ReadRecords(buf)
			if n > len(buf)/size {
				t.Fatalf("%d records in a %d-byte buffer", n, len(buf))
			}
			recs = append(recs, buf[:n*size]...)
		}
		if len(buf) < size && r.Header().PointCount > 0 {
			if !errors.Is(rerr, io.ErrShortBuffer) {
				t.Fatalf("a %d-byte buffer for %d-byte records: %v", len(buf), size, rerr)
			}
		} else if (rerr == io.EOF) != (err == nil) || len(recs) != len(pts)*size {
			t.Fatalf("ReadRecords(%d-byte buffer) gave %d records and %v; ReadAll %d points and %v",
				len(buf), len(recs)/size, rerr, len(pts), err)
		}
		if off := int(binary.LittleEndian.Uint32(data[96:])); off+len(recs) > len(data) || !bytes.Equal(recs, data[off:off+len(recs)]) {
			t.Fatalf("ReadRecords returned %d bytes that are not the stream's records at %d", len(recs), off)
		}
	})
}

// FuzzLAZReader: whatever the bytes, ReadLAZ returns an error or exactly
// the points the header claims — never a panic, never success on fewer
// bytes than the claimed points need, and never an allocation out of
// proportion to the stream. Seeds are readerSeeds in LAZ-sim.
func FuzzLAZReader(f *testing.F) {
	for _, seed := range readerSeeds(f, true) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			h   Header
			pts []Point
			err error
		)
		if grew, bound := allocated(func() { h, pts, err = ReadLAZ(bytes.NewReader(data)) }), allocBound(len(data)); grew > bound {
			t.Fatalf("reading %d bytes allocated %d bytes, bound %d", len(data), grew, bound)
		}
		if err != nil {
			return
		}
		if len(pts) != int(h.PointCount) {
			t.Fatalf("read %d points, header claims %d", len(pts), h.PointCount)
		}
		// A point is at least four one-byte varints, four raw bytes and one
		// more varint.
		if need := len(lazMagic) + HeaderSize + 9*len(pts); len(data) < need {
			t.Fatalf("read %d points from a %d-byte stream", len(pts), len(data))
		}
	})
}

// A LAZ-sim stream whose header claims millions of points over a few
// hundred bytes fails without reserving memory for the claim.
func TestReadLAZClaimedCount(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteLAZ(&buf, 3, 0.01, 0.01, 0.01, 100000, 450000, 0, samplePoints(5, 1)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b[len(lazMagic)+107:], 1<<22)
	var err error
	if grew, bound := allocated(func() { _, _, err = ReadLAZ(bytes.NewReader(b)) }), allocBound(len(b)); grew > bound {
		t.Fatalf("a %d-byte stream claiming %d points allocated %d bytes, bound %d", len(b), 1<<22, grew, bound)
	}
	if err == nil {
		t.Fatal("a stream holding 5 of its claimed points decoded")
	}
}

// RecordBound caps a header's count by what the stream's bytes can hold:
// whole records for LAS, the shortest coding for LAZ-sim.
func TestRecordBound(t *testing.T) {
	for _, laz := range []bool{false, true} {
		for format := uint8(0); format <= 3; format++ {
			var buf bytes.Buffer
			pts := samplePoints(5, 1)
			start, shortest := HeaderSize, PointFormatSize(format)
			if laz {
				start, shortest = len(lazMagic)+HeaderSize, lazMinRecord(format)
				if err := WriteLAZ(&buf, format, 0.01, 0.01, 0.01, 100000, 450000, 0, pts); err != nil {
					t.Fatal(err)
				}
			} else {
				w, err := NewWriter(&buf, format, 0.01, 0.01, 0.01, 100000, 450000, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range pts {
					w.Write(p)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			b := buf.Bytes()
			bound := func(data []byte, claim uint32) int {
				binary.LittleEndian.PutUint32(data[start-HeaderSize+107:], claim)
				r, err := NewAnyReader(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				return r.RecordBound(int64(len(data)))
			}
			if got := bound(b, 5); got != 5 {
				t.Fatalf("laz %v format %d: honest bound %d, want 5", laz, format, got)
			}
			if got, want := bound(b, 1<<22), (len(b)-start)/shortest; got != want || got < 5 {
				t.Fatalf("laz %v format %d: lying bound %d, want %d", laz, format, got, want)
			}
			if got := bound(b[:start], 1<<22); got != 0 {
				t.Fatalf("laz %v format %d: header-only bound %d", laz, format, got)
			}
		}
	}
}

// FuzzHeaderViews: whatever a tile's bytes, the metadata read
// (ReadAnyFileHeader, what lastools.ScanMetadata uses) and the loader's
// header pass (FileRecordBound) both accept it or both reject it, and agree
// with a reader over the same bytes on the header. Seeds are readerSeeds in
// both formats and a two-point LAS tile whose point data offset lies 1,000
// bytes past its end.
func FuzzHeaderViews(f *testing.F) {
	for _, laz := range []bool{false, true} {
		for _, seed := range readerSeeds(f, laz) {
			f.Add(seed)
		}
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 1, 0.01, 0.01, 0.01, 100000, 450000, 0)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range samplePoints(2, 1) {
		w.Write(p)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	gap := buf.Bytes()
	binary.LittleEndian.PutUint32(gap[96:], uint32(len(gap)+1000))
	f.Add(gap)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "tile.las")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		h, herr := ReadAnyFileHeader(path)
		n, berr := FileRecordBound(path)
		if (herr == nil) != (berr == nil) {
			t.Fatalf("metadata read err %v, record bound err %v", herr, berr)
		}
		r, rerr := NewAnyReader(bytes.NewReader(data))
		if (herr == nil) != (rerr == nil) {
			t.Fatalf("metadata read err %v, stream reader err %v", herr, rerr)
		}
		if herr != nil {
			return
		}
		if !bytes.Equal(h.encode(), r.Header().encode()) || n != r.RecordBound(int64(len(data))) {
			t.Fatalf("file views read %+v bound %d; the stream reader %+v bound %d",
				h, n, r.Header(), r.RecordBound(int64(len(data))))
		}
	})
}
