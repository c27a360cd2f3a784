package las

import (
	"bytes"
	"encoding/binary"
	"math/rand"
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
		for {
			if _, err := r.Read(); err != nil {
				break
			}
		}
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
		for {
			if _, err := r.Read(); err != nil {
				break
			}
		}
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

// FuzzLASReader: whatever the bytes, NewReader plus ReadAll returns an
// error or exactly the points the header claims — never a panic, never
// success on a stream too short to hold the records, and never an
// allocation out of proportion to the stream (a header may claim four
// billion points over a few hundred bytes). Seeds are writer output in
// every point format, truncations of it, and header corruptions.
func FuzzLASReader(f *testing.F) {
	for format := uint8(0); format <= 3; format++ {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, format, 0.01, 0.01, 0.01, 100000, 450000, 0)
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range samplePoints(5, int64(format)) {
			w.Write(p)
		}
		w.Close()
		valid := buf.Bytes()
		f.Add(valid)
		f.Add(valid[:len(valid)-1])
		f.Add(valid[:HeaderSize])
		f.Add(valid[:HeaderSize-1])
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
			corrupt(mut)
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := NewReader(bytes.NewReader(data))
		var pts []Point
		if err == nil {
			pts, err = r.ReadAll()
		}
		runtime.ReadMemStats(&after)
		// The bufio buffer and the header are fixed; points cost at most a
		// few times their record bytes, doubling growth included.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+32*len(data)); grew > bound {
			t.Fatalf("reading %d bytes allocated %d bytes, bound %d", len(data), grew, bound)
		}
		if err != nil {
			return
		}
		h := r.Header()
		if len(pts) != int(h.PointCount) {
			t.Fatalf("read %d points, header claims %d", len(pts), h.PointCount)
		}
		if need := HeaderSize + len(pts)*h.RecordSize(); len(data) < need {
			t.Fatalf("read %d points of %d bytes from a %d-byte stream", len(pts), h.RecordSize(), len(data))
		}
	})
}
