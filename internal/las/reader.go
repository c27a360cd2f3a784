package las

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Reader streams point records from a LAS byte stream.
type Reader struct {
	br     *bufio.Reader
	header Header
	rec    []byte
	read   uint32
}

// NewReader consumes the header (and any inter-header gap) and positions the
// stream at the first point record.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	buf := make([]byte, HeaderSize)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("las: reading header: %w", err)
	}
	h, offset, err := decodeHeader(buf)
	if err != nil {
		return nil, err
	}
	if offset > HeaderSize {
		if _, err := io.CopyN(io.Discard, br, int64(offset-HeaderSize)); err != nil {
			return nil, fmt.Errorf("las: skipping to point data: %w", err)
		}
	}
	return &Reader{br: br, header: h, rec: make([]byte, h.RecordSize())}, nil
}

// Header returns the parsed public header block.
func (r *Reader) Header() Header { return r.header }

// Read returns the next point, or io.EOF after the last record.
func (r *Reader) Read() (Point, error) {
	var p Point
	if r.read >= r.header.PointCount {
		return p, io.EOF
	}
	if _, err := io.ReadFull(r.br, r.rec); err != nil {
		return p, fmt.Errorf("las: point %d: %w", r.read, err)
	}
	r.read++
	return decodePoint(r.rec, r.header), nil
}

// preallocPoints caps the points ReadAll reserves room for on the header's
// word alone: a corrupt or truncated stream may claim four billion.
const preallocPoints = 1 << 12

// ReadAll drains the remaining points. It reserves room for at most
// preallocPoints of them up front and grows as records arrive.
func (r *Reader) ReadAll() ([]Point, error) {
	return r.readAll(preallocPoints)
}

// readAll is ReadAll reserving room for at most capHint points.
func (r *Reader) readAll(capHint int) ([]Point, error) {
	out := make([]Point, 0, min(int(r.header.PointCount-r.read), capHint))
	for {
		p, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

// decodePoint parses one point record under the header's format/scales.
func decodePoint(rec []byte, h Header) Point {
	le := binary.LittleEndian
	var p Point
	p.X = dequantise(int32(le.Uint32(rec[0:])), h.ScaleX, h.OffsetX)
	p.Y = dequantise(int32(le.Uint32(rec[4:])), h.ScaleY, h.OffsetY)
	p.Z = dequantise(int32(le.Uint32(rec[8:])), h.ScaleZ, h.OffsetZ)
	p.Intensity = le.Uint16(rec[12:])
	p.unpackFlags(rec[14])
	p.Classification = rec[15]
	p.ScanAngleRank = int8(rec[16])
	p.UserData = rec[17]
	p.PointSourceID = le.Uint16(rec[18:])
	off := 20
	if formatHasGPS(h.PointFormat) {
		p.GPSTime = math.Float64frombits(le.Uint64(rec[off:]))
		off += 8
	}
	if formatHasRGB(h.PointFormat) {
		p.Red = le.Uint16(rec[off:])
		p.Green = le.Uint16(rec[off+2:])
		p.Blue = le.Uint16(rec[off+4:])
	}
	return p
}

// encodePoint renders one point record under the header's format/scales.
func encodePoint(rec []byte, p Point, h Header) {
	le := binary.LittleEndian
	le.PutUint32(rec[0:], uint32(quantise(p.X, h.ScaleX, h.OffsetX)))
	le.PutUint32(rec[4:], uint32(quantise(p.Y, h.ScaleY, h.OffsetY)))
	le.PutUint32(rec[8:], uint32(quantise(p.Z, h.ScaleZ, h.OffsetZ)))
	le.PutUint16(rec[12:], p.Intensity)
	rec[14] = p.packFlags()
	rec[15] = p.Classification
	rec[16] = uint8(p.ScanAngleRank)
	rec[17] = p.UserData
	le.PutUint16(rec[18:], p.PointSourceID)
	off := 20
	if formatHasGPS(h.PointFormat) {
		le.PutUint64(rec[off:], math.Float64bits(p.GPSTime))
		off += 8
	}
	if formatHasRGB(h.PointFormat) {
		le.PutUint16(rec[off:], p.Red)
		le.PutUint16(rec[off+2:], p.Green)
		le.PutUint16(rec[off+4:], p.Blue)
	}
}

// ReadFile loads an entire LAS file.
func ReadFile(path string) (Header, []Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer f.Close()
	return readFile(f)
}

// readFile reads the LAS stream in f, reserving room for no more records
// than the file's length can hold.
func readFile(f *os.File) (Header, []Point, error) {
	r, err := NewReader(f)
	if err != nil {
		return Header{}, nil, err
	}
	capHint := preallocPoints
	if fi, err := f.Stat(); err == nil {
		capHint = int(fi.Size() / int64(r.header.RecordSize()))
	}
	pts, err := r.readAll(capHint)
	return r.Header(), pts, err
}

// ReadFileHeader loads only the header of a LAS file — the cheap metadata
// inspection a file-based repository performs to prune tiles by bbox.
func ReadFileHeader(path string) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	return ReadHeader(f)
}
