package las

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Reader streams point records from a LAS or LAZ-sim byte stream. Both
// formats come out of ReadRecords in the LAS record layout, so every
// consumer decodes one layout.
type Reader struct {
	br     *bufio.Reader
	header Header
	laz    *lazDecoder // nil for a LAS stream
	read   uint32
	start  int64 // bytes ahead of the first record: header, gap or magic
}

// NewReader consumes the header of a LAS stream (and any inter-header gap)
// and positions the stream at the first point record.
func NewReader(r io.Reader) (*Reader, error) {
	return newReader(bufio.NewReaderSize(r, 1<<16), false)
}

// NewAnyReader is NewReader for a LAS or a LAZ-sim stream, told apart by
// their magic bytes.
func NewAnyReader(r io.Reader) (*Reader, error) {
	return NewAnyBufferedReader(bufio.NewReaderSize(r, 1<<16))
}

// NewAnyBufferedReader is NewAnyReader reading through br, so a caller
// that streams many files keeps one buffer (bufio.Reader.Reset).
func NewAnyBufferedReader(br *bufio.Reader) (*Reader, error) {
	magic, err := br.Peek(len(lazMagic))
	if err != nil {
		return nil, fmt.Errorf("las: sniffing: %w", err)
	}
	laz := [4]byte(magic) == lazMagic
	if laz {
		br.Discard(len(lazMagic)) // cannot fail: Peek buffered them
	}
	return newReader(br, laz)
}

// newReader reads the stream's header and, for LAS, skips to the point
// data offset.
func newReader(br *bufio.Reader, laz bool) (*Reader, error) {
	buf := make([]byte, HeaderSize)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("las: reading header: %w", err)
	}
	h, offset, err := decodeHeader(buf)
	if err != nil {
		return nil, err
	}
	r := &Reader{br: br, header: h, start: int64(offset)}
	if laz {
		r.laz = &lazDecoder{br: br}
		r.start = int64(len(lazMagic) + HeaderSize)
	} else if offset > HeaderSize {
		if _, err := io.CopyN(io.Discard, br, int64(offset-HeaderSize)); err != nil {
			return nil, fmt.Errorf("las: skipping to point data: %w", err)
		}
	}
	return r, nil
}

// Header returns the parsed public header block.
func (r *Reader) Header() Header { return r.header }

// RecordBound returns the most point records a stream of streamBytes bytes,
// header included, can deliver: the header's count, capped by the bytes
// after the header over the format's shortest record — RecordSize for
// LAS, the one-byte codes of an unchanged point for LAZ-sim. A corrupt or
// truncated header may claim four billion points; storage sized from this
// bound is never more than the bytes justify.
func (r *Reader) RecordBound(streamBytes int64) int {
	shortest := r.header.RecordSize()
	if r.laz != nil {
		shortest = lazMinRecord(r.header.PointFormat)
	}
	return int(min(int64(r.header.PointCount), max(streamBytes-r.start, 0)/int64(shortest)))
}

// FileRecordBound reads the header of the LAS or LAZ-sim file at path and
// returns RecordBound for the file's size. It buffers no more than a
// header's bytes, and reads no point record.
func FileRecordBound(path string) (int, error) {
	r, size, err := openHeader(path)
	if err != nil {
		return 0, err
	}
	return r.RecordBound(size), nil
}

// ReadAnyFileHeader reads only the header of the LAS or LAZ-sim file at
// path. It accepts exactly the files FileRecordBound and the readers
// accept: a LAS header whose point data offset lies past the end of the
// file is an error here too.
func ReadAnyFileHeader(path string) (Header, error) {
	r, _, err := openHeader(path)
	if err != nil {
		return Header{}, err
	}
	return r.Header(), nil
}

// openHeader opens a Reader over the file at path through a header-sized
// buffer — which consumes the header and, for LAS, skips to the point
// data — and returns it with the file's size. The file is closed on
// return; the Reader is good for its header only.
func openHeader(path string) (*Reader, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	r, err := NewAnyBufferedReader(bufio.NewReaderSize(f, len(lazMagic)+HeaderSize))
	if err != nil {
		return nil, 0, err
	}
	return r, fi.Size(), nil
}

// ReadRecords fills buf with as many whole raw point records, in the LAS
// layout of the header's format, as it holds and the header's count has
// left, and returns how many it wrote. After the last record it returns
// 0, io.EOF. A stream that ends early returns the whole records it held
// and an error; so does a buf shorter than one record.
func (r *Reader) ReadRecords(buf []byte) (int, error) {
	left := r.header.PointCount - r.read
	if left == 0 {
		return 0, io.EOF
	}
	size := r.header.RecordSize()
	n := len(buf) / size
	if uint64(n) > uint64(left) {
		n = int(left)
	}
	if n == 0 {
		return 0, fmt.Errorf("las: %d-byte buffer for %d-byte records: %w", len(buf), size, io.ErrShortBuffer)
	}
	var err error
	if r.laz != nil {
		n, err = r.laz.records(buf[:n*size], size, r.header.PointFormat)
	} else {
		var m int
		m, err = io.ReadFull(r.br, buf[:n*size])
		n = m / size
	}
	r.read += uint32(n)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return n, fmt.Errorf("las: point %d: %w", r.read, err)
	}
	return n, nil
}

// readChunk is the records ReadAll reads per ReadRecords call; it also
// caps the points reserved on the header's word alone, since a corrupt or
// truncated stream may claim four billion.
const readChunk = 1 << 12

// ReadAll drains the remaining points, growing as records arrive.
func (r *Reader) ReadAll() ([]Point, error) {
	left := min(r.header.PointCount-r.read, readChunk)
	out := make([]Point, 0, left)
	size := r.header.RecordSize()
	buf := make([]byte, int(left)*size)
	for {
		n, err := r.ReadRecords(buf)
		for i := range n {
			out = append(out, decodePoint(buf[i*size:], r.header))
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// drain is ReadAll over a freshly opened reader.
func drain(r *Reader, err error) (Header, []Point, error) {
	if err != nil {
		return Header{}, nil, err
	}
	pts, err := r.ReadAll()
	return r.header, pts, err
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
	if FormatHasGPS(h.PointFormat) {
		p.GPSTime = math.Float64frombits(le.Uint64(rec[off:]))
		off += 8
	}
	if FormatHasRGB(h.PointFormat) {
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
	if FormatHasGPS(h.PointFormat) {
		le.PutUint64(rec[off:], math.Float64bits(p.GPSTime))
		off += 8
	}
	if FormatHasRGB(h.PointFormat) {
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
	return drain(NewReader(f))
}

// DecodeRecord parses one raw point record under the header's format and
// quantisation. It is exported for consumers that perform partial file
// reads (the lasindex-style sidecar path) and must decode records they
// seeked to themselves.
func DecodeRecord(rec []byte, h Header) Point { return decodePoint(rec, h) }
