package las

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// LAZ-sim: a compressed LAS sibling standing in for Rapidlasso LAZ (see the
// package comment for the substitution rationale). Layout:
//
//	4 bytes  magic "LAZS"
//	227 B    the LAS public header block, verbatim
//	...      per-point compressed stream
//
// Each point is coded against its predecessor: the quantised X/Y/Z deltas as
// zigzag varints (airborne scan order makes them tiny), intensity delta as a
// zigzag varint, the flag/classification/angle/user bytes raw, the point
// source ID delta as a zigzag varint, GPS time as the XOR of float64 bits
// varint-coded (near-monotone time collapses to a few bytes), and RGB deltas
// as zigzag varints.

// lazMagic marks a LAZ-sim stream.
var lazMagic = [4]byte{'L', 'A', 'Z', 'S'}

// zigzag maps a signed delta to an unsigned varint-friendly code.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

type lazState struct {
	x, y, z   int32
	intensity uint16
	srcID     uint16
	gpsBits   uint64
	r, g, b   uint16
}

// WriteLAZ writes points as a LAZ-sim stream.
func WriteLAZ(dst io.Writer, format uint8, scaleX, scaleY, scaleZ, offX, offY, offZ float64, pts []Point) error {
	w, err := NewWriter(io.Discard, format, scaleX, scaleY, scaleZ, offX, offY, offZ)
	if err != nil {
		return err
	}
	// Reuse the LAS writer solely for header bookkeeping (counts, extent).
	// Its Write fails only after Close.
	for _, p := range pts {
		w.Write(p)
	}
	h := w.header
	if h.PointCount == 0 {
		h.MinX, h.MinY, h.MinZ = 0, 0, 0
		h.MaxX, h.MaxY, h.MaxZ = 0, 0, 0
	}

	// A bufio.Writer keeps its first error and Flush returns it.
	bw := bufio.NewWriterSize(dst, 1<<16)
	bw.Write(lazMagic[:])
	bw.Write(h.encode())
	var varbuf [binary.MaxVarintLen64]byte
	uvarint := func(v uint64) { bw.Write(binary.AppendUvarint(varbuf[:0], v)) }
	delta := func(v, prev int64) { uvarint(zigzag(v - prev)) }
	var st lazState
	for _, p := range pts {
		xi := quantise(p.X, h.ScaleX, h.OffsetX)
		yi := quantise(p.Y, h.ScaleY, h.OffsetY)
		zi := quantise(p.Z, h.ScaleZ, h.OffsetZ)
		delta(int64(xi), int64(st.x))
		delta(int64(yi), int64(st.y))
		delta(int64(zi), int64(st.z))
		delta(int64(p.Intensity), int64(st.intensity))
		bw.Write([]byte{p.packFlags(), p.Classification, uint8(p.ScanAngleRank), p.UserData})
		delta(int64(p.PointSourceID), int64(st.srcID))
		st.x, st.y, st.z = xi, yi, zi
		st.intensity = p.Intensity
		st.srcID = p.PointSourceID
		if FormatHasGPS(h.PointFormat) {
			bits := math.Float64bits(p.GPSTime)
			uvarint(bits ^ st.gpsBits)
			st.gpsBits = bits
		}
		if FormatHasRGB(h.PointFormat) {
			delta(int64(p.Red), int64(st.r))
			delta(int64(p.Green), int64(st.g))
			delta(int64(p.Blue), int64(st.b))
			st.r, st.g, st.b = p.Red, p.Green, p.Blue
		}
	}
	return bw.Flush()
}

// ReadLAZ decodes a LAZ-sim stream.
func ReadLAZ(src io.Reader) (Header, []Point, error) {
	r, err := NewAnyReader(src)
	if err == nil && r.laz == nil {
		err = fmt.Errorf("las: not a LAZ-sim stream")
	}
	return drain(r, err)
}

// lazMinRecord is the shortest coding of one point in the format: a
// one-byte varint for each of the X/Y/Z, intensity and point source deltas,
// the four raw bytes, one for the GPS XOR and one for each RGB delta.
func lazMinRecord(format uint8) int {
	n := 9
	if FormatHasGPS(format) {
		n++
	}
	if FormatHasRGB(format) {
		n += 3
	}
	return n
}

// lazDecoder is the LAZ-sim half of a Reader: it undoes each point's coding
// against its predecessor and writes the raw LAS record the point stands
// for. Its first error sticks.
type lazDecoder struct {
	br *bufio.Reader
	lazState
	err error
}

func (d *lazDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.br)
	d.err = err
	return v
}

func (d *lazDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.br.ReadByte()
	d.err = err
	return b
}

// records decodes len(buf)/size points of the given format into buf and
// returns how many it completed before an error.
func (d *lazDecoder) records(buf []byte, size int, format uint8) (int, error) {
	le := binary.LittleEndian
	for i := 0; i < len(buf)/size; i++ {
		rec := buf[i*size : (i+1)*size]
		d.x = int32(int64(d.x) + unzigzag(d.uvarint()))
		d.y = int32(int64(d.y) + unzigzag(d.uvarint()))
		d.z = int32(int64(d.z) + unzigzag(d.uvarint()))
		d.intensity = uint16(int64(d.intensity) + unzigzag(d.uvarint()))
		le.PutUint32(rec[0:], uint32(d.x))
		le.PutUint32(rec[4:], uint32(d.y))
		le.PutUint32(rec[8:], uint32(d.z))
		le.PutUint16(rec[12:], d.intensity)
		rec[14] = d.byte() // flags
		rec[15] = d.byte() // classification
		rec[16] = d.byte() // scan angle rank
		rec[17] = d.byte() // user data
		d.srcID = uint16(int64(d.srcID) + unzigzag(d.uvarint()))
		le.PutUint16(rec[18:], d.srcID)
		off := 20
		if FormatHasGPS(format) {
			d.gpsBits ^= d.uvarint()
			le.PutUint64(rec[off:], d.gpsBits)
			off += 8
		}
		if FormatHasRGB(format) {
			d.r = uint16(int64(d.r) + unzigzag(d.uvarint()))
			d.g = uint16(int64(d.g) + unzigzag(d.uvarint()))
			d.b = uint16(int64(d.b) + unzigzag(d.uvarint()))
			le.PutUint16(rec[off:], d.r)
			le.PutUint16(rec[off+2:], d.g)
			le.PutUint16(rec[off+4:], d.b)
		}
		if d.err != nil {
			return i, d.err
		}
	}
	return len(buf) / size, nil
}

// WriteLAZFile writes points to path as LAZ-sim.
func WriteLAZFile(path string, format uint8, scaleX, scaleY, scaleZ, offX, offY, offZ float64, pts []Point) error {
	return createFile(path, func(f io.Writer) error {
		return WriteLAZ(f, format, scaleX, scaleY, scaleZ, offX, offY, offZ, pts)
	})
}

// ReadAnyFile loads a LAS or LAZ-sim file, sniffing the magic bytes.
func ReadAnyFile(path string) (Header, []Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer f.Close()
	return drain(NewAnyReader(f))
}
