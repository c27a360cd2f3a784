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
	for _, p := range pts {
		if err := w.Write(p); err != nil {
			return err
		}
	}
	w.body = nil // discard the uncompressed body; only the header matters
	h := w.header
	if h.PointCount == 0 {
		h.MinX, h.MinY, h.MinZ = 0, 0, 0
		h.MaxX, h.MaxY, h.MaxZ = 0, 0, 0
	}

	bw := bufio.NewWriterSize(dst, 1<<16)
	if _, err := bw.Write(lazMagic[:]); err != nil {
		return err
	}
	if _, err := bw.Write(h.encode()); err != nil {
		return err
	}
	var st lazState
	var varbuf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(varbuf[:], v)
		_, err := bw.Write(varbuf[:n])
		return err
	}
	for _, p := range pts {
		xi := quantise(p.X, h.ScaleX, h.OffsetX)
		yi := quantise(p.Y, h.ScaleY, h.OffsetY)
		zi := quantise(p.Z, h.ScaleZ, h.OffsetZ)
		if err := putUvarint(zigzag(int64(xi) - int64(st.x))); err != nil {
			return err
		}
		if err := putUvarint(zigzag(int64(yi) - int64(st.y))); err != nil {
			return err
		}
		if err := putUvarint(zigzag(int64(zi) - int64(st.z))); err != nil {
			return err
		}
		if err := putUvarint(zigzag(int64(p.Intensity) - int64(st.intensity))); err != nil {
			return err
		}
		if err := bw.WriteByte(p.packFlags()); err != nil {
			return err
		}
		if err := bw.WriteByte(p.Classification); err != nil {
			return err
		}
		if err := bw.WriteByte(uint8(p.ScanAngleRank)); err != nil {
			return err
		}
		if err := bw.WriteByte(p.UserData); err != nil {
			return err
		}
		if err := putUvarint(zigzag(int64(p.PointSourceID) - int64(st.srcID))); err != nil {
			return err
		}
		st.x, st.y, st.z = xi, yi, zi
		st.intensity = p.Intensity
		st.srcID = p.PointSourceID
		if formatHasGPS(h.PointFormat) {
			bits := math.Float64bits(p.GPSTime)
			if err := putUvarint(bits ^ st.gpsBits); err != nil {
				return err
			}
			st.gpsBits = bits
		}
		if formatHasRGB(h.PointFormat) {
			if err := putUvarint(zigzag(int64(p.Red) - int64(st.r))); err != nil {
				return err
			}
			if err := putUvarint(zigzag(int64(p.Green) - int64(st.g))); err != nil {
				return err
			}
			if err := putUvarint(zigzag(int64(p.Blue) - int64(st.b))); err != nil {
				return err
			}
			st.r, st.g, st.b = p.Red, p.Green, p.Blue
		}
	}
	return bw.Flush()
}

// ReadLAZ decodes a LAZ-sim stream.
func ReadLAZ(src io.Reader) (Header, []Point, error) {
	br := bufio.NewReaderSize(src, 1<<16)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return Header{}, nil, fmt.Errorf("las: laz magic: %w", err)
	}
	if magic != lazMagic {
		return Header{}, nil, fmt.Errorf("las: not a LAZ-sim stream (magic %q)", magic)
	}
	hbuf := make([]byte, HeaderSize)
	if _, err := io.ReadFull(br, hbuf); err != nil {
		return Header{}, nil, fmt.Errorf("las: laz header: %w", err)
	}
	h, _, err := decodeHeader(hbuf)
	if err != nil {
		return Header{}, nil, err
	}
	pts := make([]Point, 0, h.PointCount)
	var st lazState
	for i := uint32(0); i < h.PointCount; i++ {
		var p Point
		dx, err := binary.ReadUvarint(br)
		if err != nil {
			return h, pts, fmt.Errorf("las: laz point %d: %w", i, err)
		}
		dy, err := binary.ReadUvarint(br)
		if err != nil {
			return h, pts, err
		}
		dz, err := binary.ReadUvarint(br)
		if err != nil {
			return h, pts, err
		}
		di, err := binary.ReadUvarint(br)
		if err != nil {
			return h, pts, err
		}
		st.x = int32(int64(st.x) + unzigzag(dx))
		st.y = int32(int64(st.y) + unzigzag(dy))
		st.z = int32(int64(st.z) + unzigzag(dz))
		st.intensity = uint16(int64(st.intensity) + unzigzag(di))
		p.X = dequantise(st.x, h.ScaleX, h.OffsetX)
		p.Y = dequantise(st.y, h.ScaleY, h.OffsetY)
		p.Z = dequantise(st.z, h.ScaleZ, h.OffsetZ)
		p.Intensity = st.intensity
		flags, err := br.ReadByte()
		if err != nil {
			return h, pts, err
		}
		p.unpackFlags(flags)
		if p.Classification, err = br.ReadByte(); err != nil {
			return h, pts, err
		}
		angle, err := br.ReadByte()
		if err != nil {
			return h, pts, err
		}
		p.ScanAngleRank = int8(angle)
		if p.UserData, err = br.ReadByte(); err != nil {
			return h, pts, err
		}
		ds, err := binary.ReadUvarint(br)
		if err != nil {
			return h, pts, err
		}
		st.srcID = uint16(int64(st.srcID) + unzigzag(ds))
		p.PointSourceID = st.srcID
		if formatHasGPS(h.PointFormat) {
			gx, err := binary.ReadUvarint(br)
			if err != nil {
				return h, pts, err
			}
			st.gpsBits ^= gx
			p.GPSTime = math.Float64frombits(st.gpsBits)
		}
		if formatHasRGB(h.PointFormat) {
			dr, err := binary.ReadUvarint(br)
			if err != nil {
				return h, pts, err
			}
			dg, err := binary.ReadUvarint(br)
			if err != nil {
				return h, pts, err
			}
			db, err := binary.ReadUvarint(br)
			if err != nil {
				return h, pts, err
			}
			st.r = uint16(int64(st.r) + unzigzag(dr))
			st.g = uint16(int64(st.g) + unzigzag(dg))
			st.b = uint16(int64(st.b) + unzigzag(db))
			p.Red, p.Green, p.Blue = st.r, st.g, st.b
		}
		pts = append(pts, p)
	}
	return h, pts, nil
}

// WriteLAZFile writes points to path as LAZ-sim.
func WriteLAZFile(path string, format uint8, scaleX, scaleY, scaleZ, offX, offY, offZ float64, pts []Point) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteLAZ(f, format, scaleX, scaleY, scaleZ, offX, offY, offZ, pts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadLAZFile loads an entire LAZ-sim file.
func ReadLAZFile(path string) (Header, []Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer f.Close()
	return ReadLAZ(f)
}

// ReadAnyFile loads a LAS or LAZ-sim file, sniffing the magic bytes.
func ReadAnyFile(path string) (Header, []Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer f.Close()
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return Header{}, nil, fmt.Errorf("las: sniffing %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return Header{}, nil, err
	}
	if magic == lazMagic {
		return ReadLAZ(f)
	}
	return readFile(f)
}

// ReadAnyFileHeader reads only the header from a LAS or LAZ-sim file.
func ReadAnyFileHeader(path string) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return Header{}, fmt.Errorf("las: sniffing %s: %w", path, err)
	}
	if magic == lazMagic {
		hbuf := make([]byte, HeaderSize)
		if _, err := io.ReadFull(f, hbuf); err != nil {
			return Header{}, err
		}
		h, _, err := decodeHeader(hbuf)
		return h, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return Header{}, err
	}
	return ReadHeader(f)
}
