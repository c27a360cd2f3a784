package las

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
)

// Writer streams point records into a LAS byte stream. Because the public
// header carries the point count and coordinate extent, the writer buffers
// the encoded records and emits header + records on Close.
type Writer struct {
	dst    io.Writer
	header Header
	body   []byte
	rec    []byte
	closed bool
}

// NewWriter prepares a writer for the given point format and coordinate
// quantisation. scale/offset follow LAS conventions (e.g. 0.01 m scale).
func NewWriter(dst io.Writer, format uint8, scaleX, scaleY, scaleZ, offX, offY, offZ float64) (*Writer, error) {
	h := Header{
		VersionMajor: 1, VersionMinor: 2,
		SystemID: "gisnav synthetic", Software: "gisnav las writer",
		PointFormat: format,
		ScaleX:      scaleX, ScaleY: scaleY, ScaleZ: scaleZ,
		OffsetX: offX, OffsetY: offY, OffsetZ: offZ,
		MinX: math.Inf(1), MinY: math.Inf(1), MinZ: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1), MaxZ: math.Inf(-1),
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return &Writer{dst: dst, header: h, rec: make([]byte, h.RecordSize())}, nil
}

// Write appends one point.
func (w *Writer) Write(p Point) error {
	if w.closed {
		return fmt.Errorf("las: write after close")
	}
	encodePoint(w.rec, p, w.header)
	w.body = append(w.body, w.rec...)
	h := &w.header
	h.PointCount++
	ret := int(p.ReturnNumber)
	if ret >= 1 && ret <= 5 {
		h.ReturnCounts[ret-1]++
	}
	// Track the quantised extent (what a reader will observe).
	x := dequantise(quantise(p.X, h.ScaleX, h.OffsetX), h.ScaleX, h.OffsetX)
	y := dequantise(quantise(p.Y, h.ScaleY, h.OffsetY), h.ScaleY, h.OffsetY)
	z := dequantise(quantise(p.Z, h.ScaleZ, h.OffsetZ), h.ScaleZ, h.OffsetZ)
	h.MinX = math.Min(h.MinX, x)
	h.MaxX = math.Max(h.MaxX, x)
	h.MinY = math.Min(h.MinY, y)
	h.MaxY = math.Max(h.MaxY, y)
	h.MinZ = math.Min(h.MinZ, z)
	h.MaxZ = math.Max(h.MaxZ, z)
	return nil
}

// Close emits the header and buffered records. The writer cannot be reused.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	h := w.header
	if h.PointCount == 0 {
		h.MinX, h.MinY, h.MinZ = 0, 0, 0
		h.MaxX, h.MaxY, h.MaxZ = 0, 0, 0
	}
	bw := bufio.NewWriterSize(w.dst, 1<<16)
	if _, err := bw.Write(h.encode()); err != nil {
		return err
	}
	if _, err := bw.Write(w.body); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFile writes points to path as a LAS file.
func WriteFile(path string, format uint8, scaleX, scaleY, scaleZ, offX, offY, offZ float64, pts []Point) error {
	return createFile(path, func(f io.Writer) error {
		w, err := NewWriter(f, format, scaleX, scaleY, scaleZ, offX, offY, offZ)
		if err != nil {
			return err
		}
		for _, p := range pts {
			w.Write(p) // fails only after Close
		}
		return w.Close()
	})
}

// createFile writes the file at path with write and closes it.
func createFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
