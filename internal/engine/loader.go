package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"gisnav/internal/colstore"
	"gisnav/internal/las"
	"gisnav/internal/lastools"
)

// The paper's binary bulk loader (§3.2): each LAS/LAZ tile is decoded once
// into per-attribute arrays that are appended to the flat table's columns —
// no row structs, no text rendering, no text parsing. A tile streams through
// a chunk of loadChunk raw records (las.Reader.ReadRecords, which hands out
// LAZ-sim points in the same record layout); one strided gather per
// attribute decodes the chunk into typed vectors, and each vector is
// appended to its column, so the columns grow only as records arrive. The
// CSV loader below is the conventional route the paper measures against
// (LAZ → CSV → parse), which it reports as roughly an order of magnitude
// slower end-to-end (one day vs. almost a week for AHN2).

// LoadStats reports what a bulk load did, split into the conversion stage
// and the append stage.
type LoadStats struct {
	Files  int
	Points int
	// ConvertTime is reading the tiles and decoding their records into the
	// column chunk; for CSV, also rendering the chunks as text.
	ConvertTime time.Duration
	// AppendTime is appending the chunks to the table; for CSV, parsing the
	// text into it.
	AppendTime time.Duration
	// StageBytes is the intermediate representation: the raw record bytes
	// decoded, or for CSV the text rendered.
	StageBytes int64
}

// Total returns the end-to-end load time.
func (s LoadStats) Total() time.Duration { return s.ConvertTime + s.AppendTime }

// PointsPerSecond reports load throughput.
func (s LoadStats) PointsPerSecond() float64 {
	t := s.Total().Seconds()
	if t == 0 {
		return 0
	}
	return float64(s.Points) / t
}

// loadChunk is the records decoded per gather.
const loadChunk = 1 << 12

// chunkDecoder turns raw LAS records into the flat table's columns one
// chunk at a time. Its buffers are reused across tiles.
type chunkDecoder struct {
	raw   []byte
	chunk []colstore.Column // loadChunk values per PointCloudSchema column
}

func newChunkDecoder() *chunkDecoder {
	d := &chunkDecoder{raw: make([]byte, loadChunk*las.PointFormatSize(3))} // format 3 has the longest record
	//lint:ignore cancelpoll a loop over the 26 schema fields, not over blocks of rows
	for _, f := range PointCloudSchema().Fields {
		var c colstore.Column
		switch f.Type {
		case colstore.F64:
			c = colstore.NewNum(make([]float64, loadChunk))
		case colstore.I64:
			c = colstore.NewNum(make([]int64, loadChunk))
		case colstore.I32:
			c = colstore.NewNum(make([]int32, loadChunk))
		case colstore.U16:
			c = colstore.NewNum(make([]uint16, loadChunk))
		default:
			c = colstore.NewNum(make([]uint8, loadChunk))
		}
		d.chunk = append(d.chunk, c)
	}
	return d
}

// vec is the first n values of column i of a chunk.
func vec[T colstore.Number](chunk []colstore.Column, i, n int) []T {
	return chunk[i].(*colstore.Num[T]).Values()[:n]
}

// decode gathers the first n records of d.raw, in h's point format, into
// the chunk. Fields the format lacks are zero, as are the synthetic, key
// point, withheld, overlap, scanner channel and wave columns, which no
// format 0–3 record carries and nothing writes.
func (d *chunkDecoder) decode(h las.Header, n int) {
	size := h.RecordSize()
	raw := d.raw[:n*size]
	le := binary.LittleEndian
	coord := func(col, off int, scale, offset float64) {
		v := vec[float64](d.chunk, col, n)
		for i := range v {
			v[i] = float64(int32(le.Uint32(raw[i*size+off:])))*scale + offset
		}
	}
	word := func(col, off int) []uint16 {
		v := vec[uint16](d.chunk, col, n)
		for i := range v {
			v[i] = le.Uint16(raw[i*size+off:])
		}
		return v
	}
	bits := func(col, off int, shift, mask uint8) {
		v := vec[uint8](d.chunk, col, n)
		for i := range v {
			v[i] = (raw[i*size+off] >> shift) & mask
		}
	}
	coord(0, 0, h.ScaleX, h.OffsetX)
	coord(1, 4, h.ScaleY, h.OffsetY)
	coord(2, 8, h.ScaleZ, h.OffsetZ)
	word(3, 12)
	bits(4, 14, 0, 0x07) // return number
	bits(5, 14, 3, 0x07) // number of returns
	bits(6, 14, 6, 1)    // scan direction
	bits(7, 14, 7, 1)    // edge of flight line
	bits(8, 15, 0, 0xFF) // classification
	angle := vec[int32](d.chunk, 14, n)
	for i := range angle {
		angle[i] = int32(int8(raw[i*size+16]))
	}
	bits(15, 17, 0, 0xFF) // user data
	word(16, 18)          // point source id
	off := 20
	gps := vec[float64](d.chunk, 17, n)
	if las.FormatHasGPS(h.PointFormat) {
		for i := range gps {
			gps[i] = math.Float64frombits(le.Uint64(raw[i*size+off:]))
		}
		off += 8
	} else {
		clear(gps)
	}
	if las.FormatHasRGB(h.PointFormat) {
		word(18, off)
		word(20, off+4)
		// NIR synthesised from the green channel, as AppendLAS does.
		nir := vec[uint16](d.chunk, 21, n)
		for i, g := range word(19, off+2) {
			nir[i] = uint16(float64(g) / 2)
		}
	} else {
		for col := 18; col <= 21; col++ {
			clear(vec[uint16](d.chunk, col, n))
		}
	}
}

// appendTo appends the first n values of every chunk vector to its column
// of cols (PointCloudSchema order).
func (d *chunkDecoder) appendTo(cols []colstore.Column, n int) {
	for i, c := range d.chunk {
		switch c := c.(type) {
		case *colstore.F64Column:
			appendHead(cols[i], c, n)
		case *colstore.I64Column:
			appendHead(cols[i], c, n)
		case *colstore.I32Column:
			appendHead(cols[i], c, n)
		case *colstore.U16Column:
			appendHead(cols[i], c, n)
		case *colstore.U8Column:
			appendHead(cols[i], c, n)
		}
	}
}

func appendHead[T colstore.Number](dst colstore.Column, src *colstore.Num[T], n int) {
	dst.(*colstore.Num[T]).Append(src.Values()[:n]...)
}

// loadFile streams the LAS or LAZ-sim tile at path into cols a chunk at a
// time, adding its timings and record bytes to st, and returns the rows it
// appended — also on error, when they are the chunks before the failure.
func (d *chunkDecoder) loadFile(path string, cols []colstore.Column, st *LoadStats) (rows int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	start := time.Now()
	r, err := las.NewAnyReader(f)
	if err != nil {
		return 0, err
	}
	h := r.Header()
	size := h.RecordSize()
	buf := d.raw[:loadChunk*size]
	for {
		n, err := r.ReadRecords(buf)
		if err == io.EOF {
			st.ConvertTime += time.Since(start)
			return rows, nil
		}
		if err != nil {
			return rows, err
		}
		d.decode(h, n)
		st.ConvertTime += time.Since(start)
		st.StageBytes += int64(n * size)

		start = time.Now()
		d.appendTo(cols, n)
		rows += n
		st.AppendTime += time.Since(start)
		start = time.Now()
	}
}

// finishLoad ends a bulk load under the epoch contract and returns its
// error. A load that failed before its first column write leaves the table
// as it was; a clean one is an append (PointCloud.appended); one that
// failed after it — an unreadable later tile, a failed COPY — is a
// rewrite: the columns hold rows no index covers and may disagree on
// length, so nothing built over them may extend.
func (pc *PointCloud) finishLoad(wrote bool, err error) error {
	if err == nil {
		err = validateSameLength(pc.cols)
	} else if !wrote {
		return err
	}
	if err != nil {
		pc.InvalidateIndexes()
		return err
	}
	pc.appended()
	return nil
}

// LoadBinary loads every tile of a repository through the binary path.
func LoadBinary(pc *PointCloud, repo *lastools.Repository) (st LoadStats, err error) {
	wrote := false
	defer func() { err = pc.finishLoad(wrote, err) }()
	d := newChunkDecoder()
	for _, path := range repo.Files() {
		n, err := d.loadFile(path, pc.cols, &st)
		wrote = wrote || n > 0
		if err != nil {
			return st, fmt.Errorf("engine: %s: %w", path, err)
		}
		st.Files++
		st.Points += n
	}
	return st, nil
}

// LoadCSV loads every tile through the conventional route: decode the tile,
// render all attributes to CSV text, then tokenise and parse the text back
// into the columns. This is the baseline the binary loader replaces.
func LoadCSV(pc *PointCloud, repo *lastools.Repository) (st LoadStats, err error) {
	wrote := false
	defer func() { err = pc.finishLoad(wrote, err) }()
	d := newChunkDecoder()
	for _, path := range repo.Files() {
		start := time.Now()
		staging := PointCloudSchema().NewColumns()
		n, err := d.loadFile(path, staging, &LoadStats{})
		if err != nil {
			return st, fmt.Errorf("engine: %s: %w", path, err)
		}
		var csv bytes.Buffer
		if err := colstore.WriteCSV(&csv, staging); err != nil {
			return st, err
		}
		st.ConvertTime += time.Since(start)
		st.StageBytes += int64(csv.Len())

		start = time.Now()
		wrote = true
		rows, err := colstore.AppendCSV(&csv, pc.cols)
		if err != nil {
			return st, fmt.Errorf("engine: csv parse %s: %w", path, err)
		}
		if rows != n {
			return st, fmt.Errorf("engine: csv row count %d != %d", rows, n)
		}
		st.AppendTime += time.Since(start)
		st.Files++
		st.Points += n
	}
	return st, nil
}
