package engine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"
	"time"

	"gisnav/internal/colstore"
	"gisnav/internal/las"
	"gisnav/internal/lastools"
	"gisnav/internal/morsel"
)

// The paper's binary bulk loader (§3.2): each LAS/LAZ tile is decoded once
// into per-attribute arrays of the flat table — no row structs, no text
// rendering, no text parsing. A header pre-pass bounds every tile's rows by
// its bytes, the columns grow once for the total, and the morsel workers
// decode the tiles straight into disjoint row slots: a tile streams through
// a buffer of loadChunk raw records (las.Reader.ReadRecords, which hands out
// LAZ-sim points in the same record layout) and one strided gather per
// attribute writes them in place. The CSV loader below is the conventional
// route the paper measures against (LAZ → CSV → parse), which it reports as
// roughly an order of magnitude slower end-to-end (one day vs. almost a
// week for AHN2).

// LoadStats reports what a bulk load did, split into the conversion stage
// and the append stage.
type LoadStats struct {
	Files  int
	Points int
	// ConvertTime is the header pre-pass and the wall time of the decode
	// pass that writes every tile's records into the columns; for CSV,
	// decoding each tile into staging columns and rendering them as text.
	ConvertTime time.Duration
	// AppendTime is reserving the columns' rows and publishing their
	// lengths; for CSV, parsing the text into the table.
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

// slots is rows [at, at+n) of column i, which Reserve made room for past
// the column's length.
func slots[T colstore.Number](cols []colstore.Column, i, at, n int) []T {
	return cols[i].(*colstore.Num[T]).Values()[at : at+n]
}

// decode gathers the n records of raw, in h's point format, into rows
// [at, at+n) of cols (PointCloudSchema order). It leaves the fields the
// format lacks as Reserve made them, zero, and so the synthetic, key point,
// withheld, overlap, scanner channel and wave columns, which no format 0–3
// record carries.
func decode(h las.Header, raw []byte, cols []colstore.Column, at, n int) {
	size := h.RecordSize()
	le := binary.LittleEndian
	coord := func(col, off int, scale, offset float64) {
		v := slots[float64](cols, col, at, n)
		for i := range v {
			v[i] = float64(int32(le.Uint32(raw[i*size+off:])))*scale + offset
		}
	}
	word := func(col, off int) []uint16 {
		v := slots[uint16](cols, col, at, n)
		for i := range v {
			v[i] = le.Uint16(raw[i*size+off:])
		}
		return v
	}
	bits := func(col, off int, shift, mask uint8) {
		v := slots[uint8](cols, col, at, n)
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
	angle := slots[int32](cols, 14, at, n)
	for i := range angle {
		angle[i] = int32(int8(raw[i*size+16]))
	}
	bits(15, 17, 0, 0xFF) // user data
	word(16, 18)          // point source id
	off := 20
	if las.FormatHasGPS(h.PointFormat) {
		gps := slots[float64](cols, 17, at, n)
		for i := range gps {
			gps[i] = math.Float64frombits(le.Uint64(raw[i*size+off:]))
		}
		off += 8
	}
	if las.FormatHasRGB(h.PointFormat) {
		word(18, off)
		word(20, off+4)
		// NIR synthesised from the green channel, as AppendLAS does.
		nir := slots[uint16](cols, 21, at, n)
		for i, g := range word(19, off+2) {
			nir[i] = uint16(float64(g) / 2)
		}
	}
}

// decodeTile streams the LAS or LAZ-sim tile at path into its slot, rows
// [at, at+bound) of cols, through br (reset onto the tile's file) and a
// chunk at a time through raw. It returns the rows it wrote and their
// record bytes — also on error, when they are the chunks before the
// failure. A tile whose records do not fill its slot exactly is an error;
// one that would overrun it never writes past it.
func decodeTile(path string, cols []colstore.Column, at, bound int, br *bufio.Reader, raw []byte) (rows int, stage int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	br.Reset(f)
	r, err := las.NewAnyBufferedReader(br)
	if err != nil {
		return 0, 0, err
	}
	h := r.Header()
	size := h.RecordSize()
	buf := raw[:loadChunk*size]
	for {
		n, err := r.ReadRecords(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return rows, stage, err
		}
		if rows+n > bound {
			return rows, stage, fmt.Errorf("more than the %d records the header pass bounded", bound)
		}
		decode(h, buf[:n*size], cols, at+rows, n)
		rows += n
		stage += int64(n * size)
	}
	if rows != bound {
		return rows, stage, fmt.Errorf("%d records, the header pass bounded %d", rows, bound)
	}
	return rows, stage, nil
}

// loadTile is one tile of a bulk load: its slot of rows [at, at+bound) and
// what decoding it left there.
type loadTile struct {
	path      string
	at, bound int
	rows      int
	stage     int64
	err       error
}

// loadPass decodes the tiles of one bulk load on the morsel workers:
// partitions claim tiles from one counter, each with its own stream and
// record buffers, and decode every tile they claim into its slot. The
// slots are disjoint, so partitions share the columns' backing arrays with
// no lock, and every tile's rows land at the same offsets at every degree.
type loadPass struct {
	pass  morsel.Pass
	cols  []colstore.Column
	tiles []loadTile
	claim atomic.Int64
}

// RunPartition decodes claimed tiles until none is left. A failed tile
// exhausts the counter: the rows of the tiles after it would be cut off.
func (lp *loadPass) RunPartition(int) {
	br := bufio.NewReaderSize(nil, 1<<16)
	raw := make([]byte, loadChunk*las.PointFormatSize(3)) // format 3 has the longest record
	for k := int(lp.claim.Add(1)) - 1; k < len(lp.tiles); k = int(lp.claim.Add(1)) - 1 {
		t := &lp.tiles[k]
		t.rows, t.stage, t.err = decodeTile(t.path, lp.cols, t.at, t.bound, br, raw)
		if t.err != nil {
			lp.claim.Store(int64(len(lp.tiles)))
		}
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
func LoadBinary(pc *PointCloud, repo *lastools.Repository) (LoadStats, error) {
	return loadBinary(pc, repo, 0)
}

// loadBinary is LoadBinary decoding deg tiles at a time (loadTiles).
func loadBinary(pc *PointCloud, repo *lastools.Repository, deg int) (st LoadStats, err error) {
	before := pc.Len()
	defer func() { err = pc.finishLoad(pc.Len() > before, err) }()
	return pc.loadTiles(pc.cols, repo.Files(), deg)
}

// loadTiles decodes the tiles at paths into cols, deg tiles at a time, or
// at the morsel degree of the rows the headers bound when deg is 0; the
// columns are the same at every degree. Their lengths move once, after the
// decode pass, over the tiles before the first failure and the whole
// chunks that tile decoded — the state a tile-by-tile load stops in.
func (pc *PointCloud) loadTiles(cols []colstore.Column, paths []string, deg int) (st LoadStats, err error) {
	start := time.Now()
	var tiles []loadTile
	base := cols[0].Len()
	at := base
	for _, path := range paths {
		bound, e := las.FileRecordBound(path)
		if e != nil {
			err = fmt.Errorf("engine: %s: %w", path, e)
			break
		}
		tiles = append(tiles, loadTile{path: path, at: at, bound: bound})
		at += bound
	}
	st.ConvertTime = time.Since(start)

	start = time.Now()
	for _, c := range cols {
		c.Reserve(at - base)
	}
	st.AppendTime = time.Since(start)

	start = time.Now()
	if deg == 0 {
		deg = pc.morselDegree(nil, at-base, true)
	}
	lp := &loadPass{cols: cols, tiles: tiles}
	if p := lp.pass.Run(min(deg, len(tiles)), lp); p != nil {
		panic(p)
	}
	st.ConvertTime += time.Since(start)

	start = time.Now()
	rows := 0
	for _, t := range tiles {
		rows += t.rows
		st.StageBytes += t.stage
		if t.err != nil {
			err = fmt.Errorf("engine: %s: %w", t.path, t.err)
			break
		}
		st.Files++
		st.Points += t.rows
	}
	for _, c := range cols {
		c.Extend(rows)
	}
	st.AppendTime += time.Since(start)
	return st, err
}

// LoadCSV loads every tile through the conventional route: decode the tile
// into staging columns, render all attributes to CSV text, then tokenise
// and parse the text back into the columns. This is the baseline the
// binary loader replaces.
func LoadCSV(pc *PointCloud, repo *lastools.Repository) (st LoadStats, err error) {
	wrote := false
	defer func() { err = pc.finishLoad(wrote, err) }()
	for _, path := range repo.Files() {
		start := time.Now()
		staging := PointCloudSchema().NewColumns()
		tile, err := pc.loadTiles(staging, []string{path}, 1)
		if err != nil {
			return st, err
		}
		n := tile.Points
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
