package engine

import (
	"bufio"
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
// [at, at+n) of the non-nil columns of cols (PointCloudSchema order): a
// bulk load passes the resident columns, a first touch the ones it makes
// resident. It leaves the fields the format lacks as Reserve made them,
// zero, and so the synthetic, key point, withheld, overlap, scanner channel
// and wave columns, which no format 0–3 record carries (formatColumns).
func decode(h las.Header, raw []byte, cols []colstore.Column, at, n int) {
	size := h.RecordSize()
	le := binary.LittleEndian
	coord := func(col, off int, scale, offset float64) {
		if cols[col] == nil {
			return
		}
		v := slots[float64](cols, col, at, n)
		for i := range v {
			v[i] = float64(int32(le.Uint32(raw[i*size+off:])))*scale + offset
		}
	}
	word := func(col, off int) {
		if cols[col] == nil {
			return
		}
		v := slots[uint16](cols, col, at, n)
		for i := range v {
			v[i] = le.Uint16(raw[i*size+off:])
		}
	}
	bits := func(col, off int, shift, mask uint8) {
		if cols[col] == nil {
			return
		}
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
	if cols[14] != nil {
		angle := slots[int32](cols, 14, at, n)
		for i := range angle {
			angle[i] = int32(int8(raw[i*size+16]))
		}
	}
	bits(15, 17, 0, 0xFF) // user data
	word(16, 18)          // point source id
	off := 20
	if las.FormatHasGPS(h.PointFormat) {
		if cols[17] != nil {
			gps := slots[float64](cols, 17, at, n)
			for i := range gps {
				gps[i] = math.Float64frombits(le.Uint64(raw[i*size+off:]))
			}
		}
		off += 8
	}
	if las.FormatHasRGB(h.PointFormat) {
		word(18, off)
		word(19, off+2)
		word(20, off+4)
		if cols[21] != nil {
			// NIR synthesised from the green channel, as AppendLAS does.
			nir := slots[uint16](cols, 21, at, n)
			for i := range nir {
				nir[i] = uint16(float64(le.Uint16(raw[i*size+off+2:])) / 2)
			}
		}
	}
}

// formatColumns is the residency mask (bit i for schema column i) of the
// columns decode fills from a record of point format f: all but the flag,
// scanner channel and wave columns, with GPS time and colour only where f
// carries them.
func formatColumns(f uint8) uint64 {
	m := uint64(1)<<9 - 1 | 1<<14 | 1<<15 | 1<<16
	if las.FormatHasGPS(f) {
		m |= 1 << 17
	}
	if las.FormatHasRGB(f) {
		m |= 0xF << 18
	}
	return m
}

// loadTile is one tile of a bulk load or of a first touch: its slot of
// rows [at, at+bound), the file as the load found it and what decoding it
// left in the slot.
type loadTile struct {
	path      string
	at, bound int
	// size and mtime are the file's when the load opened it, format its
	// point format; a first touch holds the file to them.
	size   int64
	mtime  time.Time
	format uint8
	rows   int
	stage  int64
	err    error
}

// decode streams the LAS or LAZ-sim tile into its slot of cols through br
// (reset onto the tile's file) and a chunk at a time through raw, and
// records its rows and their record bytes — also on error, when they are
// the chunks before the failure. A load decodes the tile to its end: one
// whose records do not fill the slot exactly is an error, and one that
// would overrun it never writes past it. A first touch (touch set) decodes
// exactly the bound records the load did, from a file of the size and
// modification time the load saw.
func (t *loadTile) decode(cols []colstore.Column, br *bufio.Reader, raw []byte, touch bool) error {
	f, err := os.Open(t.path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if touch && (fi.Size() != t.size || !fi.ModTime().Equal(t.mtime)) {
		return fmt.Errorf("changed since the load: %d bytes modified %v, the load read %d bytes modified %v",
			fi.Size(), fi.ModTime(), t.size, t.mtime)
	}
	t.size, t.mtime = fi.Size(), fi.ModTime()
	br.Reset(f)
	r, err := las.NewAnyBufferedReader(br)
	if err != nil {
		return err
	}
	h := r.Header()
	t.format = h.PointFormat
	size := h.RecordSize()
	for !touch || t.rows < t.bound {
		buf := raw[:loadChunk*size]
		if touch {
			buf = buf[:min(loadChunk, t.bound-t.rows)*size]
		}
		n, err := r.ReadRecords(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if t.rows+n > t.bound {
			return fmt.Errorf("more than the %d records the header pass bounded", t.bound)
		}
		decode(h, buf[:n*size], cols, t.at+t.rows, n)
		t.rows += n
		t.stage += int64(n * size)
	}
	if t.rows != t.bound {
		return fmt.Errorf("%d records, the header pass bounded %d", t.rows, t.bound)
	}
	return nil
}

// loadPass decodes the tiles of one bulk load or first touch on the morsel
// workers: partitions claim tiles, each with its own stream and record
// buffers, and decode every tile they claim into its slot. The slots are
// disjoint, so partitions share the columns' backing arrays with no lock,
// and every tile's rows land at the same offsets at every degree.
type loadPass struct {
	pass  morsel.Pass
	deg   int
	touch bool
	cols  []colstore.Column
	tiles []loadTile
	claim morsel.Claim
}

// RunPartition decodes claimed tiles until none is left. A failed tile
// exhausts the claim: the rows of the tiles after it would be cut off.
func (lp *loadPass) RunPartition(int) {
	hitMorselWorker(lp.deg)
	br := bufio.NewReaderSize(nil, 1<<16)
	raw := make([]byte, loadChunk*las.PointFormatSize(3)) // format 3 has the longest record
	for k := lp.claim.Next(); k >= 0; k = lp.claim.Next() {
		t := &lp.tiles[k]
		if t.err = t.decode(lp.cols, br, raw, lp.touch); t.err != nil {
			lp.claim.Exhaust()
		}
	}
}

// run decodes the tiles deg at a time and returns the degree it ran at, 0
// for no tiles; a partition's panic comes back as an error, the tiles'
// rows then unknown.
func (lp *loadPass) run(deg int) (int, error) {
	lp.deg = min(deg, len(lp.tiles))
	lp.claim.Reset(len(lp.tiles))
	if p := lp.pass.Run(lp.deg, lp); p != nil {
		return lp.deg, fmt.Errorf("engine: tile decode: %v", p)
	}
	return lp.deg, nil
}

// finishLoad ends a bulk load under the epoch contract and returns its
// error. A load that failed before its first column write leaves the table
// as it was; a clean one is an append (PointCloud.appended); one that
// failed after it — an unreadable later tile, a failed COPY — is a
// rewrite: the columns hold rows no index covers and may disagree on
// length, so nothing built over them may extend.
func (pc *PointCloud) finishLoad(wrote bool, err error) error {
	if err == nil {
		err = pc.validateSameLength()
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
// Into an empty table it decodes only x, y and z; the other columns record
// the tiles and decode them on their first touch (ensureColumns).
func LoadBinary(pc *PointCloud, repo *lastools.Repository) (LoadStats, error) {
	return loadBinary(pc, repo, 0)
}

// loadBinary is LoadBinary decoding deg tiles at a time (loadTiles).
func loadBinary(pc *PointCloud, repo *lastools.Repository, deg int) (st LoadStats, err error) {
	before := pc.Len()
	defer func() { err = pc.finishLoad(pc.Len() > before, err) }()
	cols, err := pc.loadResident()
	if err != nil {
		return st, err
	}
	tiles, st, err := pc.loadTiles(cols, repo.Files(), deg)
	pc.loadDeferred(tiles)
	return st, err
}

// loadTiles decodes the tiles at paths into the non-nil columns of cols,
// deg tiles at a time, or at the morsel degree of the rows the headers
// bound when deg is 0; the columns are the same at every degree. Their
// lengths move once, after the decode pass, over the tiles before the
// first failure and the whole chunks that tile decoded — the state a
// tile-by-tile load stops in. It returns those tiles, the failed one last.
func (pc *PointCloud) loadTiles(cols []colstore.Column, paths []string, deg int) (landed []loadTile, st LoadStats, err error) {
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
		if c != nil {
			c.Reserve(at - base)
		}
	}
	st.AppendTime = time.Since(start)

	start = time.Now()
	if deg == 0 {
		deg = pc.morselDegree(nil, at-base, true)
	}
	lp := &loadPass{cols: cols, tiles: tiles}
	if _, e := lp.run(deg); e != nil {
		return nil, st, e
	}
	st.ConvertTime += time.Since(start)

	start = time.Now()
	rows := 0
	for k, t := range tiles {
		rows += t.rows
		st.StageBytes += t.stage
		if t.err != nil {
			err = fmt.Errorf("engine: %s: %w", t.path, t.err)
			tiles = tiles[:k+1]
			break
		}
		st.Files++
		st.Points += t.rows
	}
	for _, c := range cols {
		if c != nil {
			c.Extend(rows)
		}
	}
	st.AppendTime += time.Since(start)
	return tiles, st, err
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
		_, tile, err := pc.loadTiles(staging, []string{path}, 1)
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
