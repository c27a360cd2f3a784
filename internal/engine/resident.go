package engine

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"gisnav/internal/colstore"
)

// Columns become resident on first touch. A bulk load into an empty table
// (LoadBinary) decodes x, y and z; every other column records the tiles it
// skipped — path, row slot, rows decoded, the file's size and modification
// time — and decodes them the first time something binds it: a plan or an
// operator, Column, Save, or a LoadBinary onto a table whose non-resident
// columns gained rows. A first touch is one tile pass (loadPass) on the
// morsel workers that decodes every column the touch needs; a column that
// no tile's point format carries is filled with zeros without opening a
// file. Rows appended while a column is non-resident wait in its tail, the
// column it already has, and follow the tiles' rows once it is touched.
// Publishing a column changes no row, so it bumps no epoch.

// allColumns is the residency mask of the whole schema; coordColumns is
// that of x, y and z, which every load decodes.
var allColumns = uint64(1)<<len(PointCloudSchema().Fields) - 1

const coordColumns = 0b111

// ErrColumnLoad marks a failed first touch: a tile that changed or
// vanished since the load, or a decode that failed. The table is at fault,
// not the statement that bound the column.
var ErrColumnLoad = errors.New("column load failed")

// EnsureColumns makes the named columns resident in one first touch,
// traced into ex as a column.load step when it decodes anything. An
// unknown name, a tile that changed or vanished since the load, or a
// failed decode is an error, and the columns stay as they were.
func (pc *PointCloud) EnsureColumns(ex *Explain, names ...string) error {
	var mask uint64
	for _, name := range names {
		i := pc.schema.FieldIndex(name)
		if i < 0 {
			return fmt.Errorf("engine: unknown column %q", name)
		}
		mask |= 1 << i
	}
	return pc.ensureColumns(0, ex, mask)
}

// ensureColumns makes the columns of mask resident, decoding deg tiles at
// a time, or at the morsel degree of the deferred rows when deg is 0. When
// they already are it costs one atomic load.
func (pc *PointCloud) ensureColumns(deg int, ex *Explain, mask uint64) error {
	if pc.resident.Load()&mask == mask {
		return nil
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.touchLocked(deg, ex, mask)
}

// column returns the named column, resident; an unknown name or a failed
// first touch is an error.
func (pc *PointCloud) column(ex *Explain, name string) (colstore.Column, error) {
	i := pc.schema.FieldIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("engine: unknown column %q", name)
	}
	if err := pc.ensureColumns(0, ex, 1<<i); err != nil {
		return nil, err
	}
	return pc.cols[i], nil
}

// specColumns is the residency mask of key and the columns specs fold;
// names the schema lacks have no bit.
func (pc *PointCloud) specColumns(key string, specs []GroupedAggSpec) uint64 {
	mask := pc.columnBit(key)
	for _, s := range specs {
		if s.Fn != AggCount {
			mask |= pc.columnBit(s.Column)
		}
	}
	return mask
}

func (pc *PointCloud) columnBit(name string) uint64 {
	if i := pc.schema.FieldIndex(name); i >= 0 {
		return 1 << i
	}
	return 0
}

// touchLocked is one first touch of the non-resident columns of mask: it
// decodes the deferred tiles that carry any of them into new columns,
// appends each column's tail and publishes the columns, then their
// residency bits. A failure publishes nothing. pc.mu must be held.
func (pc *PointCloud) touchLocked(deg int, ex *Explain, mask uint64) error {
	mask &^= pc.resident.Load()
	if mask == 0 {
		return nil
	}
	start := time.Now()
	n := pc.deferredRows
	cols := make([]colstore.Column, len(pc.cols))
	var names []string
	for i, f := range pc.schema.Fields {
		if mask&(1<<i) != 0 {
			cols[i] = colstore.NewColumn(f.Type)
			cols[i].Reserve(pc.Len())
			names = append(names, f.Name)
		}
	}
	var tiles []loadTile
	for _, t := range pc.deferred {
		if formatColumns(t.format)&mask != 0 {
			tiles = append(tiles, t)
		}
	}
	if deg == 0 {
		deg = pc.morselDegree(nil, n, true)
	}
	lp := &loadPass{cols: cols, tiles: tiles, touch: true}
	deg, err := lp.run(deg)
	for _, t := range lp.tiles {
		if err == nil && t.err != nil {
			err = fmt.Errorf("tile %s: %w", t.path, t.err)
		}
	}
	if err != nil {
		return fmt.Errorf("engine: %w: %s: %w", ErrColumnLoad, strings.Join(names, ", "), err)
	}
	for i, c := range cols {
		if c != nil {
			c.Extend(n)
			appendTail(c, pc.cols[i])
			pc.cols[i] = c
		}
	}
	pc.resident.Or(mask)
	if pc.resident.Load() == allColumns {
		pc.deferred, pc.deferredRows = nil, 0
	}
	ex.Add(opColumnLoad, fmt.Sprintf("[par %d] %s", deg, strings.Join(names, "+")), n, pc.Len(), time.Since(start))
	return nil
}

// appendTail appends the values of tail, a column of dst's type, to dst.
func appendTail(dst, tail colstore.Column) {
	switch d := dst.(type) {
	case *colstore.F64Column:
		d.Append(tail.(*colstore.F64Column).Values()...)
	case *colstore.I64Column:
		d.Append(tail.(*colstore.I64Column).Values()...)
	case *colstore.I32Column:
		d.Append(tail.(*colstore.I32Column).Values()...)
	case *colstore.U16Column:
		d.Append(tail.(*colstore.U16Column).Values()...)
	case *colstore.U8Column:
		d.Append(tail.(*colstore.U8Column).Values()...)
	}
}

// loadResident returns the columns a bulk load decodes, nil where one is
// deferred: into an empty table only x, y and z; onto a table with
// non-resident columns the resident ones, unless those columns hold a tail
// — tiles cannot follow it — when they all become resident first.
func (pc *PointCloud) loadResident() ([]colstore.Column, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.Len() == 0 {
		pc.resident.Store(coordColumns)
		pc.deferred, pc.deferredRows = nil, 0
	} else if pc.deferredRows < pc.Len() {
		if err := pc.touchLocked(0, nil, allColumns); err != nil {
			return nil, err
		}
	}
	res := pc.resident.Load()
	cols := make([]colstore.Column, len(pc.cols))
	for i, c := range pc.cols {
		if res&(1<<i) != 0 {
			cols[i] = c
		}
	}
	return cols, nil
}

// loadDeferred records the tiles whose rows a load decoded for the columns
// it deferred: each with the rows it decoded, which a failed tile's first
// touch decodes too.
func (pc *PointCloud) loadDeferred(tiles []loadTile) {
	if pc.resident.Load() == allColumns {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, t := range tiles {
		if t.rows > 0 {
			pc.deferred = append(pc.deferred, loadTile{path: t.path, at: t.at, bound: t.rows,
				size: t.size, mtime: t.mtime, format: t.format})
			pc.deferredRows += t.rows
		}
	}
}

// validateSameLength checks the flat table invariant: every column holds
// Len() rows, a non-resident one as its tail past the deferred rows.
func (pc *PointCloud) validateSameLength() error {
	n, res := pc.Len(), pc.resident.Load()
	for i, c := range pc.cols {
		rows := c.Len()
		if res&(1<<i) == 0 {
			rows += pc.deferredRows
		}
		if rows != n {
			return fmt.Errorf("engine: ragged flat table: column %d has %d rows, want %d", i, rows, n)
		}
	}
	return nil
}
