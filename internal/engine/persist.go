package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"gisnav/internal/colstore"
	"gisnav/internal/faultpoint"
)

// On-disk layout of a persisted point-cloud table: one raw little-endian
// dump per column (the same representation COPY BINARY consumes, so a
// persisted database re-opens by appending its own dumps) plus a JSON
// manifest carrying the schema and row count.
//
//	<dir>/manifest.json
//	<dir>/col_<name>.bin

// manifestName is the metadata file inside a table directory.
const manifestName = "manifest.json"

// manifest describes a persisted table.
type manifest struct {
	FormatVersion int             `json:"format_version"`
	Rows          int             `json:"rows"`
	Columns       []manifestField `json:"columns"`
}

type manifestField struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// manifestVersion is bumped on incompatible layout changes.
const manifestVersion = 1

// Save writes the point cloud to dir (created if needed). Existing column
// files are overwritten. The old manifest goes first and the new one comes
// last, written aside and renamed into place, so a save that fails part-way
// leaves a directory that does not validate rather than an old manifest
// over a mix of old and new columns.
func (pc *PointCloud) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("engine: save: %w", err)
	}
	manifestPath := filepath.Join(dir, manifestName)
	if err := os.Remove(manifestPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("engine: save: %w", err)
	}
	m := manifest{FormatVersion: manifestVersion, Rows: pc.Len()}
	for i, f := range pc.schema.Fields {
		if err := writeColumn(filepath.Join(dir, "col_"+f.Name+".bin"), pc.cols[i]); err != nil {
			return fmt.Errorf("engine: save %s: %w", f.Name, err)
		}
		m.Columns = append(m.Columns, manifestField{Name: f.Name, Type: f.Type.String()})
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := manifestPath + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return fmt.Errorf("engine: save: %w", err)
	}
	return os.Rename(tmp, manifestPath)
}

// writeColumn writes one column's dump to path.
func writeColumn(path string, col colstore.Column) error {
	if err := faultpoint.Hit("engine.save.column"); err != nil {
		return err
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := col.WriteBinary(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// OpenPointCloud loads a table persisted by Save. The manifest schema must
// match the current 26-attribute schema exactly; the format is a storage
// layout, not a migration boundary.
func OpenPointCloud(dir string) (*PointCloud, error) {
	blob, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("engine: open: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("engine: open: bad manifest: %w", err)
	}
	if m.FormatVersion != manifestVersion {
		return nil, fmt.Errorf("engine: open: format version %d, want %d", m.FormatVersion, manifestVersion)
	}
	if m.Rows < 0 {
		return nil, fmt.Errorf("engine: open: negative row count")
	}
	pc := NewPointCloud()
	if len(m.Columns) != len(pc.schema.Fields) {
		return nil, fmt.Errorf("engine: open: manifest has %d columns, schema wants %d",
			len(m.Columns), len(pc.schema.Fields))
	}
	for i, f := range pc.schema.Fields {
		mf := m.Columns[i]
		if mf.Name != f.Name || mf.Type != f.Type.String() {
			return nil, fmt.Errorf("engine: open: column %d is %s/%s, schema wants %s/%s",
				i, mf.Name, mf.Type, f.Name, f.Type)
		}
		if err := openColumn(filepath.Join(dir, "col_"+f.Name+".bin"), pc.cols[i], f.Type, m.Rows); err != nil {
			return nil, fmt.Errorf("engine: open %s: %w", f.Name, err)
		}
	}
	if err := validateSameLength(pc.cols); err != nil {
		return nil, err
	}
	return pc, nil
}

// openColumn appends the rows values of the dump at path to col. A file
// too short for them fails before anything is read; otherwise the column
// is reserved once for them, since the file's size bounds the claim.
func openColumn(path string, col colstore.Column, t colstore.DType, rows int) error {
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	fi, err := file.Stat()
	if err != nil {
		return err
	}
	if fi.Size()/int64(t.Size()) < int64(rows) {
		return fmt.Errorf("%s column: short read: %d bytes for %d values", t, fi.Size(), rows)
	}
	col.Reserve(rows)
	return col.AppendBinary(file, rows)
}
