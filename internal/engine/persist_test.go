package engine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gisnav/internal/geom"
)

func TestSaveOpenRoundTrip(t *testing.T) {
	pc, pts := buildCloud(t, 0.05)
	dir := filepath.Join(t.TempDir(), "db")
	if err := pc.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := OpenPointCloud(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(pts) {
		t.Fatalf("rows = %d, want %d", got.Len(), len(pts))
	}
	// Every column round-trips value-exact.
	for i, col := range pc.Columns() {
		other := got.Columns()[i]
		for r := 0; r < pc.Len(); r += 101 {
			if col.Value(r) != other.Value(r) {
				t.Fatalf("column %d row %d: %v vs %v", i, r, col.Value(r), other.Value(r))
			}
		}
	}
	// The reopened table answers queries identically.
	box := geom.NewEnvelope(100, 100, 400, 400)
	if len(got.SelectRegionRows(boxRegion(box))) != len(pc.SelectRegionRows(boxRegion(box))) {
		t.Fatal("reopened table disagrees on a query")
	}
	// Column file accounting works.
	sizes, err := ColumnFileBytes(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sizes[ColX] != int64(8*pc.Len()) {
		t.Fatalf("x column file = %d bytes", sizes[ColX])
	}
	if sizes[ColClassification] != int64(pc.Len()) {
		t.Fatalf("classification file = %d bytes", sizes[ColClassification])
	}
}

func TestSaveEmptyTable(t *testing.T) {
	pc := NewPointCloud()
	dir := filepath.Join(t.TempDir(), "empty")
	if err := pc.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := OpenPointCloud(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatal("empty table should reopen empty")
	}
}

func TestOpenErrors(t *testing.T) {
	base := t.TempDir()
	// Missing directory.
	if _, err := OpenPointCloud(filepath.Join(base, "missing")); err == nil {
		t.Fatal("missing dir should error")
	}
	// Corrupt manifest.
	dir1 := filepath.Join(base, "badjson")
	os.MkdirAll(dir1, 0o755)
	os.WriteFile(filepath.Join(dir1, manifestName), []byte("{"), 0o644)
	if _, err := OpenPointCloud(dir1); err == nil {
		t.Fatal("bad manifest should error")
	}
	// Wrong version.
	dir2 := filepath.Join(base, "badver")
	os.MkdirAll(dir2, 0o755)
	blob, _ := json.Marshal(manifest{FormatVersion: 99})
	os.WriteFile(filepath.Join(dir2, manifestName), blob, 0o644)
	if _, err := OpenPointCloud(dir2); err == nil {
		t.Fatal("bad version should error")
	}
	// Truncated column file.
	pc, _ := buildCloud(t, 0.01)
	dir3 := filepath.Join(base, "trunc")
	if err := pc.Save(dir3); err != nil {
		t.Fatal(err)
	}
	zpath := filepath.Join(dir3, "col_z.bin")
	data, err := os.ReadFile(zpath)
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(zpath, data[:len(data)/2], 0o644)
	if _, err := OpenPointCloud(dir3); err == nil {
		t.Fatal("truncated column should error")
	}
	// Schema mismatch.
	dir4 := filepath.Join(base, "schema")
	if err := pc.Save(dir4); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir4, manifestName)
	mb, _ := os.ReadFile(mpath)
	var m manifest
	json.Unmarshal(mb, &m)
	m.Columns[0].Name = "renamed"
	mb2, _ := json.Marshal(m)
	os.WriteFile(mpath, mb2, 0o644)
	if _, err := OpenPointCloud(dir4); err == nil {
		t.Fatal("schema mismatch should error")
	}
	// Negative row count.
	dir5 := filepath.Join(base, "negrows")
	os.MkdirAll(dir5, 0o755)
	blob5, _ := json.Marshal(manifest{FormatVersion: manifestVersion, Rows: -1})
	os.WriteFile(filepath.Join(dir5, manifestName), blob5, 0o644)
	if _, err := OpenPointCloud(dir5); err == nil {
		t.Fatal("negative rows should error")
	}
}

func TestColumnFileBytesMissing(t *testing.T) {
	if _, err := ColumnFileBytes(t.TempDir()); err == nil {
		t.Fatal("missing files should error")
	}
}
