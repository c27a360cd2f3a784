package engine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

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
	// Each column file holds exactly its values.
	for col, width := range map[string]int{ColX: 8, ColClassification: 1} {
		fi, err := os.Stat(filepath.Join(dir, "col_"+col+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(width*pc.Len()) {
			t.Fatalf("%s column file = %d bytes, want %d", col, fi.Size(), width*pc.Len())
		}
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
	// A row count far beyond the column files: the first short column
	// fails the open, and nothing is sized from the claim (a 1<<40-row u8
	// column alone would be a terabyte).
	dir6 := filepath.Join(base, "hugerows")
	if err := pc.Save(dir6); err != nil {
		t.Fatal(err)
	}
	m.Columns[0].Name = ColX
	m.Rows = 1 << 40
	mb6, _ := json.Marshal(m)
	os.WriteFile(filepath.Join(dir6, manifestName), mb6, 0o644)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if _, err := OpenPointCloud(dir6); err == nil || !strings.Contains(err.Error(), "short read") {
		t.Fatalf("huge row claim: err = %v, want a short read", err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 64<<20 {
		t.Fatalf("huge row claim: failed open allocated %d MiB", d>>20)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("huge row claim: failed open took %v", el)
	}
}

// FuzzOpenPointCloud: whatever the manifest and column-file bytes,
// OpenPointCloud returns an error or a table of exactly the manifest's
// rows — never a panic, never success on column files shorter than those
// rows need, and never an allocation out of proportion to the bytes on
// disk (a manifest may claim 1<<40 rows over a few bytes of column). Every
// column file holds the same fuzzed bytes, read at its own width.
func FuzzOpenPointCloud(f *testing.F) {
	dir := filepath.Join(f.TempDir(), "seed")
	if err := randomTestCloud(3, 1).Save(dir); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	col, err := os.ReadFile(filepath.Join(dir, "col_"+ColX+".bin"))
	if err != nil {
		f.Fatal(err)
	}
	rows := func(n string) []byte {
		if !strings.Contains(string(valid), `"rows": 3,`) {
			f.Fatal("the saved manifest no longer spells its row count as the seeds expect")
		}
		return []byte(strings.Replace(string(valid), `"rows": 3,`, `"rows": `+n+`,`, 1))
	}
	f.Add(valid, col)
	f.Add(valid, col[:len(col)-1])
	f.Add(rows("0"), []byte{})
	f.Add(rows("1099511627776"), col)
	f.Add(rows("-1"), col)
	f.Add(rows("1e3"), col)
	f.Add([]byte(`{"format_version": 1, "rows": 2, "columns": []}`), col)
	f.Add([]byte("{"), []byte{0})
	f.Fuzz(func(t *testing.T, manifestBytes, colBytes []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifestBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		fields := PointCloudSchema().Fields
		for _, fd := range fields {
			if err := os.WriteFile(filepath.Join(dir, "col_"+fd.Name+".bin"), colBytes, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var (
			pc  *PointCloud
			err error
		)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pc, err = OpenPointCloud(dir)
		runtime.ReadMemStats(&after)
		// Fixed: the manifest decode, the empty table and one read chunk
		// per column; then a few times the bytes on disk.
		bound := uint64(4<<20 + 32*(len(manifestBytes)+len(fields)*len(colBytes)))
		if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
			t.Fatalf("opening %d manifest and %d column bytes allocated %d bytes, bound %d",
				len(manifestBytes), len(colBytes), grew, bound)
		}
		if err != nil {
			return
		}
		var m manifest
		if err := json.Unmarshal(manifestBytes, &m); err != nil {
			t.Fatalf("opened a table from a manifest that does not decode: %v", err)
		}
		if pc.Len() != m.Rows {
			t.Fatalf("opened %d rows, manifest claims %d", pc.Len(), m.Rows)
		}
		for _, fd := range fields {
			if need := m.Rows * fd.Type.Size(); need > len(colBytes) {
				t.Fatalf("column %s: %d rows of %d bytes opened from a %d-byte file",
					fd.Name, m.Rows, fd.Type.Size(), len(colBytes))
			}
		}
	})
}
