//go:build faultinject

package engine

import (
	"errors"
	"path/filepath"
	"testing"

	"gisnav/internal/faultpoint"
	"gisnav/internal/las"
)

// TestFaultResaveNeverValidatesMixedColumns re-saves a table of the same
// length over an existing directory and fails the save at its last column:
// the old manifest must not survive to validate the new columns written so
// far beside the old last one. The directory stops opening; a save that
// then completes opens as the new table.
func TestFaultResaveNeverValidatesMixedColumns(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	table := func(base float64) *PointCloud {
		pc := NewPointCloud()
		pc.AppendLAS([]las.Point{{X: base, Y: base + 1, Z: base + 2}, {X: base + 3, Y: base + 4, Z: base + 5}})
		return pc
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := table(0).Save(dir); err != nil {
		t.Fatal(err)
	}
	resaved := table(100)
	boom := errors.New("disk gone")
	faultpoint.Arm("engine.save.column", faultpoint.Action{Err: boom, After: len(resaved.schema.Fields) - 1})
	if err := resaved.Save(dir); !errors.Is(err, boom) {
		t.Fatalf("re-save error = %v, want the armed fault at the last column", err)
	}
	if pc, err := OpenPointCloud(dir); err == nil {
		t.Fatalf("a half re-saved directory opened: x = %v, z = %v", pc.X(), pc.Column(ColZ).Value(0))
	}

	faultpoint.Disarm("engine.save.column")
	if err := resaved.Save(dir); err != nil {
		t.Fatal(err)
	}
	pc, err := OpenPointCloud(dir)
	if err != nil {
		t.Fatal(err)
	}
	if x := pc.X(); len(x) != 2 || x[0] != 100 || x[1] != 103 {
		t.Fatalf("completed re-save opens with x = %v, want [100 103]", x)
	}
}
