//go:build faultinject

package engine

import (
	"errors"
	"strings"
	"testing"

	"gisnav/internal/faultpoint"
)

// A worker partition that panics inside a first-touch pass fails the
// touch with an error: the column stays non-resident, no pool moves, and
// the next touch decodes it.
func TestFaultFirstTouchWorkerPanic(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	repo := writeRepo(t, false)
	want := rowWise(t, repo)
	pc := NewPointCloud()
	if _, err := LoadBinary(pc, repo); err != nil {
		t.Fatal(err)
	}
	bits := pc.columnBit(ColClassification) | pc.columnBit(ColGPSTime)
	for _, after := range []int{0, 1} {
		faultpoint.Arm("engine.morsel.worker", faultpoint.Action{Panic: "touch worker poisoned", After: after})
		before := morselPoolSnapshot()
		err := pc.ensureColumns(2, nil, bits)
		if !errors.Is(err, ErrColumnLoad) || !strings.Contains(err.Error(), "touch worker poisoned") {
			t.Fatalf("after %d: touch with a poisoned worker: %v", after, err)
		}
		if faultpoint.HitCount("engine.morsel.worker") == 0 {
			t.Fatal("worker point never hit — the touch does not fan out")
		}
		if res := pc.resident.Load(); res&bits != 0 {
			t.Fatalf("after %d: a failed touch published resident mask %#x", after, res)
		}
		if d := morselPoolSnapshot() - before; d != 0 {
			t.Fatalf("after %d: a failed touch drifted pools by %d", after, d)
		}
		faultpoint.Disarm("engine.morsel.worker")
	}
	if err := pc.ensureColumns(2, nil, bits); err != nil {
		t.Fatal(err)
	}
	sameColumn(t, "after recovery", ColClassification, pc, want)
	sameColumn(t, "after recovery", ColGPSTime, pc, want)
}
