//go:build faultinject

package engine

import (
	"testing"

	"gisnav/internal/faultpoint"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
)

// TestFaultSelectRefinePanicZeroRangeDrift arms the point between the
// imprint walk and grid refinement: the select's one candidate list is
// already drawn and tracked when the panic unwinds, so draining the run
// must return the range pool's balance to its start.
func TestFaultSelectRefinePanicZeroRangeDrift(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	pc := testCloudForRun(t)
	region := grid.GeometryRegion{G: geom.NewEnvelope(300, 300, 1500, 1400).ToPolygon()}
	var run Run
	run.RecycleRows(pc.SelectRegionRowsRun(&run, region, nil)) // warm: imprints built, pools primed

	faultpoint.Arm("engine.select.refine", faultpoint.Action{Panic: "refine poisoned"})
	start := RangePoolStats().Outstanding
	func() {
		defer func() {
			if p := recover(); p != "refine poisoned" {
				t.Fatalf("recovered %v, want the armed panic", p)
			}
			if got := RangePoolStats().Outstanding - start; got != 1 {
				t.Fatalf("%d range lists outstanding at the fault, want the select's 1", got)
			}
			run.Drain()
		}()
		pc.SelectRegionRowsRun(&run, region, nil)
	}()
	if got := RangePoolStats().Outstanding - start; got != 0 {
		t.Fatalf("select.refine fault drifted the range pool by %d", got)
	}

	faultpoint.Disarm("engine.select.refine")
	rows := pc.SelectRegionRowsRun(&run, region, nil)
	if len(rows) == 0 {
		t.Fatal("select after recovery matched no rows")
	}
	run.RecycleRows(rows)
}
