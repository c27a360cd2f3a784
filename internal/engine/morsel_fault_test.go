//go:build faultinject

package engine

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"gisnav/internal/faultpoint"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
)

// Armed-build tests for the morsel drivers: a panic in any worker
// partition must re-raise exactly once in the caller with every partial
// buffer recycled (zero pool drift after the run drains), an injected
// merge error must surface as a plain error with the same accounting, and
// the resident worker set must serve the next pass correctly.

var errMorselInjected = errors.New("injected morsel fault")

// wholeExtent covers every row of a groupTestCloud.
var wholeExtent grid.Region = grid.GeometryRegion{G: geom.NewEnvelope(-1, -1, 1001, 1001).ToPolygon()}

// selectAll is the refine path as a fault-test query. The selector has no
// error return, so an injected merge error unwinds as a panic carrying the
// error; it is recovered back into one here, and any other panic
// propagates.
func selectAll(pc *PointCloud, run *Run) (err error) {
	defer func() {
		if p := recover(); p != nil {
			e, ok := p.(error)
			if !ok {
				panic(p)
			}
			err = e
		}
	}()
	rows := pc.SelectRegionRowsRun(run, wholeExtent, nil)
	if len(rows) != pc.Len() {
		return fmt.Errorf("selected %d of %d rows", len(rows), pc.Len())
	}
	run.RecycleRows(rows)
	return nil
}

func TestFaultMorselWorkerPanicZeroDrift(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	preds := []ColumnPred{{Column: ColZ, Op: CmpGT, Value: 0}}
	specs := []GroupedAggSpec{{Fn: AggCount}, {Fn: AggMin, Column: ColZ}}
	want, err := pc.FilterRows(nil, preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantMax, err := pc.Aggregate(nil, AggMax, ColZ, nil)
	if err != nil {
		t.Fatal(err)
	}

	paths := map[string]func(run *Run) error{
		"filter": func(run *Run) error {
			rows, err := pc.FilterRowsRun(run, nil, preds, nil)
			if err == nil {
				run.RecycleRows(rows)
			}
			return err
		},
		"aggregate": func(run *Run) error {
			_, err := pc.AggregateRun(run, nil, AggMax, ColZ, nil)
			return err
		},
		"grouped-dense": func(run *Run) error {
			var res GroupedResult
			return pc.GroupedAggregateRun(run, nil, ColClassification, specs, &res, nil)
		},
		"grouped-hash": func(run *Run) error {
			var res GroupedResult
			return pc.GroupedAggregateRun(run, nil, ColGPSTime, specs, &res, nil)
		},
		"refine": func(run *Run) error { return selectAll(pc, run) },
	}
	for name, query := range paths {
		// After: 1 lets one partition through, so later partitions —
		// usually on resident workers — panic while siblings still hold
		// partial buffers that must come home. After: 0 poisons every
		// partition, the caller's partition 0 included.
		for _, after := range []int{1, 0} {
			t.Run(fmt.Sprintf("%s/after-%d", name, after), func(t *testing.T) {
				t.Cleanup(faultpoint.Reset)
				run := parRun(4)
				if err := query(run); err != nil { // warm: kernels cached, pools primed
					t.Fatal(err)
				}

				faultpoint.Arm("engine.morsel.worker", faultpoint.Action{Panic: "morsel worker poisoned", After: after})
				before := morselPoolSnapshot()
				func() {
					defer func() {
						p := recover()
						if p == nil {
							t.Fatal("armed worker partition did not re-raise in the caller")
						}
						if s, ok := p.(string); !ok || s != "morsel worker poisoned" {
							t.Fatalf("re-raised %v, want the armed panic value", p)
						}
						run.Drain()
					}()
					_ = query(run)
				}()
				if d := morselPoolSnapshot() - before; d != 0 {
					t.Fatalf("worker panic in %s drifted pools by %d", name, d)
				}
				if faultpoint.HitCount("engine.morsel.worker") == 0 {
					t.Fatal("worker point never hit — the path does not fan out")
				}

				// The worker set survives: disarmed, the next pass is correct.
				faultpoint.Disarm("engine.morsel.worker")
				if err := query(run); err != nil {
					t.Fatalf("pass after recovery: %v", err)
				}
			})
		}
	}

	// Spot-check post-recovery output against the serial truth.
	run := parRun(4)
	rows, err := pc.FilterRowsRun(run, nil, preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("recovered filter: %d rows, serial %d", len(rows), len(want))
	}
	run.RecycleRows(rows)
	got, err := pc.AggregateRun(run, nil, AggMax, ColZ, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(wantMax) {
		t.Fatal("recovered aggregate differs from serial")
	}
	RecycleRows(want)
}

func TestFaultMorselMergeErrorZeroDrift(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	preds := []ColumnPred{{Column: ColZ, Op: CmpGT, Value: 0}}
	specs := []GroupedAggSpec{{Fn: AggCount}, {Fn: AggMin, Column: ColZ}}

	paths := map[string]func(run *Run) error{
		"filter": func(run *Run) error {
			rows, err := pc.FilterRowsRun(run, nil, preds, nil)
			if err == nil {
				run.RecycleRows(rows)
			}
			return err
		},
		"aggregate": func(run *Run) error {
			_, err := pc.AggregateRun(run, nil, AggMin, ColZ, nil)
			return err
		},
		"grouped-dense": func(run *Run) error {
			var res GroupedResult
			return pc.GroupedAggregateRun(run, nil, ColClassification, specs, &res, nil)
		},
		"grouped-hash": func(run *Run) error {
			var res GroupedResult
			return pc.GroupedAggregateRun(run, nil, ColGPSTime, specs, &res, nil)
		},
		"refine": func(run *Run) error { return selectAll(pc, run) },
	}
	for name, query := range paths {
		t.Run(name, func(t *testing.T) {
			t.Cleanup(faultpoint.Reset)
			run := parRun(4)
			if err := query(run); err != nil {
				t.Fatal(err)
			}
			faultpoint.Arm("engine.morsel.merge", faultpoint.Action{Err: errMorselInjected})
			before := morselPoolSnapshot()
			if err := query(run); !errors.Is(err, errMorselInjected) {
				t.Fatalf("err = %v, want the injected merge fault", err)
			}
			run.Drain()
			if d := morselPoolSnapshot() - before; d != 0 {
				t.Fatalf("merge error in %s drifted pools by %d", name, d)
			}
			if faultpoint.HitCount("engine.morsel.merge") == 0 {
				t.Fatal("merge point never hit — the path does not fan out")
			}
			faultpoint.Disarm("engine.morsel.merge")
			if err := query(run); err != nil {
				t.Fatalf("pass after recovery: %v", err)
			}
		})
	}
}

// TestFaultRefineDegreeFollowsRunCap pins the one-place degree rule for
// grid refinement: with the table opted into auto-parallel execution, a
// run capped at 1 must never fan a refine pass out (no worker partition
// runs), while a cap of 2 over a large candidate set runs two partitions
// like every other operator.
func TestFaultRefineDegreeFollowsRunCap(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	pc := groupTestCloud(t, morselCloudRows)
	pc.Parallel = true
	for _, c := range []struct{ cap, hits int }{{1, 0}, {2, 2}} {
		faultpoint.Arm("engine.morsel.worker", faultpoint.Action{}) // count hits, do nothing
		if err := selectAll(pc, parRun(c.cap)); err != nil {
			t.Fatalf("cap %d: %v", c.cap, err)
		}
		if got := faultpoint.HitCount("engine.morsel.worker"); got != c.hits {
			t.Fatalf("cap %d: %d refine partitions ran as workers, want %d", c.cap, got, c.hits)
		}
	}
}
