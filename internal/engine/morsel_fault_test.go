//go:build faultinject

package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"gisnav/internal/cancel"
	"gisnav/internal/faultpoint"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/morsel"
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
	rows := pc.SelectRegionRowsRun(run, wholeExtent, -1, nil)
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
			_, err := keylessRun(pc, run, nil, AggMax, ColZ)
			return err
		},
		"grouped-dense": func(run *Run) error {
			var res GroupedResult
			return pc.GroupedAggregateRun(run, nil, nil, ColClassification, specs, &res, nil)
		},
		"grouped-hash": func(run *Run) error {
			var res GroupedResult
			return pc.GroupedAggregateRun(run, nil, nil, ColGPSTime, specs, &res, nil)
		},
		"refine": func(run *Run) error { return selectAll(pc, run) },
	}
	for name, query := range paths {
		// After: 1 lets one partition through, so later partitions —
		// usually on resident workers — panic while siblings still hold
		// partial buffers that must come home. After: 0 poisons every
		// partition, the caller's partition 0 included.
		for _, c := range morselFaultCases() {
			deg, after := c[0], c[1]
			t.Run(fmt.Sprintf("%s/deg-%d/after-%d", name, deg, after), func(t *testing.T) {
				t.Cleanup(faultpoint.Reset)
				run := parRun(deg)
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
	got, err := keylessRun(pc, run, nil, AggMax, ColZ)
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
			_, err := keylessRun(pc, run, nil, AggMin, ColZ)
			return err
		},
		"grouped-dense": func(run *Run) error {
			var res GroupedResult
			return pc.GroupedAggregateRun(run, nil, nil, ColClassification, specs, &res, nil)
		},
		"grouped-hash": func(run *Run) error {
			var res GroupedResult
			return pc.GroupedAggregateRun(run, nil, nil, ColGPSTime, specs, &res, nil)
		},
		"refine": func(run *Run) error { return selectAll(pc, run) },
	}
	for name, query := range paths {
		for _, deg := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/deg-%d", name, deg), func(t *testing.T) {
				t.Cleanup(faultpoint.Reset)
				run := parRun(deg)
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
}

// morselFaultCases are the (degree, After) pairs of the worker-panic test:
// at degree 2 After 1 poisons the one worker partition alone, so its
// slot's release list holds the only partial buffer.
func morselFaultCases() [][2]int { return [][2]int{{2, 1}, {2, 0}, {4, 1}, {4, 0}} }

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

// TestFaultGroupedCancelledAtBlockBoundary fires the token from inside the
// first block of a fold pass: the block point stalls while a watcher
// closes the run's done channel on its first hit. The dense and hash folds
// must stop at the next block boundary — exactly one block started —
// surface cancel.ErrCancelled and leave both pools balanced.
func TestFaultGroupedCancelledAtBlockBoundary(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	const point = "engine.groupagg.block"
	pc := groupTestCloud(t, 4*foldBlock)
	specs := []GroupedAggSpec{{Fn: AggCount}, {Fn: AggSum, Column: ColRed}, {Fn: AggMax, Column: ColZ}}
	sel := randomSelection(rand.New(rand.NewSource(13)), pc.Len(), 0.9)
	var res GroupedResult
	for _, key := range []string{ColClassification, ColGPSTime} {
		for _, rows := range [][]int{nil, sel} {
			faultpoint.Arm(point, faultpoint.Action{Delay: 50 * time.Millisecond})
			done, stop, watched := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				defer close(watched)
				for faultpoint.HitCount(point) == 0 {
					select {
					case <-stop:
						return
					default:
						runtime.Gosched()
					}
				}
				close(done)
			}()
			run := new(Run)
			run.Bind(done)
			before := morselPoolSnapshot()
			err := pc.GroupedAggregateRun(run, rows, nil, key, specs, &res, nil)
			close(stop)
			<-watched
			if err != cancel.ErrCancelled {
				t.Fatalf("key %s: err = %v, want ErrCancelled", key, err)
			}
			if hits := faultpoint.HitCount(point); hits != 1 {
				t.Fatalf("key %s: fold started %d blocks, want exactly the first", key, hits)
			}
			if run.Live() != 0 {
				t.Fatalf("key %s: cancelled fold left %d buffers on the run", key, run.Live())
			}
			if d := morselPoolSnapshot() - before; d != 0 {
				t.Fatalf("key %s: cancelled fold drifted pools by %d", key, d)
			}
		}
	}
}

// TestFaultPipelineCancelledWithinBlocks fires the token from inside the
// first filter block of a pipelined pass: the kernel's block point stalls
// while a watcher closes the run's done channel on its first hit. Each
// partition stops at its next block boundary — a block it had started, and
// at most one it polled just before the token fired — so both consumers
// surface cancel.ErrCancelled after at most two blocks per partition, with
// both pools balanced.
func TestFaultPipelineCancelledWithinBlocks(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	const point = "engine.kernel.chunk"
	pc := groupTestCloud(t, morselCloudRows)
	preds := []ColumnPred{{Column: ColZ, Op: CmpBetween, Value: 0, Value2: 80}}
	specs := []GroupedAggSpec{{Fn: AggCount}, {Fn: AggAvg, Column: ColZ}}
	var res GroupedResult
	for _, deg := range []int{1, 2, 4} {
		for _, grouped := range []bool{false, true} {
			faultpoint.Arm(point, faultpoint.Action{Delay: 20 * time.Millisecond})
			done, stop, watched := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				defer close(watched)
				for faultpoint.HitCount(point) == 0 {
					select {
					case <-stop:
						return
					default:
						runtime.Gosched()
					}
				}
				close(done)
			}()
			run := parRun(deg)
			run.Bind(done)
			before := morselPoolSnapshot()
			var err error
			if grouped {
				err = pc.GroupedAggregateRun(run, nil, preds, ColClassification, specs, &res, nil)
			} else {
				_, err = pc.FilterRowsRun(run, nil, preds, nil)
			}
			close(stop)
			<-watched
			if err != cancel.ErrCancelled {
				t.Fatalf("deg %d grouped %t: err = %v, want ErrCancelled", deg, grouped, err)
			}
			if hits := faultpoint.HitCount(point); hits > 2*deg {
				t.Fatalf("deg %d grouped %t: %d blocks started after the token fired in the first", deg, grouped, hits)
			}
			if run.Live() != 0 {
				t.Fatalf("deg %d grouped %t: cancelled pipeline left %d buffers on the run", deg, grouped, run.Live())
			}
			if d := morselPoolSnapshot() - before; d != 0 {
				t.Fatalf("deg %d grouped %t: cancelled pipeline drifted pools by %d", deg, grouped, d)
			}
		}
	}
}

// TestFaultImprintPassPublishesNeither poisons the coordinate imprint pass
// on a table large enough to fan it out: a build, and an extension over an
// append of more than two morsels' rows, must panic out of the query (or
// the append) with neither imprint published and the maintenance counters
// unmoved, and the next query must build both — with one partition let
// through and with every partition poisoned.
func TestFaultImprintPassPublishesNeither(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	if morsel.Workers() < 2 {
		t.Skip("the imprint pass fans out only with two workers")
	}
	poisoned := func(label string, f func()) {
		t.Helper()
		defer func() {
			if p := recover(); p != "imprint pass poisoned" {
				t.Fatalf("%s: recovered %v, want the armed panic", label, p)
			}
		}()
		f()
	}
	for _, after := range []int{1, 0} {
		pc := groupTestCloud(t, morselCloudRows)
		faultpoint.Arm("engine.morsel.worker", faultpoint.Action{Panic: "imprint pass poisoned", After: after})
		poisoned("build", func() { pc.EnsureImprints() })
		faultpoint.Disarm("engine.morsel.worker")
		if pc.HasImprints() || pc.IndexStats() != (IndexStats{}) {
			t.Fatalf("after-%d: a poisoned build published imprints or counted: %+v", after, pc.IndexStats())
		}
		if err := selectAll(pc, parRun(1)); err != nil {
			t.Fatal(err)
		}
		if !pc.HasImprints() || pc.IndexStats() != (IndexStats{ImprintBuilds: 1}) {
			t.Fatalf("after-%d: the next query did not build both imprints: %+v", after, pc.IndexStats())
		}

		faultpoint.Arm("engine.morsel.worker", faultpoint.Action{Panic: "imprint pass poisoned", After: after})
		poisoned("extension", func() { pc.AppendLAS(coordPoints(rand.New(rand.NewSource(7)), 2*morselMinRows)) })
		faultpoint.Disarm("engine.morsel.worker")
		if pc.HasImprints() || pc.IndexStats() != (IndexStats{ImprintBuilds: 1}) {
			t.Fatalf("after-%d: a poisoned extension left imprints or counted: %+v", after, pc.IndexStats())
		}
		if err := selectAll(pc, parRun(1)); err != nil {
			t.Fatal(err)
		}
		if !pc.HasImprints() || pc.IndexStats() != (IndexStats{ImprintBuilds: 2}) {
			t.Fatalf("after-%d: the next query did not rebuild both imprints: %+v", after, pc.IndexStats())
		}
	}
}
