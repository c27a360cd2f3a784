//go:build faultinject

package pyramid

import (
	"runtime"
	"testing"
	"time"

	"gisnav/internal/cancel"
	"gisnav/internal/engine"
	"gisnav/internal/faultpoint"
)

// TestPyramidBuildCancelledMidPass fires the run's token from inside the
// first block of the tile scatter: the block point stalls while a watcher
// closes the run's done channel on its first hit. Each partition stops at
// its next block boundary, so the build must return cancel.ErrCancelled
// after at most two blocks per partition, publish no cache entry and leave
// every pool's Outstanding where it was; the next lookup builds afresh.
func TestPyramidBuildCancelledMidPass(t *testing.T) {
	dropResident()
	defer dropResident()
	t.Cleanup(faultpoint.Reset)
	const point = "engine.groupagg.block"
	pc := testCloud(200_000, 19)
	specs := testSpecs()
	sig := sigFor(engine.ColClassification, specs)
	mark := markPools()
	for _, deg := range []int{1, 2} {
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
		run := new(engine.Run)
		run.SetMaxParallel(deg)
		run.Bind(done)
		before := Snapshot()
		p, err := For(run, pc, engine.ColClassification, specs, sig, nil)
		close(stop)
		<-watched
		if p != nil || err != cancel.ErrCancelled {
			t.Fatalf("deg %d: For = %v, %v; want a cancelled build", deg, p, err)
		}
		if hits := faultpoint.HitCount(point); hits < 1 || hits > 2*deg {
			t.Fatalf("deg %d: the scatter started %d blocks, want 1..%d", deg, hits, 2*deg)
		}
		if s := Snapshot(); s.Pyramids != before.Pyramids || s.Builds != before.Builds {
			t.Fatalf("deg %d: a cancelled build was published: %+v", deg, s)
		}
		run.Drain()
		mark.unmoved(t)
		faultpoint.Disarm(point)
	}
	p, run := buildPyramid(t, pc, specs)
	p.Release()
	run.Drain()
	mark.unmoved(t)
}
