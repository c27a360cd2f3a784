package main

import (
	"encoding/json"
	"os"
	"time"

	"gisnav/internal/engine"
	"gisnav/internal/pyramid"
	"gisnav/internal/sql"
)

// jsonRecord is one measured arm of one experiment — the machine-readable
// counterpart of a result-table row, so successive PRs can diff performance
// trajectories (BENCH_filter.json style).
type jsonRecord struct {
	Experiment string  `json:"experiment"`
	Name       string  `json:"name"`
	Arm        string  `json:"arm"`
	Rows       int     `json:"rows"`
	Matches    int     `json:"matches"`
	NsPerOp    int64   `json:"ns_per_op"`
	Speedup    float64 `json:"speedup,omitempty"` // vs the experiment's baseline arm
	// AllocsPerOp is testing.AllocsPerRun for steady-state arms (the
	// repeated-query fast path's contract is 0); nil when not measured.
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// cacheRecord snapshots the statement- and plan-cache counters after one
// experiment, so the trajectory captures hit rates and rebind counts, not
// just latencies — a pan/zoom regression that silently stops rebinding
// shows up here even if the timing noise hides it.
type cacheRecord struct {
	Experiment         string `json:"experiment"`
	StmtEntries        int    `json:"stmt_entries"`
	StmtHits           uint64 `json:"stmt_hits"`
	StmtMisses         uint64 `json:"stmt_misses"`
	StmtShapeHits      uint64 `json:"stmt_shape_hits"`
	StmtRebinds        uint64 `json:"stmt_rebinds"`
	StmtInvalidations  uint64 `json:"stmt_invalidations"`
	StmtFrontHits      uint64 `json:"stmt_front_hits"`
	PlanKernelsCached  int    `json:"plan_kernels_cached"`
	PlanKernelHits     uint64 `json:"plan_kernel_hits"`
	PlanKernelCompiles uint64 `json:"plan_kernel_compiles"`
}

// execRecord snapshots the executor's query-lifecycle counters after one
// experiment (PR 6): admission-gate traffic, sheds, cancellations,
// deadline expiries, recovered panics, and the run-latency estimate the
// deadline shedding compares against.
type execRecord struct {
	Experiment       string `json:"experiment"`
	MaxInFlight      int    `json:"max_in_flight"`
	Admitted         uint64 `json:"admitted"`
	Shed             uint64 `json:"shed"`
	Cancelled        uint64 `json:"cancelled"`
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
	Panicked         uint64 `json:"panicked"`
	EWMARunNanos     int64  `json:"ewma_run_nanos"`
}

// jsonReport accumulates records across experiments and serialises them.
type jsonReport struct {
	Dataset struct {
		Points int    `json:"points"`
		Scale  string `json:"scale"`
		// GOMAXPROCS of the measuring process: the E16 scaling curve is
		// only meaningful up to this count (degrees past it exercise
		// partition queueing, not speedup).
		GOMAXPROCS int `json:"gomaxprocs"`
	} `json:"dataset"`
	GeneratedAt string        `json:"generated_at"`
	Records     []jsonRecord  `json:"records"`
	CacheStats  []cacheRecord `json:"cache_stats,omitempty"`
	ExecStats   []execRecord  `json:"exec_stats,omitempty"`
	// PyramidStats snapshots the pre-aggregation pyramid counters after
	// E18: builds, epoch drops and the interior/boundary tile split, so a
	// routing regression (everything classifying boundary) is visible in
	// the trajectory even when latency noise hides it.
	PyramidStats *pyramid.Stats `json:"pyramid_stats,omitempty"`
}

// add appends one measurement.
func (r *jsonReport) add(experiment, name, arm string, rows, matches int, d time.Duration, speedup float64) {
	r.Records = append(r.Records, jsonRecord{
		Experiment: experiment,
		Name:       name,
		Arm:        arm,
		Rows:       rows,
		Matches:    matches,
		NsPerOp:    d.Nanoseconds(),
		Speedup:    speedup,
	})
}

// addAllocs appends one measurement carrying an allocation count; pass a
// negative allocs for arms where it wasn't measured.
func (r *jsonReport) addAllocs(experiment, name, arm string, rows, matches int, d time.Duration, allocs float64) {
	r.addFull(experiment, name, arm, rows, matches, d, 0, allocs)
}

// addFull appends one measurement with both a speedup (vs the
// experiment's baseline arm; 0 omits it) and an allocation count
// (negative omits it).
func (r *jsonReport) addFull(experiment, name, arm string, rows, matches int, d time.Duration, speedup, allocs float64) {
	r.add(experiment, name, arm, rows, matches, d, speedup)
	if allocs >= 0 {
		r.Records[len(r.Records)-1].AllocsPerOp = &allocs
	}
}

// addCache appends one experiment's cache-counter snapshot.
func (r *jsonReport) addCache(experiment string, ss sql.StmtCacheStats, ps engine.PlanCacheStats) {
	r.CacheStats = append(r.CacheStats, cacheRecord{
		Experiment:         experiment,
		StmtEntries:        ss.Entries,
		StmtHits:           ss.Hits,
		StmtMisses:         ss.Misses,
		StmtShapeHits:      ss.ShapeHits,
		StmtRebinds:        ss.Rebinds,
		StmtInvalidations:  ss.Invalidations,
		StmtFrontHits:      ss.FrontHits,
		PlanKernelsCached:  ps.Entries,
		PlanKernelHits:     ps.Hits,
		PlanKernelCompiles: ps.Misses,
	})
}

// addExec appends one experiment's lifecycle-counter snapshot.
func (r *jsonReport) addExec(experiment string, st sql.ExecStats) {
	r.ExecStats = append(r.ExecStats, execRecord{
		Experiment:       experiment,
		MaxInFlight:      st.MaxInFlight,
		Admitted:         st.Admitted,
		Shed:             st.Shed,
		Cancelled:        st.Cancelled,
		DeadlineExceeded: st.DeadlineExceeded,
		Panicked:         st.Panicked,
		EWMARunNanos:     st.EWMARunNanos,
	})
}

// addPyramid records the pyramid-cache counter snapshot.
func (r *jsonReport) addPyramid(st pyramid.Stats) {
	r.PyramidStats = &st
}

// write dumps the report as indented JSON to path.
func (r *jsonReport) write(path string) error {
	r.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sameRendering reports whether two results print identically, cell for
// cell — the equivalence the self-checking experiments (rebound vs fresh,
// parallel vs serial, pyramid vs exact) assert before publishing a timing.
func sameRendering(a, b *sql.Result) bool {
	ra, rb := a.Rows(), b.Rows()
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		for j := range ra[i] {
			if ra[i][j].String() != rb[i][j].String() {
				return false
			}
		}
	}
	return true
}
