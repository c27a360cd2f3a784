package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
	"unsafe"

	"gisnav/internal/colstore"
	"gisnav/internal/dataset"
	"gisnav/internal/engine"
	"gisnav/internal/geom"
)

// workload is one traffic mix. script builds its steps from the seed; the
// table is at hand because the thematic windows are placed on z quantiles.
type workload struct {
	name       string
	script     func(seed uint64, region geom.Envelope, pc *engine.PointCloud) []step
	appends    bool
	traceSteps int // script steps the traced run replays at each boundary
}

func pan(shapes ...shape) func(uint64, geom.Envelope, *engine.PointCloud) []step {
	return func(seed uint64, region geom.Envelope, _ *engine.PointCloud) []step {
		return panScript(seed, region, walkLen, shapes...)
	}
}

// BENCHMARK.json says why each workload exists; README.md says which layers
// it loads and which it bypasses.
var workloads = []workload{
	{name: "pan.bbox", script: pan(shapeBBox), traceSteps: walkLen},
	{name: "pan.hist", script: pan(shapeHist), traceSteps: walkLen},
	{name: "pan.fetch", script: pan(shapeFetch), traceSteps: walkLen},
	{name: "scan.thematic", traceSteps: thematicWindows / 2,
		script: func(seed uint64, _ geom.Envelope, pc *engine.PointCloud) []step {
			return thematicScript(seed, pc.Z(), thematicWindows)
		}},
	{name: "pan.append", script: pan(shapeBBox, shapeHist), appends: true, traceSteps: walkLen},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// names and units (a test holds the two together).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"step_p50_ms", "ms"}, {"step_p95_ms", "ms"}, {"steps_per_s", "steps/s"},
	{"setup_s", "s"}, {"live_heap_mb", "MiB"},
}

var perLayer = []metricDef{
	{"socket_step_us", "us"}, {"socket_self_us", "us"}, {"resp_bytes_per_step", "bytes"},
	{"server_self_us", "us"}, {"queries_ok", "count"}, {"server_errors", "count"},
	{"sql_front_self_us", "us"}, {"front_hit_rate", "ratio"}, {"shape_hits", "count"},
	{"rebinds", "count"}, {"stmt_misses", "count"}, {"invalidations", "count"},
	{"admitted", "count"}, {"shed", "count"}, {"allocs_per_step", "count"},
	{"sql_run_self_us", "us"}, {"engine_share_of_run_pct", "%"},
	{"engine_select_us", "us"}, {"select_rows_per_step", "rows"},
	{"imprints_us", "us"}, {"rows_examined_per_match", "ratio"}, {"index_overhead_pct", "%"},
	{"imprints_build_ms", "ms"},
	{"grid_refine_us", "us"}, {"exact_tests_per_match", "ratio"}, {"bulk_accept_share", "ratio"},
	{"engine_filter_us", "us"}, {"engine_group_us", "us"}, {"plan_cache_misses", "count"},
	{"pool_outstanding", "count"},
	{"pyramid_query_us", "us"}, {"pyramid_queries", "count"}, {"pyramid_interior_tiles", "tiles"},
	{"pyramid_boundary_tiles", "tiles"}, {"pyramid_boundary_rows", "rows"},
	{"pyramid_builds", "count"}, {"pyramid_drops", "count"}, {"pyramid_build_ms", "ms"},
	{"append_ms", "ms"}, {"refresh_ms", "ms"}, {"appends", "count"},
	{"gc_cycles", "count"}, {"gc_pause_ms_total", "ms"},
}

// metric is a measured value with its unit, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run of one workload: what -out stores and -compare reads.
// Metrics holds the end-to-end metrics of a timed run or the per-layer
// metrics of a traced one; Diagnostics is everything else worth printing.
type record struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Trace       bool               `json:"trace"`
	Seconds     float64            `json:"window_seconds"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]metric  `json:"metrics"`
	Diagnostics map[string]float64 `json:"diagnostics"`
	Failures    []string           `json:"failures,omitempty"`
	Env         environment        `json:"env"`
}

// environment is where the numbers were taken.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Points     int    `json:"points_loaded"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// config is one run's settings.
type config struct {
	w           *workload
	seed        uint64
	window      time.Duration
	trace       bool
	data        dataset.Params
	dir         string // scratch directory for the generated dataset
	setupRuns   int    // child processes that each measure set-up once; 0 uses this process's own
	breakOracle bool
	spansPath   string
	commit      string
}

// setupRuns is how many times a timed run sets up to report the median.
// Each is a process of its own: the pyramid cache is process-wide and keyed
// by table, so a second load in this process would keep the first alive and
// count it in live_heap_mb — and a fresh process is as cold as set-up gets.
const setupRuns = 3

// runWorkload generates the dataset, measures set-up, verifies every step
// against the oracle and then runs either the timed window or the traced
// replay. log receives the human-readable report.
func runWorkload(cfg config, log io.Writer) (rec *record, err error) {
	rec = &record{Workload: cfg.w.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.window.Seconds(),
		Metrics: map[string]metric{}, Diagnostics: map[string]float64{},
		Env: environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), CPUModel: cpuModel(), Commit: cfg.commit}}
	diag := rec.Diagnostics

	genDur, err := generate(cfg.dir, cfg.data)
	defer os.RemoveAll(cfg.dir)
	if err != nil {
		return nil, fmt.Errorf("generating the dataset: %w", err)
	}
	diag["gen_s"] = genDur.Seconds()

	var setups []float64
	if !cfg.trace {
		for k := 0; k < cfg.setupRuns; k++ {
			st, err := setupChild(cfg)
			if err != nil {
				return nil, fmt.Errorf("set-up run %d: %w", k, err)
			}
			setups = append(setups, st.SetupS)
		}
	}
	s, in, st, err := setUp(cfg.dir, cfg.w, cfg.data.Region, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := in.close(); err == nil && cerr != nil {
			rec, err = nil, fmt.Errorf("closing the server: %w", cerr)
		}
	}()
	if len(setups) == 0 {
		setups = []float64{st.SetupS}
	}
	rec.Env.Points = in.pc.Len()
	diag["load_s"], diag["setup_inproc_s"] = st.LoadS, st.SetupS
	for i, v := range st.FirstMs {
		diag[fmt.Sprintf("first_answer%d_ms", i)] = v
	}

	s.orc = &oracle{breakExpectation: cfg.breakOracle}
	s.orc.snapshot(in.pc)
	t := time.Now()
	rec.Attempted = s.verify(in)
	diag["warmup_s"] = time.Since(t).Seconds()

	var ap *appendPlan
	if cfg.w.appends {
		ap = &appendPlan{every: appendEvery}
		if cfg.trace {
			ap = &appendPlan{everySteps: 100}
		}
		ap.batches = appendBatches(cfg.data, cfg.seed, int(cfg.window/appendEvery)+cfg.w.traceSteps/100+1)
	}

	if cfg.trace {
		m, spans, err := s.traced(in, cfg.w.traceSteps, ap)
		if err != nil {
			return nil, err
		}
		for _, d := range perLayer {
			rec.Metrics[d.name] = metric{m[d.name], d.unit}
		}
		rec.Attempted += len(spans)
		if cfg.spansPath != "" {
			if err := writeJSON(cfg.spansPath, map[string]any{"workload": cfg.w.name, "seed": cfg.seed, "spans": spans}); err != nil {
				return nil, err
			}
			fmt.Fprintf(log, "spans written to %s\n", cfg.spansPath)
		}
	} else {
		s.timed(in, cfg.window, ap, setups, rec)
	}

	rec.Failed, rec.Failures = s.failed, s.failures
	rec.Correct = s.failed == 0
	// A failed step misses every latency bound: it marks the whole run
	// incorrect, which the command turns into a non-zero exit.
	diag["failed_share"] = float64(rec.Failed) / float64(rec.Attempted)
	rec.print(log)
	return rec, nil
}

// timed runs the measured window and fills rec with the end-to-end metrics
// and the diagnostics printed beside them.
func (s *session) timed(in *instance, window time.Duration, ap *appendPlan, setups []float64, rec *record) {
	diag := rec.Diagnostics
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	failedBefore, pools := s.failed, poolsOutstanding()
	r := s.drive(in, func(_ int, elapsed time.Duration) bool { return elapsed >= window }, ap)
	correctSteps := len(r.latMs) - (s.failed - failedBefore)
	runtime.ReadMemStats(&m1)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	s.accounting(in, pools)
	rec.Attempted += len(r.latMs) + r.appends

	// The script cycles, so every step and every full cycle is the same
	// work many times over. The gated figures are taken per step and per
	// cycle and then reduced by a median, which votes out the bursts of
	// machine noise that a pooled percentile or mean soaks up (one-second
	// slices of one run differ by 10-20% on this box); the pooled figures
	// are printed beside them.
	steps := perStepMedians(r.latMs, len(s.script))
	poolFree := poolFreeBytes()
	vals := map[string]float64{
		"step_p50_ms":  percentile(steps, 50),
		"step_p95_ms":  percentile(steps, 95),
		"steps_per_s":  cycleRate(r.startNs, len(s.script), r.elapsed),
		"setup_s":      median(setups),
		"live_heap_mb": float64(live.HeapAlloc-poolFree) / (1 << 20),
	}
	for _, d := range endToEnd {
		rec.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	raw := append([]float64(nil), r.latMs...)
	sort.Float64s(raw)
	diag["samples"] = float64(len(raw))
	diag["cycles"] = float64(len(raw)) / float64(len(s.script))
	diag["window_s"] = r.elapsed.Seconds()
	diag["pooled_p50_ms"], diag["pooled_p95_ms"], diag["pooled_p99_ms"] = percentile(raw, 50), percentile(raw, 95), percentile(raw, 99)
	if p, ok := tailPercentile(len(raw)); ok {
		diag["tail_percentile"], diag["pooled_tail_ms"] = p, percentile(raw, p)
	}
	diag["pooled_steps_per_s"] = float64(correctSteps) / r.elapsed.Seconds()
	diag["pool_free_mb"] = float64(poolFree) / (1 << 20)
	diag["heap_alloc_mb"] = float64(live.HeapAlloc) / (1 << 20)
	diag["resp_bytes_per_step"] = float64(r.bytes) / float64(len(raw))
	diag["gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	diag["gc_pause_ms_total"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	for i, v := range setups {
		diag[fmt.Sprintf("setup_run%d_s", i)] = v
	}
	if r.appends > 0 {
		durUs, _ := spanStats(r.writes)
		diag["appends"] = float64(r.appends)
		diag["append_ms"], diag["refresh_ms"] = durUs[spanAppend]/1e3, durUs[spanRefresh]/1e3
		diag["rows_at_end"] = float64(in.pc.Len())
	}
}

// perStepMedians reduces the window's samples, taken in script order over
// and over, to one latency per script step: the median of that step's
// samples. Sorted ascending, ready for percentile. Steps the window never
// reached (a window shorter than one cycle) are left out.
func perStepMedians(latMs []float64, scriptLen int) []float64 {
	byStep := make([][]float64, min(scriptLen, len(latMs)))
	for i, v := range latMs {
		byStep[i%scriptLen] = append(byStep[i%scriptLen], v)
	}
	out := make([]float64, len(byStep))
	for i, vals := range byStep {
		out[i] = median(vals)
	}
	sort.Float64s(out)
	return out
}

// cycleRate is the throughput of the median full cycle of the script, in
// steps per second; startNs[i] is when step i was sent. Whatever happens
// between steps (pan.append's writes) is inside the cycle. A window that
// never completed a cycle reports its overall rate.
func cycleRate(startNs []int64, scriptLen int, elapsed time.Duration) float64 {
	var rates []float64
	for c := 0; (c+1)*scriptLen < len(startNs); c++ {
		ns := startNs[(c+1)*scriptLen] - startNs[c*scriptLen]
		rates = append(rates, float64(scriptLen)/(float64(ns)/1e9))
	}
	if len(rates) == 0 {
		return float64(len(startNs)) / elapsed.Seconds()
	}
	return median(rates)
}

// poolFreeBytes is the capacity parked in the free lists of the engine's
// buffer pools. Which buffers a pool happens to retain depends on the order
// of the requests it served, up to a fixed budget — two seeds of the same
// workload end tens of MiB apart — so live_heap_mb leaves it out and it is
// printed on its own.
func poolFreeBytes() uint64 {
	rows, ranges, f64s := engine.SelectionPoolStats(), engine.RangePoolStats(), engine.F64PoolStats()
	return uint64(rows.FreeElts)*uint64(unsafe.Sizeof(int(0))) +
		uint64(ranges.FreeElts)*uint64(unsafe.Sizeof(colstore.Range{})) +
		uint64(f64s.FreeElts)*8
}

// setupChild measures set-up once in a process of its own.
func setupChild(cfg config) (setupTimes, error) {
	var st setupTimes
	exe, err := os.Executable()
	if err != nil {
		return st, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-setup-child", cfg.dir, "-workload", cfg.w.name, "-seed", fmt.Sprint(cfg.seed))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(lastLine(out), &st)
}

// setupChildMain is the child's side: set up over the dataset the parent
// generated, print the timings, leave.
func setupChildMain(dir string, w *workload, seed uint64, out io.Writer) error {
	_, in, st, err := setUp(dir, w, benchData.Region, seed)
	if err != nil {
		return err
	}
	if err := in.close(); err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(st)
}

func lastLine(out []byte) []byte {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return []byte(lines[len(lines)-1])
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// print writes the report: where it ran, every metric by name with its
// unit, then the diagnostics.
func (rec *record) print(w io.Writer) {
	e := rec.Env
	mode := "timed window"
	if rec.Trace {
		mode = "traced replay"
	}
	fmt.Fprintf(w, "navbench %s (%s)  seed %d  window %gs  commit %s\n", rec.Workload, mode, rec.Seed, rec.Seconds, e.Commit)
	fmt.Fprintf(w, "  nproc %d  GOMAXPROCS %d  %s  %s  %d points loaded\n", e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.Points)
	if e.GOMAXPROCS < 2 {
		fmt.Fprintln(w, "  WARNING: GOMAXPROCS < 2 — client and server share one core; these numbers measure the scheduler, not the system")
	}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-24s %14.4f %s\n", d.name, rec.Metrics[d.name].Value, d.unit)
	}
	names := make([]string, 0, len(rec.Diagnostics))
	for name := range rec.Diagnostics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "  diagnostics:")
	for _, name := range names {
		fmt.Fprintf(w, "    %-22s %14.4f\n", name, rec.Diagnostics[name])
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}
