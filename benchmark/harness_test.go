package main

import (
	"bytes"
	"io"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"gisnav/internal/dataset"
	"gisnav/internal/geom"
)

func TestPercentiles(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{99, 0, false}, {100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true}, {100000, 99.99, true}} {
		if p, ok := tailPercentile(c.n); p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	vals := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got, want := quartileSpread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %g, want %g", got, want)
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	// Two steps. socket 100 us holds server 60 us, which holds two engine
	// calls of 20 us and 25 us; step 1 doubles everything.
	var spans []span
	for step, k := range []int64{1, 2} {
		spans = append(spans,
			span{Name: "socket", Step: step, StartNs: 0, EndNs: 100_000 * k},
			span{Name: "server", Step: step, Parent: "socket", StartNs: 5, EndNs: 5 + 60_000*k},
			span{Name: "a", Step: step, Parent: "server", StartNs: 7, EndNs: 7 + 20_000*k},
			span{Name: "b", Step: step, Parent: "server", StartNs: 9, EndNs: 9 + 25_000*k},
		)
	}
	dur, self := spanStats(spans)
	// The median of two values is the lower one (nearest rank): step 0.
	for name, want := range map[string][2]float64{"socket": {100, 40}, "server": {60, 15}, "a": {20, 20}, "b": {25, 25}} {
		if dur[name] != want[0] || self[name] != want[1] {
			t.Errorf("%s: duration %g self %g, want %g and %g", name, dur[name], self[name], want[0], want[1])
		}
	}
}

func TestScriptsAreSeeded(t *testing.T) {
	ext := geom.NewEnvelope(0, 0, 3000, 3000)
	text := func(steps []step) string {
		var b strings.Builder
		for _, s := range steps {
			b.Write(s.body)
			b.WriteByte('\n')
		}
		return b.String()
	}
	zs := make([]float64, 5000)
	for i := range zs {
		zs[i] = float64(i%977) / 10
	}
	for name, gen := range map[string]func(seed uint64) []step{
		"pan":      func(seed uint64) []step { return panScript(seed, ext, walkLen, shapeBBox, shapeHist) },
		"thematic": func(seed uint64) []step { return thematicScript(seed, zs, thematicWindows) },
	} {
		a, b, c := text(gen(7)), text(gen(7)), text(gen(8))
		if a != b {
			t.Errorf("%s: the same seed gave two different scripts", name)
		}
		if a == c {
			t.Errorf("%s: two seeds gave the same script", name)
		}
	}

	// What the walk promises: viewports inside the extent, a tenth of the
	// steps repeating the text of two steps earlier, and more distinct texts
	// than the front cache holds.
	steps := panScript(7, ext, walkLen, shapeFetch)
	distinct, backs := map[string]bool{}, 0
	for i, s := range steps {
		if !ext.ContainsEnvelope(s.view) {
			t.Fatalf("step %d leaves the extent: %v", i, s.view)
		}
		if frc := s.view.Area() / ext.Area(); frc < minAreaFrc*0.98 || frc > maxAreaFrc*1.02 {
			t.Fatalf("step %d covers %.4f of the extent", i, frc)
		}
		if i >= 2 && s.sql == steps[i-2].sql {
			backs++
		}
		distinct[s.sql] = true
	}
	if backs < walkLen/10 || backs > walkLen/10+3 { // a walk pinned in a corner may repeat by chance
		t.Errorf("%d back steps, want %d", backs, walkLen/10)
	}
	if len(distinct) <= 512 {
		t.Errorf("%d distinct texts do not overflow the 512-entry front cache", len(distinct))
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesHarness holds BENCHMARK.json and the harness's own
// tables together: same workloads, same metrics, same units.
func TestContractMatchesHarness(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(names), len(defs))
		}
		for i, d := range defs {
			if d.name != names[i] || d.unit != units[i] || !nameRE.MatchString(d.name) {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], harness %s [%s]", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	for _, m := range c.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range c.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units)
}

// tinyData is a dataset small enough to load in milliseconds yet wide
// enough for the append patches.
var tinyData = dataset.Params{
	Region: geom.NewEnvelope(0, 0, 600, 600),
	TilesX: 2, TilesY: 2, Density: 0.05, UACells: 8, Seed: 2015,
}

func tinyConfig(t *testing.T, w workload, trace bool) config {
	w.traceSteps = 250
	window := 200 * time.Millisecond
	if w.appends {
		window = 1100 * time.Millisecond // two appends on the wall clock
	}
	return config{w: &w, seed: 5, window: window, trace: trace, data: tinyData,
		dir: filepath.Join(t.TempDir(), "data"), spansPath: filepath.Join(t.TempDir(), "spans.json"), commit: "test"}
}

// TestWorkloadsEndToEnd runs every workload both ways over the tiny
// dataset: the oracle must agree with the served answer of every step of
// every statement shape, the invariants must hold, and the run must emit
// exactly the metrics BENCHMARK.json names.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rec, err := runWorkload(tinyConfig(t, w, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < walkLen/2 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", w.name, trace, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rec.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w.name, trace, d.name, m, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, d.name, m.Value)
				}
			}
			if !trace {
				continue
			}
			// The routing each workload was chosen for.
			val := func(name string) float64 { return rec.Metrics[name].Value }
			switch w.name {
			case "pan.bbox", "pan.fetch":
				if val("pyramid_queries") != 0 || val("engine_select_us") <= 0 {
					t.Errorf("%s: pyramid queries %g, select %g us", w.name, val("pyramid_queries"), val("engine_select_us"))
				}
			case "pan.hist":
				if val("pyramid_queries") == 0 || val("engine_select_us") != 0 {
					t.Errorf("%s: pyramid queries %g, select %g us", w.name, val("pyramid_queries"), val("engine_select_us"))
				}
			case "scan.thematic":
				if val("pyramid_queries") != 0 || val("engine_select_us") != 0 || val("engine_filter_us") <= 0 {
					t.Errorf("%s: pyramid queries %g, select %g us, filter %g us", w.name, val("pyramid_queries"), val("engine_select_us"), val("engine_filter_us"))
				}
			case "pan.append":
				if val("appends") != 2 || val("invalidations") == 0 || val("refresh_ms") <= 0 {
					t.Errorf("%s: appends %g, invalidations %g, refresh %g ms", w.name, val("appends"), val("invalidations"), val("refresh_ms"))
				}
			}
			if strings.HasPrefix(w.name, "pan.") && math.Abs(val("front_hit_rate")-0.1) > 0.02 {
				t.Errorf("%s: front hit rate %g, want ~0.1", w.name, val("front_hit_rate"))
			}
		}
	}
}

// TestWrongExpectationFails is the check on the checker: with the oracle's
// expectations deliberately wrong the run must count failures.
func TestWrongExpectationFails(t *testing.T) {
	for _, name := range []string{"pan.fetch", "pan.append"} {
		cfg := tinyConfig(t, *findWorkload(name), false)
		cfg.breakOracle = true
		var report bytes.Buffer
		rec, err := runWorkload(cfg, &report)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Correct || rec.Failed == 0 || !strings.Contains(report.String(), "FAILED") {
			t.Errorf("%s: a wrong oracle passed: correct=%v failed=%d", name, rec.Correct, rec.Failed)
		}
	}
}
