package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"gisnav/internal/dataset"
	"gisnav/internal/engine"
	"gisnav/internal/geom"
)

func TestScaleParams(t *testing.T) {
	for _, scale := range []string{"small", "medium", "large"} {
		p, err := scaleParams(scale, 7)
		if err != nil {
			t.Fatalf("%s: %v", scale, err)
		}
		if p.Seed != 7 || p.Density <= 0 || p.TilesX <= 0 {
			t.Fatalf("%s params = %+v", scale, p)
		}
	}
	small, _ := scaleParams("small", 1)
	large, _ := scaleParams("large", 1)
	if small.Region.Area() >= large.Region.Area() {
		t.Fatal("scales must grow")
	}
	if _, err := scaleParams("galactic", 1); err == nil {
		t.Fatal("unknown scale should error")
	}
}

func TestColumnOf(t *testing.T) {
	if columnOf("z (terrain band)") != engine.ColZ {
		t.Fatal("z label wrong")
	}
	if columnOf("gps_time (1% window)") != engine.ColGPSTime {
		t.Fatal("gps label wrong")
	}
}

func TestSqrtHelper(t *testing.T) {
	if got := sqrt(0.25); got < 0.499 || got > 0.501 {
		t.Fatalf("sqrt(0.25) = %v", got)
	}
	if sqrt(0) != 0 || sqrt(-1) != 0 {
		t.Fatal("non-positive input should be 0")
	}
}

// TestEveryExperimentRunsGreen runs each registered experiment once over a
// tiny generated dataset: no arm may error or disagree with its row group,
// and each experiment prints at least one titled table.
func TestEveryExperimentRunsGreen(t *testing.T) {
	dir := t.TempDir()
	if _, err := dataset.Generate(dir, dataset.Params{
		Region: geom.NewEnvelope(0, 0, 600, 600),
		TilesX: 2, TilesY: 2, Density: 0.05, UACells: 12, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	env, err := setup(dir, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range experiments {
		var buf bytes.Buffer
		if failures := runExperiments(env, &buf, []experiment{e}, 1); failures != 0 {
			t.Errorf("%s: %d check failures:\n%s", e.name, failures, buf.String())
		}
		if !strings.Contains(buf.String(), "== E") {
			t.Errorf("%s printed no titled table:\n%s", e.name, buf.String())
		}
	}

	// An injected disagreement is what makes the process exit 1.
	rigged := experiment{"rigged", func(_ *benchEnv, out *output, _ int) {
		g := out.group("rigged")
		g.arm("indexed", 10)
		g.arm("scan", 11)
	}}
	var buf bytes.Buffer
	if failures := runExperiments(env, &buf, []experiment{rigged}, 1); failures != 1 {
		t.Errorf("rigged run: %d failures, want 1:\n%s", failures, buf.String())
	}
}

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(experiments) {
		t.Fatalf("all: %d experiments, err %v", len(all), err)
	}
	picked, err := selectExperiments("ablation, load")
	if err != nil || len(picked) != 2 || picked[0].name != "load" || picked[1].name != "ablation" {
		t.Fatalf("list: %+v, err %v", picked, err)
	}
	_, err = selectExperiments("load,kernels")
	if err == nil || !strings.Contains(err.Error(), experimentNames()) {
		t.Fatalf("unknown name must list the registered ones, got %v", err)
	}
}

// TestCheckPathReportsFailures: a disagreeing arm and an erroring arm each
// count as one failure, named in the output; agreeing arms count none.
func TestCheckPathReportsFailures(t *testing.T) {
	var buf bytes.Buffer
	out := &output{Writer: &buf}

	g := out.group("E5 1.00%")
	g.arm("imprints+grid", 2073)
	g.arm("full scan", 2073)
	if !out.check("lasindex", nil) || out.failures != 0 {
		t.Fatalf("agreeing arms reported %d failures:\n%s", out.failures, buf.String())
	}

	g.arm("block store", 2072)
	if out.failures != 1 || !strings.Contains(buf.String(), `"block store" found 2072`) {
		t.Fatalf("disagreeing arm: %d failures:\n%s", out.failures, buf.String())
	}
	if out.check("header prune", errors.New("tile unreadable")) || out.failures != 2 ||
		!strings.Contains(buf.String(), "header prune: tile unreadable") {
		t.Fatalf("erroring arm: %d failures:\n%s", out.failures, buf.String())
	}
}
