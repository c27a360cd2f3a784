package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// contract is BENCHMARK.json as the harness reads it.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadContract reads BENCHMARK.json from the working directory or, when the
// harness is run from its own directory, from the one above.
func loadContract() (*contract, error) {
	var c contract
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &c); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &c, nil
	}
	return nil, errors.New("BENCHMARK.json not found here or one directory up")
}

// compareFiles holds side b against side a: per workload and end-to-end
// metric it prints both sides' medians over their timed runs, each side's
// quartile spread, the relative change in the worse direction and the
// bound, and returns an error when any change is out of bound.
func compareFiles(pathA, pathB string, w io.Writer) error {
	c, err := loadContract()
	if err != nil {
		return err
	}
	sides := [2]map[string]map[string][]float64{} // side -> workload -> metric -> values
	for i, path := range []string{pathA, pathB} {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var recs []record
		if err := json.Unmarshal(data, &recs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		sides[i] = map[string]map[string][]float64{}
		for _, rec := range recs {
			if rec.Trace {
				continue
			}
			if !rec.Correct {
				return fmt.Errorf("%s: an incorrect run of %s cannot be compared", path, rec.Workload)
			}
			if sides[i][rec.Workload] == nil {
				sides[i][rec.Workload] = map[string][]float64{}
			}
			for name, m := range rec.Metrics {
				sides[i][rec.Workload][name] = append(sides[i][rec.Workload][name], m.Value)
			}
		}
	}

	spread := func(vals []float64) string {
		if len(vals) < 2 {
			return "    -"
		}
		return fmt.Sprintf("%4.1f%%", 100*quartileSpread(vals))
	}
	fmt.Fprintf(w, "%-14s %-13s %12s %6s %12s %6s %8s %6s\n", "workload", "metric", "a median", "iqr", "b median", "iqr", "worse by", "bound")
	out := 0
	for _, wl := range c.Workloads {
		for _, m := range c.EndToEnd {
			a, b := sides[0][wl.Name][m.Name], sides[1][wl.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  OUT OF BOUND"
				out++
			}
			fmt.Fprintf(w, "%-14s %-13s %12.4f %6s %12.4f %6s %+7.1f%% %5.0f%%%s\n",
				wl.Name, m.Name, ma, spread(a), mb, spread(b), 100*worse, 100*m.Bound, verdict)
		}
	}
	if out > 0 {
		return fmt.Errorf("%d metrics are worse than their bound allows", out)
	}
	return nil
}
