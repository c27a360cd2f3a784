// Command benchmark (navbench) is the navigation-session benchmark: it
// loads a ~1.07M-point cloud, hosts internal/server on a loopback listener
// in this process and drives it as one navigating user — one closed-loop
// client on one keep-alive connection. README.md describes the workloads,
// the metrics and how to read them; BENCHMARK.json at the repository root
// is the contract.
//
//	benchmark -workload pan.bbox -seed 1 -seconds 10            end-to-end metrics
//	benchmark -workload pan.bbox -seed 1 -trace 1               per-layer metrics
//	benchmark -workload all -seed 1 -out a.json                 every workload, one process each
//	benchmark -compare a.json b.json                            A/A or parent-vs-change
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// options are the command's flags.
type options struct {
	workload    string
	seed        uint64
	seconds     int
	trace       int
	out, spans  string
	commit      string
	compare     bool
	breakOracle bool
	setupDir    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all (each in a process of its own)")
	flag.Uint64Var(&o.seed, "seed", 1, "drives the walk, the thematic windows and the appended points")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the script at every layer boundary and reports per-layer metrics instead")
	flag.StringVar(&o.out, "out", "", "append this run's record to a JSON file (input of -compare)")
	flag.StringVar(&o.spans, "spans", "", "where a traced run writes its spans (default .bench_build/spans-<workload>.json)")
	flag.StringVar(&o.commit, "commit", "unknown", "recorded in the output, e.g. $(git rev-parse --short HEAD)")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files given as arguments against BENCHMARK.json's bounds")
	flag.BoolVar(&o.breakOracle, "break-oracle", false, "self-test: make the oracle's expectations wrong; the run must fail")
	flag.StringVar(&o.setupDir, "setup-child", "", "internal: measure set-up once over the dataset in this directory")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned when a run completed but an answer was wrong, a
// step failed or an invariant did not hold; the result line is printed first.
var errIncorrect = errors.New("the run was not correct")

func run(o options) error {
	if o.compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if o.workload == "all" {
		return runAll(os.Args[1:])
	}
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.setupDir != "" {
		return setupChildMain(o.setupDir, w, o.seed, os.Stdout)
	}

	work := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	trace := o.trace == 1
	if trace && o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans-"+w.name+".json")
	}
	rec, err := runWorkload(config{
		w: w, seed: o.seed, window: time.Duration(o.seconds) * time.Second, trace: trace,
		data: benchData, dir: filepath.Join(work, "data"), setupRuns: setupRuns,
		breakOracle: o.breakOracle, spansPath: o.spans, commit: o.commit,
	}, os.Stdout)
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := appendRecord(o.out, rec); err != nil {
			return err
		}
	}
	// The result line, last on standard output.
	line, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": rec.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return errIncorrect
	}
	return nil
}

// runAll runs every workload in a process of its own, so neither the heap
// nor the process-wide pyramid cache leaks from one into the next.
func runAll(args []string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		cmd := exec.Command(exe, append(append([]string{}, args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil { // Run waits for the child
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

// appendRecord adds rec to the JSON array in path, creating it if absent.
func appendRecord(path string, rec *record) error {
	var recs []*record
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &recs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	return writeJSON(path, append(recs, rec))
}
