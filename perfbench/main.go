// Command perfbench is the repository benchmark. From one process it
// drives the campaign pipeline through the public APIs of internal/exp,
// internal/archive and internal/asgen over one of three workloads
// (campaign, sweep, replay), checks every pass's output, scores the
// inferences against the simulator's ground truth, and prints every metric
// by name and unit. README.md in this directory describes the workloads,
// the metrics and the run protocol.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload campaign [--seed 20250405] [--seconds 28] [--trace 0|1]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it holds the run
// metadata. With --trace 0 the metrics are the end-to-end ones, measured
// untraced; with --trace 1 they are the per-layer ones, from a separate
// traced pass.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// defaultSeed is the campaign seed experiments_output.txt was rendered at.
const defaultSeed = 20250405

// goldenPath is the committed campaign transcript, relative to the
// repository root the benchmark runs from.
const goldenPath = "experiments_output.txt"

// setups is how many times a run prepares its workload; setup_s is the
// median.
const setups = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: campaign, sweep or replay")
	seed := fs.Int64("seed", defaultSeed, "campaign seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 28, "how long the timed passes run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from a traced pass")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the timed untraced passes (--trace 0) to this file")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	newWorkload, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (campaign, sweep or replay)\n", *name)
		return 2
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	b := &bench{
		seed:       *seed,
		workers:    runtime.NumCPU(),
		seconds:    *seconds,
		golden:     golden,
		cpuprofile: *cpuprofile,
	}
	w := newWorkload(b)
	defer w.close()

	meta := hostMeta(*name, *seed, *trace == 1)
	var res result
	if *trace == 1 {
		res, err = b.traced(context.Background(), w, meta)
	} else {
		res, err = b.endToEnd(context.Background(), w, meta)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(meta)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// bench holds one run's settings.
type bench struct {
	seed    int64
	workers int
	seconds float64
	golden  []byte
	// cpuprofile, when set, names the file the timed passes' CPU profile
	// is written to.
	cpuprofile string
}

// errCheck marks an output that failed a correctness check; the pass that
// produced it is counted as failed and records no numbers.
var errCheck = errors.New("correctness check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// median returns the median of xs (the mean of the middle two for an even
// count); xs must not be empty.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs must not be empty.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
