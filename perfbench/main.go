// Command perfbench is graphjs-go's benchmark. It runs one workload —
// sweep-gt, sweep-wild or serve-edit — generated from a seed, checks
// every op's findings against the dataset's annotations, and prints
// every end-to-end metric (or, traced, every per-layer metric) by name
// and unit. See README.md for the workloads and the metric map.
//
//	perfbench --workload sweep-gt --seed 1 --seconds 20 --trace 0
//	perfbench compare --base a.jsonl --head b.jsonl
//	perfbench legacy --root .. --out legacy.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/scanner"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "legacy":
			os.Exit(legacyMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []string{"sweep-gt", "sweep-wild", "serve-edit"}

// rssWindow is the window peak_rss_mb's per-window peaks are taken over.
const rssWindow = time.Second

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     int64
	duration time.Duration
	traced   bool
	tiny     bool   // small inputs (tests)
	workers  int    // sweep workers, or serve clients and daemon workers
	rounds   int    // set-up/measure rounds of an untraced run
	tmp      string // parent of the serve store's directory ("" = os.TempDir)
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: sweep-gt, sweep-wild or serve-edit")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", "", "append the full result record to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloads)
		return 2
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, duration: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, workers: runtime.NumCPU(), rounds: 5,
	}
	rec, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if err := writeRecord(stdout, rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// run executes one workload and returns its result record.
func run(cfg runConfig) (*Record, error) {
	rec := &Record{Schema: schema, Label: "run", Workload: cfg.workload,
		Meta: runMeta(cfg.seed, cfg.traced, cfg.duration.Seconds())}
	rec.Meta.Engine = string(scanner.EngineQuery) // every workload scans with default options
	var err error
	if cfg.workload == "serve-edit" {
		err = runServe(cfg, rec)
	} else {
		err = runSweep(cfg, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	return rec, nil
}
