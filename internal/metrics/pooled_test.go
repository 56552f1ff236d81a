package metrics

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/scanner"
)

// diffSweeps compares two sweeps of the same corpus row by row on the
// outcome a caller can observe: finding identities, failure class,
// completeness, and whether the reach gate skipped the package.
func diffSweeps(cold, warm *Sweep) []string {
	var diffs []string
	for i := range cold.Results {
		c, w := &cold.Results[i], &warm.Results[i]
		name := c.Package.Name
		if err := scanner.DiffFindings(c.Findings, w.Findings); err != nil {
			diffs = append(diffs, fmt.Sprintf("%s: findings: %v", name, err))
		}
		if c.Failure != w.Failure || c.Incomplete != w.Incomplete || c.SkippedByReach != w.SkippedByReach {
			diffs = append(diffs, fmt.Sprintf("%s: cold (failure=%q incomplete=%v skipped=%v) vs warm (failure=%q incomplete=%v skipped=%v)",
				name, c.Failure, c.Incomplete, c.SkippedByReach, w.Failure, w.Incomplete, w.SkippedByReach))
		}
	}
	return diffs
}

// TestPooledSweepMatchesCold is the full-corpus oracle for the one scan
// pipeline's partition choice: a cold sweep analyzes each package as
// one whole-package fragment through a throwaway state, a pooled sweep
// partitions it into require-component fragments through a retained
// state. Both must agree on every package of the ground truth and the
// wild-corpus stand-in, and on the crash corpus under each budget
// shape (unlimited, a step cap, a node cap, and a tight step cap on the
// native engine).
func TestPooledSweepMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus oracle")
	}
	vul, sec := dataset.GroundTruth(1)
	gt := &dataset.Corpus{Name: "ground-truth"}
	gt.Packages = append(append(gt.Packages, vul.Packages...), sec.Packages...)
	wild := dataset.Collected(1, dataset.DefaultCollectedMix(2000))
	for _, c := range []*dataset.Corpus{gt, wild} {
		opts := scanner.Options{Workers: 2}
		cold := SweepGraphJS(c, opts)
		warm := SweepGraphJSIncremental(c, opts, scanner.NewStatePool())
		for _, d := range diffSweeps(cold, warm) {
			t.Errorf("%s: %s", c.Name, d)
		}
	}

	path := dataset.Pathological()
	for _, opts := range []scanner.Options{
		{},
		{MaxSteps: 100000},
		{MaxNodes: 500},
		{Engine: scanner.EngineNative, MaxSteps: 5000},
	} {
		opts.Workers = 2
		cold := SweepGraphJS(path, opts)
		warm := SweepGraphJSIncremental(path, opts, scanner.NewStatePool())
		for _, d := range diffSweeps(cold, warm) {
			t.Errorf("pathological %+v: %s", opts, d)
		}
	}
}
