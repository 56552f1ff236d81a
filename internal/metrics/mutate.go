package metrics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/scanner"
)

// This file is the mutation-driven equivalence harness for the
// incremental scanner: it replays a fixed edit script against one
// package — touch, benign edit, source-introducing edit, file add
// (independent and require-linked), file delete, sink-removing edit,
// revert — and after every step asserts that an incremental re-scan
// (persistent scanner.IncrementalState) reports exactly what a cold
// scan of the same files reports. Any under-approximation in the
// scanner's component partition (internal/scanner/deps.go) shows up
// here as a divergence.

// MutationStep is one package state of the edit script.
type MutationStep struct {
	Name string
	// Files is the full package content after the step, sorted by Rel
	// (the order scanner.ScanFiles requires).
	Files []scanner.SourceFile
}

// Synthetic satellites added by the script. Identifiers are __-prefixed
// so they cannot collide with generated template names.
const (
	mutIndependentFile = "function __indep(__x) { return __x; }\nmodule.exports = __indep;\n"
	mutLinkedFile      = "var __m = require('./index');\nfunction __use(__a) { return __m(__a); }\nmodule.exports = __use;\n"
	mutSourceIntro     = "\nfunction __fresh(__c) { eval(__c); }\nmodule.exports.__fresh = __fresh;\n"
	mutSinkRemoved     = "function __calm(__x) { return __x + 1; }\nmodule.exports = __calm;\n"
)

// MutationSequence derives the edit script for a base single-file
// package (rel "index.js"). Every step is a full package snapshot;
// consecutive steps differ by exactly one file edit, add, or delete.
func MutationSequence(src string) []MutationStep {
	intro := src + mutSourceIntro
	steps := []MutationStep{
		{Name: "seed", Files: []scanner.SourceFile{{Rel: "index.js", Src: src}}},
		{Name: "touch", Files: []scanner.SourceFile{{Rel: "index.js", Src: src + "\n// touched\n"}}},
		{Name: "benign-edit", Files: []scanner.SourceFile{
			{Rel: "index.js", Src: src + "\nfunction __noop(__z) { return __z; }\n"}}},
		{Name: "source-introducing", Files: []scanner.SourceFile{{Rel: "index.js", Src: intro}}},
		{Name: "add-independent", Files: []scanner.SourceFile{
			{Rel: "extra.js", Src: mutIndependentFile},
			{Rel: "index.js", Src: intro}}},
		{Name: "add-linked", Files: []scanner.SourceFile{
			{Rel: "extra.js", Src: mutIndependentFile},
			{Rel: "index.js", Src: intro},
			{Rel: "linked.js", Src: mutLinkedFile}}},
		{Name: "delete-files", Files: []scanner.SourceFile{{Rel: "index.js", Src: intro}}},
		{Name: "sink-removing", Files: []scanner.SourceFile{{Rel: "index.js", Src: mutSinkRemoved}}},
		{Name: "revert", Files: []scanner.SourceFile{{Rel: "index.js", Src: src}}},
	}
	for _, s := range steps {
		sort.Slice(s.Files, func(i, j int) bool { return s.Files[i].Rel < s.Files[j].Rel })
	}
	return steps
}

// compareReports asserts the observable scan outcome matches: the
// finding multiset (CWE, sink name, sink file, sink line, source), the
// failure classification, and completeness.
func compareReports(step string, cold, incr *scanner.Report) error {
	if err := scanner.DiffFindings(cold.Findings, incr.Findings); err != nil {
		return fmt.Errorf("step %q: findings diverge (cold vs incremental): %w", step, err)
	}
	if cold.Failure != incr.Failure {
		return fmt.Errorf("step %q: failure class cold=%v incremental=%v", step, cold.Failure, incr.Failure)
	}
	if cold.Incomplete != incr.Incomplete {
		return fmt.Errorf("step %q: incomplete cold=%v incremental=%v", step, cold.Incomplete, incr.Incomplete)
	}
	return nil
}

// CheckMutationEquivalence replays the edit script for one base source,
// scanning every step both cold and through a single persistent
// incremental state, and returns the first divergence (nil when the
// incremental scanner is observationally equivalent on this package).
// opts.Incremental is ignored.
func CheckMutationEquivalence(name, src string, opts scanner.Options) error {
	st := scanner.NewIncrementalState()
	coldOpts := opts
	coldOpts.Incremental = nil
	incrOpts := coldOpts
	incrOpts.Incremental = st

	for _, step := range MutationSequence(src) {
		cold := scanner.ScanFiles(step.Files, name, coldOpts)
		incr := scanner.ScanFiles(step.Files, name, incrOpts)
		if err := compareReports(step.Name, cold, incr); err != nil {
			return fmt.Errorf("package %s: %w", name, err)
		}
	}
	return nil
}

// MutationSweep runs CheckMutationEquivalence over every package of a
// corpus on the shared bounded worker pool (opts.Workers, 0 =
// GOMAXPROCS) and returns an error aggregating every divergence.
func MutationSweep(c *dataset.Corpus, opts scanner.Options) error {
	sw := runCorpus(len(c.Packages), opts.Workers, func(i int) PackageResult {
		p := c.Packages[i]
		return PackageResult{Package: p, Err: CheckMutationEquivalence(p.Name, p.Source, opts)}
	})
	var diverged []string
	for i := range sw.Results {
		if err := sw.Results[i].Err; err != nil {
			diverged = append(diverged, err.Error())
		}
	}
	if len(diverged) == 0 {
		return nil
	}
	return fmt.Errorf("%d/%d packages diverged:\n%s",
		len(diverged), len(c.Packages), strings.Join(diverged, "\n"))
}
