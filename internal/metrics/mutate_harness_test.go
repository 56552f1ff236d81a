package metrics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/scanner"
)

// This file is the mutation-driven equivalence harness for the
// incremental scanner: it replays a fixed edit script against one
// package — touch, benign edit, source-introducing edit, file add
// (independent and require-linked), a require that resolves only once
// its target is added and stops resolving after renames, file delete,
// sink-removing edit, revert — and after every step asserts that an
// incremental re-scan (persistent scanner.IncrementalState) reports
// exactly what a cold scan of the same files reports: findings,
// failure class, the reach gate's counters and the findings'
// provenance. Any under-approximation in the scanner's component
// partition (internal/scanner/deps.go), and any per-component cache
// entry served after its component changed, shows up here as a
// divergence. The touch step keeps the lowered program, so its
// re-scan must also rebuild no fragment (the early cutoff).

// MutationStep is one package state of the edit script.
type MutationStep struct {
	Name string
	// Files is the full package content after the step, sorted by Rel
	// (the order scanner.ScanFiles requires).
	Files []scanner.SourceFile
	// SameCore marks an edit that leaves every file's lowered program
	// unchanged (a trailing comment): the incremental scan must rebuild
	// no fragment (see checkCutoff).
	SameCore bool
}

// Synthetic satellites added by the script. Identifiers are __-prefixed
// so they cannot collide with generated template names.
const (
	mutIndependentFile = "function __indep(__x) { return __x; }\nmodule.exports = __indep;\n"
	mutLinkedFile      = "var __m = require('./index');\nfunction __use(__a) { return __m(__a); }\nmodule.exports = __use;\n"
	mutSourceIntro     = "\nfunction __fresh(__c) { eval(__c); }\nmodule.exports.__fresh = __fresh;\n"
	mutSinkRemoved     = "function __calm(__x) { return __x + 1; }\nmodule.exports = __calm;\n"
	// mutUsesFile requires './helper': while the require resolves,
	// __inner goes to a resolved callee and is unreachable; while it
	// does not, __inner escapes to an opaque module as a callback and
	// its eval is reachable.
	mutUsesFile   = "var __h = require('./helper');\nfunction __inner(__c) { eval(__c); }\n__h(__inner);\nmodule.exports = function (__a) { return __h(__a); };\n"
	mutHelperFile = "module.exports = function (__f) { return __f; };\n"
)

// MutationSequence derives the edit script for a base single-file
// package (rel "index.js"). Every step is a full package snapshot;
// consecutive steps differ by exactly one file edit, add, delete or
// rename.
func MutationSequence(src string) []MutationStep {
	intro := src + mutSourceIntro
	linked := []scanner.SourceFile{
		{Rel: "extra.js", Src: mutIndependentFile},
		{Rel: "index.js", Src: intro},
		{Rel: "linked.js", Src: mutLinkedFile}}
	with := func(more ...scanner.SourceFile) []scanner.SourceFile {
		return append(append([]scanner.SourceFile(nil), linked...), more...)
	}
	uses := scanner.SourceFile{Rel: "uses.js", Src: mutUsesFile}
	steps := []MutationStep{
		{Name: "seed", Files: []scanner.SourceFile{{Rel: "index.js", Src: src}}},
		{Name: "touch", Files: []scanner.SourceFile{{Rel: "index.js", Src: src + "\n// touched\n"}}, SameCore: true},
		{Name: "benign-edit", Files: []scanner.SourceFile{
			{Rel: "index.js", Src: src + "\nfunction __noop(__z) { return __z; }\n"}}},
		{Name: "source-introducing", Files: []scanner.SourceFile{{Rel: "index.js", Src: intro}}},
		{Name: "add-independent", Files: []scanner.SourceFile{
			{Rel: "extra.js", Src: mutIndependentFile},
			{Rel: "index.js", Src: intro}}},
		{Name: "add-linked", Files: with()},
		// Require resolution, and so component membership, changes.
		{Name: "add-unresolved", Files: with(uses)},
		{Name: "add-target", Files: with(uses, scanner.SourceFile{Rel: "helper.js", Src: mutHelperFile})},
		{Name: "rename-target", Files: with(uses, scanner.SourceFile{Rel: "helper/index.js", Src: mutHelperFile})},
		{Name: "rename-away", Files: with(uses, scanner.SourceFile{Rel: "aid.js", Src: mutHelperFile})},
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
// failure classification, and completeness — and, when neither scan's
// budget tripped, the reach gate's counters and every finding's
// provenance. (A gate whose budget trips degrades to its fallback at
// whatever point the budget ran out, which differs between a cold scan
// and a warm one that spends no steps on cached work.)
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
	if cold.ExhaustedPhase == "" && incr.ExhaustedPhase == "" {
		if c, i := gateView(cold), gateView(incr); c != i {
			return fmt.Errorf("step %q: reach gate diverges:\n  cold:        %s\n  incremental: %s", step, c, i)
		}
	}
	return nil
}

// checkCutoff asserts the early cutoff on a SameCore step: the
// incremental scan rebuilt no fragment. It holds only when the previous
// incremental scan cached its fragments, so a previous scan that ran
// out of budget or panicked, or a step that itself did, is not checked.
func checkCutoff(step MutationStep, prev, incr *scanner.Report) error {
	if !step.SameCore || prev == nil || prev.Incomplete || prev.Failure == budget.ClassPanic ||
		incr.Incomplete || incr.Failure == budget.ClassPanic {
		return nil
	}
	if n := incr.IncrStats.FragmentMisses - prev.IncrStats.FragmentMisses; n != 0 {
		return fmt.Errorf("step %q keeps every lowered program but rebuilt %d fragments", step.Name, n)
	}
	return nil
}

// gateView renders a report's reach-gate counters and the provenance
// of its findings, in the report's (sorted) finding order.
func gateView(rep *scanner.Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "funcs=%d pruned=%d exports=%d fallback=%v skipped=%v depth=%d",
		rep.FuncsTotal, rep.FuncsPruned, rep.ExportCount, rep.ReachFallback, rep.SkippedByReach, rep.ProvenanceDepth)
	for _, f := range rep.Findings {
		fmt.Fprintf(&sb, "; %s %s:%d %s fallback=%v", f.CWE, f.SinkFile, f.SinkLine, f.Provenance, f.Provenance.Fallback)
	}
	return sb.String()
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

	var prev *scanner.Report
	for _, step := range MutationSequence(src) {
		cold := scanner.ScanFiles(step.Files, name, coldOpts)
		incr := scanner.ScanFiles(step.Files, name, incrOpts)
		if err := compareReports(step.Name, cold, incr); err != nil {
			return fmt.Errorf("package %s: %w", name, err)
		}
		if err := checkCutoff(step, prev, incr); err != nil {
			return fmt.Errorf("package %s: %w", name, err)
		}
		prev = incr
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
