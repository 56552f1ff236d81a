package metrics

import (
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/queries"
	"repro/internal/scanner"
)

// templateClasses is every behavioural class the dataset generator can
// render, including negatives (benign, sanitized) and the web-context
// variant.
var templateClasses = []dataset.Class{
	dataset.ClassPlain,
	dataset.ClassLoopy,
	dataset.ClassNoWebContext,
	dataset.ClassUnsupported,
	dataset.ClassBaselineOnly,
	dataset.ClassBenign,
	dataset.ClassSanitized,
	dataset.ClassBaselineFPOnly,
}

// templateCorpus renders one package per (CWE, class) pair.
func templateCorpus(seed int64) *dataset.Corpus {
	g := dataset.NewGenForTest(seed)
	c := &dataset.Corpus{Name: "templates"}
	for _, cwe := range queries.AllCWEs {
		for _, class := range templateClasses {
			c.Packages = append(c.Packages, dataset.RenderForTest(g, cwe, class))
		}
	}
	return c
}

// TestMutationSequenceShape pins the edit-script structure the
// equivalence guarantees rest on: every edit kind is present, files are
// sorted, and consecutive steps differ.
func TestMutationSequenceShape(t *testing.T) {
	steps := MutationSequence("function f(x) { return x; }\nmodule.exports = f;\n")
	want := []string{"seed", "touch", "benign-edit", "source-introducing",
		"add-independent", "add-linked", "add-unresolved", "add-target",
		"rename-target", "rename-away", "delete-files", "sink-removing", "revert"}
	if len(steps) != len(want) {
		t.Fatalf("got %d steps, want %d", len(steps), len(want))
	}
	for i, s := range steps {
		if s.Name != want[i] {
			t.Errorf("step %d = %q, want %q", i, s.Name, want[i])
		}
		if len(s.Files) == 0 {
			t.Fatalf("step %q has no files", s.Name)
		}
		for j := 1; j < len(s.Files); j++ {
			if s.Files[j-1].Rel >= s.Files[j].Rel {
				t.Fatalf("step %q files not sorted: %q >= %q", s.Name, s.Files[j-1].Rel, s.Files[j].Rel)
			}
		}
	}
	if len(steps[5].Files) != 3 {
		t.Fatalf("add-linked should have 3 files, got %d", len(steps[5].Files))
	}
}

// TestMutationEquivalenceAllTemplates is the harness proper: every
// dataset template class crossed with every CWE, replayed through the
// full edit script at Workers=4, must be observationally equivalent to
// cold scans at every step. Run under -race by `make mutate-check`.
func TestMutationEquivalenceAllTemplates(t *testing.T) {
	c := templateCorpus(7)
	if err := MutationSweep(c, scanner.Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
}

// TestMutationEquivalenceQueryEngine repeats the sweep with the query
// backend (the default run above is native), whose per-fragment
// dedup/merge paths are independent of the native engine's.
func TestMutationEquivalenceQueryEngine(t *testing.T) {
	c := templateCorpus(11)
	if err := MutationSweep(c, scanner.Options{Workers: 4, Engine: scanner.EngineQuery}); err != nil {
		t.Fatal(err)
	}
}

// TestMutationEquivalenceNoReachGate repeats the sweep with the reach
// gate disabled, so detection runs even on packages the gate would
// skip (the gate decision itself is part of the compared outcome in
// the other sweeps).
func TestMutationEquivalenceNoReachGate(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := templateCorpus(13)
	if err := MutationSweep(c, scanner.Options{Workers: 4, NoReachGate: true}); err != nil {
		t.Fatal(err)
	}
}

// TestMutationStepsActuallyMutate guards the harness against vacuity:
// across the script, the finding sets of at least two steps must
// differ for a vulnerable template (the source-introducing and
// sink-removing edits are supposed to move findings).
func TestMutationStepsActuallyMutate(t *testing.T) {
	g := dataset.NewGenForTest(3)
	p := dataset.RenderForTest(g, queries.CWECommandInjection, dataset.ClassPlain)
	st := scanner.NewIncrementalState()
	opts := scanner.Options{Incremental: st}
	counts := map[int]bool{}
	for _, step := range MutationSequence(p.Source) {
		rep := scanner.ScanFiles(step.Files, p.Name, opts)
		counts[len(rep.Findings)] = true
	}
	if len(counts) < 2 {
		t.Fatalf("edit script never changed the finding count: %v", counts)
	}
}

// TestResolutionStepsMoveTheGate guards the require-resolution steps
// against vacuity: adding the required file and renaming it away must
// change what the reach gate prunes, so a per-component gate unit
// served across them would show in compareReports.
func TestResolutionStepsMoveTheGate(t *testing.T) {
	g := dataset.NewGenForTest(3)
	p := dataset.RenderForTest(g, queries.CWECommandInjection, dataset.ClassPlain)
	pruned := map[string]int{}
	for _, step := range MutationSequence(p.Source) {
		pruned[step.Name] = scanner.ScanFiles(step.Files, p.Name, scanner.Options{}).FuncsPruned
	}
	if pruned["add-target"] == pruned["add-unresolved"] || pruned["rename-target"] != pruned["add-target"] ||
		pruned["rename-away"] != pruned["add-unresolved"] {
		t.Fatalf("pruned functions per step %v: resolving the require must prune __inner, and only then", pruned)
	}
}

// FuzzIncrementalEquivalence drives arbitrary sources through the full
// edit script, exercising the fragment build/stitch/rehydrate paths
// (internal/mdg.Stitch via scanner.IncrementalState) against cold
// scans. Budget-capped steps are skipped — a warm scan under a cap
// legitimately does less work than a cold one — but parse-error parity
// and findings equivalence must hold everywhere else.
func FuzzIncrementalEquivalence(f *testing.F) {
	g := dataset.NewGenForTest(17)
	for _, cwe := range queries.AllCWEs {
		f.Add(dataset.RenderForTest(g, cwe, dataset.ClassPlain).Source)
	}
	f.Add("var __x = require('./linked');\nmodule.exports = __x;\n")
	f.Add("module.exports = function (o, k, v) { o[k] = v; };\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2048 {
			t.Skip("large input")
		}
		// Tight budgets keep pathological mutants fast; capped or
		// timed-out steps are skipped below, so the caps cost coverage,
		// not soundness.
		coldOpts := scanner.Options{MaxSteps: 20000, Timeout: 2 * time.Second}
		incrOpts := coldOpts
		incrOpts.Incremental = scanner.NewIncrementalState()
		for _, step := range MutationSequence(src) {
			cold := scanner.ScanFiles(step.Files, "fuzz", coldOpts)
			incr := scanner.ScanFiles(step.Files, "fuzz", incrOpts)
			if (cold.Err == nil) != (incr.Err == nil) {
				t.Fatalf("step %q: error parity broken: cold=%v incremental=%v",
					step.Name, cold.Err, incr.Err)
			}
			if cold.Err != nil {
				continue
			}
			if cold.Incomplete || incr.Incomplete || cold.Failure == budget.ClassTimeout || incr.Failure == budget.ClassTimeout {
				continue
			}
			if err := compareReports(step.Name, cold, incr); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestSweepGraphJSIncremental exercises the corpus-level pool plumbing:
// a second sweep over an unchanged corpus must reuse every fragment and
// report identical findings.
func TestSweepGraphJSIncremental(t *testing.T) {
	c := templateCorpus(5)
	pool := scanner.NewStatePool()
	opts := scanner.Options{Workers: 4}

	sw1 := SweepGraphJSIncremental(c, opts, pool)
	cold := SweepGraphJS(c, opts)
	for i := range sw1.Results {
		if err := scanner.DiffFindings(cold.Results[i].Findings, sw1.Results[i].Findings); err != nil {
			t.Fatalf("package %s: incremental sweep diverges: %v", c.Packages[i].Name, err)
		}
	}

	sw2 := SweepGraphJSIncremental(c, opts, pool)
	for i := range sw2.Results {
		if err := scanner.DiffFindings(cold.Results[i].Findings, sw2.Results[i].Findings); err != nil {
			t.Fatalf("package %s: warm sweep diverges: %v", c.Packages[i].Name, err)
		}
	}
	stats := pool.Stats()
	if stats.FragmentHits == 0 {
		t.Fatalf("warm sweep rebuilt everything: %+v", stats)
	}
	if stats.FragmentMisses > len(c.Packages) {
		t.Fatalf("more rebuilds than packages across two sweeps: %+v", stats)
	}
	if pool.Len() != len(c.Packages) {
		t.Fatalf("pool has %d states, want %d", pool.Len(), len(c.Packages))
	}
}
