package scanner

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/dataset"
)

// pathologicalSource fetches one crash-corpus package by name.
func pathologicalSource(t *testing.T, name string) string {
	t.Helper()
	for _, p := range dataset.Pathological().Packages {
		if p.Name == name {
			return p.Source
		}
	}
	t.Fatalf("pathological package %q not in corpus", name)
	return ""
}

// TestPathologicalClasses is the fault-containment regression: every
// crash-corpus package must terminate well under its budget with the
// expected failure classification — no hangs, no process-killing
// panics.
func TestPathologicalClasses(t *testing.T) {
	want := map[string]budget.Class{
		"alias_storm":           budget.ClassNone,  // 2000 aliases of one tainted value
		"call_chain":            budget.ClassNone,  // 1200-function forwarding chain
		"deep_nesting":          budget.ClassParse, // parser recursion-depth limit
		"huge_object":           budget.ClassNone,  // big but convergent
		"member_chain":          budget.ClassNone,  // 2000-deep property chain
		"proto_cycle":           budget.ClassNone,  // cyclic prototype chain
		"unroll_bomb":           budget.ClassNone,  // MDG fixpoint summarizes it
		"unterminated_template": budget.ClassParse, // lexer-level front-end failure
	}
	c := dataset.Pathological()
	if len(c.Packages) != len(want) {
		t.Fatalf("corpus has %d packages, expectations cover %d", len(c.Packages), len(want))
	}
	for _, p := range c.Packages {
		start := time.Now()
		rep := ScanSource(p.Source, p.Name, Options{Timeout: 30 * time.Second})
		elapsed := time.Since(start)
		if elapsed > 30*time.Second {
			t.Errorf("%s: ran %v, exceeded its budget", p.Name, elapsed)
		}
		if rep.Failure != want[p.Name] {
			t.Errorf("%s: failure class %q, want %q (err=%v)", p.Name, rep.Failure, want[p.Name], rep.Err)
		}
		if rep.TimedOut {
			t.Errorf("%s: timed out under a 30s budget", p.Name)
		}
	}
}

// TestScanStepCapIncomplete: tripping the step cap must classify the
// run as budget-exceeded and keep it a non-error, findings-so-far
// outcome.
func TestScanStepCapIncomplete(t *testing.T) {
	src := pathologicalSource(t, "huge_object")
	rep := ScanSource(src, "huge_object", Options{MaxSteps: 50})
	if rep.Failure != budget.ClassBudget {
		t.Fatalf("failure class %q, want %q (err=%v)", rep.Failure, budget.ClassBudget, rep.Err)
	}
	if !rep.Incomplete {
		t.Error("budget-capped scan not marked Incomplete")
	}
	if rep.Err != nil {
		t.Errorf("budget exhaustion surfaced as error: %v", rep.Err)
	}
}

// TestScanNodeCapIncomplete: same contract for the MDG node cap. The
// huge_object package builds ~3000 MDG nodes unconstrained, so a cap
// of 500 must trip mid-analysis while detection still runs over the
// partial graph.
func TestScanNodeCapIncomplete(t *testing.T) {
	src := pathologicalSource(t, "huge_object")
	rep := ScanSource(src, "huge_object", Options{MaxNodes: 500})
	if rep.Failure != budget.ClassBudget {
		t.Fatalf("failure class %q, want %q (err=%v)", rep.Failure, budget.ClassBudget, rep.Err)
	}
	if !rep.Incomplete {
		t.Error("node-capped scan not marked Incomplete")
	}
}

// TestScanTimeoutClass: wall-clock expiry is classified as a timeout
// and keeps the legacy TimedOut flag.
func TestScanTimeoutClass(t *testing.T) {
	src := pathologicalSource(t, "proto_cycle")
	rep := ScanSource(src, "proto_cycle", Options{Timeout: time.Nanosecond})
	if rep.Failure != budget.ClassTimeout {
		t.Fatalf("failure class %q, want %q", rep.Failure, budget.ClassTimeout)
	}
	if !rep.TimedOut {
		t.Error("timeout class without TimedOut flag")
	}
	if rep.Err != nil {
		t.Errorf("timeout surfaced as error: %v", rep.Err)
	}
}

// TestEnginePanicIsolation: a panic inside a detection backend must be
// contained as a classified, structured error — the scan returns
// normally.
func TestEnginePanicIsolation(t *testing.T) {
	testHookNative = func(string, *budget.Budget) { panic("injected engine bug") }
	defer func() { testHookNative = nil }()

	src := pathologicalSource(t, "proto_cycle")
	rep := ScanSource(src, "proto_cycle", Options{Engine: EngineNative})
	if rep.Failure != budget.ClassPanic {
		t.Fatalf("failure class %q, want %q", rep.Failure, budget.ClassPanic)
	}
	var pe *budget.PanicError
	if !errors.As(rep.Err, &pe) {
		t.Fatalf("err %T (%v), want *budget.PanicError", rep.Err, rep.Err)
	}
	if pe.Phase != "detect-native" {
		t.Errorf("panic phase %q, want detect-native", pe.Phase)
	}
}

// TestFallbackEngine: when the native backend dies, the fallback
// engine must retry on the query backend and produce exactly the
// query engine's findings.
func TestFallbackEngine(t *testing.T) {
	src := pathologicalSource(t, "proto_cycle")
	want := ScanSource(src, "proto_cycle", Options{Engine: EngineQuery})
	if want.Err != nil || len(want.Findings) == 0 {
		t.Fatalf("query engine baseline unusable: err=%v findings=%d", want.Err, len(want.Findings))
	}

	testHookNative = func(string, *budget.Budget) { panic("injected engine bug") }
	defer func() { testHookNative = nil }()

	rep := ScanSource(src, "proto_cycle", Options{Engine: EngineFallback})
	if !rep.FellBack {
		t.Fatal("fallback engine did not record FellBack")
	}
	if rep.FallbackErr == nil {
		t.Error("FellBack without FallbackErr")
	}
	if rep.Err != nil {
		t.Fatalf("fallback scan errored: %v", rep.Err)
	}
	if err := DiffFindings(want.Findings, rep.Findings); err != nil {
		t.Errorf("fallback findings differ from the surviving engine: %v", err)
	}
}

// TestFallbackBudgetRetriesFresh is the regression for the old
// fallback behaviour that refused to retry after a cap trip ("the
// budget is spent; a retry would trip it again"): when the native
// backend exhausts its step cap, the fallback must derive a fresh,
// smaller allowance and still produce the query engine's findings
// instead of giving up.
func TestFallbackBudgetRetriesFresh(t *testing.T) {
	src := pathologicalSource(t, "proto_cycle")
	want := ScanSource(src, "proto_cycle", Options{Engine: EngineQuery})
	if want.Err != nil || len(want.Findings) == 0 {
		t.Fatalf("query engine baseline unusable: err=%v findings=%d", want.Err, len(want.Findings))
	}

	// Burn the scan's entire step allowance inside the native backend,
	// then unwind with the budget's own error (a cooperative abort the
	// Guard passes through as ClassBudget).
	testHookNative = func(_ string, b *budget.Budget) {
		for b.Step() == nil {
		}
		panic(b.Err())
	}
	defer func() { testHookNative = nil }()

	rep := ScanSource(src, "proto_cycle", Options{Engine: EngineFallback, MaxSteps: 2_000_000})
	if !rep.FellBack {
		t.Fatal("budget-exhausted native backend did not fall back")
	}
	if budget.ClassOf(rep.FallbackErr) != budget.ClassBudget {
		t.Errorf("FallbackErr class %q, want budget-exceeded", budget.ClassOf(rep.FallbackErr))
	}
	if !rep.Incomplete {
		t.Error("budget-driven fallback not marked Incomplete")
	}
	if rep.Err != nil {
		t.Fatalf("fallback scan errored: %v", rep.Err)
	}
	if err := DiffFindings(want.Findings, rep.Findings); err != nil {
		t.Errorf("fallback findings differ from the query baseline: %v", err)
	}
}

// TestReachGateOnlyTriage: the ladder's floor rung runs nothing past
// the reach gate — a package the gate cannot prove clean comes back
// Incomplete with no findings and no failure, quickly.
func TestReachGateOnlyTriage(t *testing.T) {
	src := pathologicalSource(t, "proto_cycle")
	rep := ScanSource(src, "proto_cycle", Options{ReachGateOnly: true})
	if len(rep.Findings) != 0 {
		t.Errorf("triage scan produced findings: %d", len(rep.Findings))
	}
	if !rep.Incomplete {
		t.Error("unproven triage scan not marked Incomplete")
	}
	if rep.Failure != budget.ClassNone || rep.Err != nil {
		t.Errorf("triage scan failed: class=%q err=%v", rep.Failure, rep.Err)
	}

	// A gate-provably-clean package completes cleanly at the floor.
	clean := ScanSource("var x = 1 + 2;\n", "clean", Options{ReachGateOnly: true})
	if clean.Incomplete || clean.Failure != budget.ClassNone || clean.Err != nil {
		t.Errorf("clean triage scan: incomplete=%v class=%q err=%v",
			clean.Incomplete, clean.Failure, clean.Err)
	}
	if !clean.SkippedByReach {
		t.Error("clean package not proven by the reach gate")
	}
}

// TestPhaseAccounting: a completed scan reports per-phase budget
// consumption, and a capped scan names the phase that exhausted it.
func TestPhaseAccounting(t *testing.T) {
	src := pathologicalSource(t, "huge_object")
	rep := ScanSource(src, "huge_object", Options{})
	if len(rep.Phases) == 0 {
		t.Fatal("scan reported no phase usage")
	}
	seen := map[string]bool{}
	for _, u := range rep.Phases {
		seen[u.Phase] = true
	}
	for _, want := range []string{"front-end", "analysis"} {
		if !seen[want] {
			t.Errorf("phase %q missing from %v", want, rep.Phases)
		}
	}

	capped := ScanSource(src, "huge_object", Options{MaxSteps: 50})
	if capped.Failure != budget.ClassBudget {
		t.Fatalf("capped scan class %q", capped.Failure)
	}
	if capped.ExhaustedPhase == "" {
		t.Error("capped scan did not name its exhausted phase")
	}
}

// TestFallbackHealthyMatchesNative: with both backends healthy the
// fallback engine is just the native engine.
func TestFallbackHealthyMatchesNative(t *testing.T) {
	src := pathologicalSource(t, "proto_cycle")
	native := ScanSource(src, "proto_cycle", Options{Engine: EngineNative})
	fb := ScanSource(src, "proto_cycle", Options{Engine: EngineFallback})
	if fb.FellBack {
		t.Error("healthy fallback scan reported FellBack")
	}
	if err := DiffFindings(native.Findings, fb.Findings); err != nil {
		t.Errorf("fallback findings differ from native: %v", err)
	}
}

// TestWarmReachGateOnly: the floor rung runs nothing past the reach
// gate on a retained state either (the pipeline is the same), and
// caches nothing past the front end on that path — a later full scan
// of the same state still analyzes and finds everything.
func TestWarmReachGateOnly(t *testing.T) {
	cold := ScanSource(gitResetSrc, "git_reset.js", Options{ReachGateOnly: true})
	st := NewIncrementalState()
	warm := ScanSource(gitResetSrc, "git_reset.js", Options{ReachGateOnly: true, Incremental: st})
	for _, rep := range []*Report{cold, warm} {
		if len(rep.Findings) != 0 || !rep.Incomplete || rep.Failure != budget.ClassNone {
			t.Fatalf("gate-only scan: findings=%d incomplete=%v class=%q, want 0/true/none",
				len(rep.Findings), rep.Incomplete, rep.Failure)
		}
	}
	if s := st.Stats(); st.Fragments() != 0 || len(st.facts) != 0 || s.FragmentMisses != 0 || s.DetectMisses != 0 {
		t.Fatalf("gate-only scan did work past the gate: fragments=%d facts=%d stats=%+v",
			st.Fragments(), len(st.facts), s)
	}
	full := ScanSource(gitResetSrc, "git_reset.js", Options{Incremental: st})
	sameFindings(t, ScanSource(gitResetSrc, "git_reset.js", Options{}), full)
	if len(full.Findings) != 2 {
		t.Fatalf("full scan after the floor found %d findings, want 2", len(full.Findings))
	}
}

// phaseNames lists a report's phase rows in order.
func phaseNames(rep *Report) []string {
	var names []string
	for _, u := range rep.Phases {
		names = append(names, u.Phase)
	}
	return names
}

// TestWarmScanRecordsPhases: a scan through a retained state records
// the same phase rows as a cold one, keeps recording them when every
// fragment and detection result is a cache hit, and names the phase a
// cap exhausted.
func TestWarmScanRecordsPhases(t *testing.T) {
	cold := ScanSource(gitResetSrc, "git_reset.js", Options{})
	st := NewIncrementalState()
	warm := ScanSource(gitResetSrc, "git_reset.js", Options{Incremental: st})
	want := []string{"front-end", "reach-gate", "partition", "analysis", PhaseDetectQuery}
	for _, rep := range []*Report{cold, warm} {
		if got := phaseNames(rep); !reflect.DeepEqual(got, want) {
			t.Fatalf("phases %v, want %v", got, want)
		}
	}
	again := ScanSource(gitResetSrc, "git_reset.js", Options{Incremental: st})
	if again.IncrStats.DetectHits == 0 {
		t.Fatalf("re-scan was not served from the cache: %+v", again.IncrStats)
	}
	if got := phaseNames(again); !reflect.DeepEqual(got, want[:4]) {
		t.Fatalf("fully cached re-scan phases %v, want %v", got, want[:4])
	}

	coldCap := ScanSource(gitResetSrc, "git_reset.js", Options{MaxNodes: 5})
	warmCap := ScanSource(gitResetSrc, "git_reset.js", Options{MaxNodes: 5, Incremental: NewIncrementalState()})
	for _, rep := range []*Report{coldCap, warmCap} {
		if rep.Failure != budget.ClassBudget || rep.ExhaustedPhase != "analysis" {
			t.Errorf("node-capped scan: class=%q exhausted=%q, want budget-exceeded in analysis",
				rep.Failure, rep.ExhaustedPhase)
		}
	}
}
