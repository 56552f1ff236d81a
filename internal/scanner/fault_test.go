package scanner

import (
	"errors"
	"fmt"
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

// TestScanTimeoutClass: wall-clock expiry is classified as a timeout,
// a classified outcome rather than an error.
func TestScanTimeoutClass(t *testing.T) {
	src := pathologicalSource(t, "proto_cycle")
	rep := ScanSource(src, "proto_cycle", Options{Timeout: time.Nanosecond})
	if rep.Failure != budget.ClassTimeout {
		t.Fatalf("failure class %q, want %q", rep.Failure, budget.ClassTimeout)
	}
	if rep.Err != nil {
		t.Errorf("timeout surfaced as error: %v", rep.Err)
	}
	if !rep.Incomplete || rep.ExhaustedPhase != "front-end" {
		t.Errorf("incomplete %v, exhausted phase %q; want Incomplete, front-end", rep.Incomplete, rep.ExhaustedPhase)
	}
}

// TestTimeoutBeforeDetectionIsIncomplete: a deadline that runs out in
// the front end, the reach gate or the analysis leaves no findings
// established, so the report is Incomplete, as one whose deadline runs
// out in detection is. An injected timeout (deterministic per label)
// lands in each phase: the test tries labels until it has hit every
// one.
func TestTimeoutBeforeDetectionIsIncomplete(t *testing.T) {
	vul, _ := dataset.GroundTruth(1)
	p := vul.Packages[0]
	hit := map[string]bool{}
	for i := 0; i < 200 && len(hit) < 3; i++ {
		label := fmt.Sprintf("timeout-before-detection#%d", i)
		budget.SetFaultPlan(&budget.FaultPlan{Seed: 1, TimeoutProb: 1, Spread: 5,
			Arm: func(l string) bool { return l == label }})
		rep := ScanSource(p.Source, p.Name, Options{FaultLabel: label})
		budget.SetFaultPlan(nil)
		switch rep.ExhaustedPhase {
		case "front-end", "reach-gate", "analysis":
		default:
			continue
		}
		hit[rep.ExhaustedPhase] = true
		if rep.Failure != budget.ClassTimeout || !rep.Incomplete || rep.Err != nil || len(rep.Findings) != 0 {
			t.Errorf("timeout in %s: failure %q, incomplete %v, err %v, %d findings; want timeout, Incomplete, no error, none",
				rep.ExhaustedPhase, rep.Failure, rep.Incomplete, rep.Err, len(rep.Findings))
		}
	}
	if len(hit) < 3 {
		t.Fatalf("injected timeouts landed only in %v", hit)
	}
}

// TestCapThenGraceTimeoutClass: when a step cap trips first and the
// wall clock then expires in the grace detection pass (here an engine
// that unwinds with the budget error once the deadline has passed),
// the first failure names the outcome: the scan is budget-exceeded
// and Incomplete, not a timeout.
func TestCapThenGraceTimeoutClass(t *testing.T) {
	// The timeout leaves ample room for the cap to trip first, even
	// under the race detector; the hook then waits out the deadline.
	testHookNative = func(_ string, b *budget.Budget) {
		for b.CheckDeadline() == nil {
			time.Sleep(time.Millisecond)
		}
		panic(b.Err())
	}
	defer func() { testHookNative = nil }()

	src := pathologicalSource(t, "huge_object")
	rep := ScanSource(src, "huge_object", Options{MaxSteps: 50, Timeout: time.Second})
	if rep.Failure != budget.ClassBudget || !rep.Incomplete || rep.Err != nil {
		t.Fatalf("failure %q, incomplete %v, err %v; want %q, Incomplete, no error",
			rep.Failure, rep.Incomplete, rep.Err, budget.ClassBudget)
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

// TestWarmReachGateOnly: the floor rung runs nothing past the reach
// gate on a retained state either (the pipeline is the same), and
// caches nothing past the gate on that path (the front end, the
// partition's facts and the gate's units are the stages before it) —
// a later full scan of the same state still analyzes and finds
// everything.
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
	if s := st.Stats(); st.Fragments() != 0 || s.FragmentMisses != 0 || s.DetectMisses != 0 {
		t.Fatalf("gate-only scan did work past the gate: fragments=%d stats=%+v", st.Fragments(), s)
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
// the same phase rows as a cold one, keeps recording all of them —
// the detection row included, which times the cached lookups — when
// every fragment and detection result is a cache hit, and names the
// phase a cap exhausted.
func TestWarmScanRecordsPhases(t *testing.T) {
	cold := ScanSource(gitResetSrc, "git_reset.js", Options{})
	st := NewIncrementalState()
	warm := ScanSource(gitResetSrc, "git_reset.js", Options{Incremental: st})
	want := []string{"front-end", "partition", "reach-gate", "analysis", PhaseDetectNative}
	for _, rep := range []*Report{cold, warm} {
		if got := phaseNames(rep); !reflect.DeepEqual(got, want) {
			t.Fatalf("phases %v, want %v", got, want)
		}
	}
	again := ScanSource(gitResetSrc, "git_reset.js", Options{Incremental: st})
	if again.IncrStats.DetectHits == 0 {
		t.Fatalf("re-scan was not served from the cache: %+v", again.IncrStats)
	}
	if got := phaseNames(again); !reflect.DeepEqual(got, want) {
		t.Fatalf("fully cached re-scan phases %v, want %v", got, want)
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
