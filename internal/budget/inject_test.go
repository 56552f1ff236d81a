package budget

import (
	"errors"
	"strings"
	"testing"
)

// burn drives a budget through n checkpoints inside a Guard, the way a
// pipeline phase would, and returns the phase outcome.
func burn(b *Budget, phase string, n int) error {
	return Guard(phase, func() error {
		b.BeginPhase(phase)
		for i := 0; i < n; i++ {
			if err := b.Step(); err != nil {
				return err
			}
		}
		return b.CheckDeadline()
	})
}

// TestInjectionDeterministic: with a fixed plan, the same label must
// fault at the same checkpoint with the same class on every run, and
// different labels must make independent draws.
func TestInjectionDeterministic(t *testing.T) {
	SetFaultPlan(&FaultPlan{Seed: 7, PanicProb: 0.5, TimeoutProb: 0.5})
	defer SetFaultPlan(nil)

	outcome := func(label string) Class {
		b := New(Limits{})
		b.SetLabel(label)
		return ClassOf(burn(b, "phase", 10000))
	}
	classes := map[Class]int{}
	for run := 0; run < 3; run++ {
		for _, label := range []string{"a#0", "b#0", "c#0", "d#0", "e#0", "f#0"} {
			c := outcome(label)
			if c != ClassPanic && c != ClassTimeout {
				t.Fatalf("label %s: class %q, want an injected fault", label, c)
			}
			if run == 0 {
				classes[c]++
			} else if outcome(label) != c {
				t.Fatalf("label %s: fault class changed between runs", label)
			}
		}
	}
	if len(classes) != 2 {
		t.Errorf("6 labels all drew the same fault mode %v (suspicious hash)", classes)
	}
}

// TestInjectionArmFilter: a plan armed only for first attempts must
// leave retry-labelled budgets untouched.
func TestInjectionArmFilter(t *testing.T) {
	SetFaultPlan(&FaultPlan{Seed: 1, PanicProb: 1,
		Arm: func(label string) bool { return strings.HasSuffix(label, "#0") }})
	defer SetFaultPlan(nil)

	b := New(Limits{})
	b.SetLabel("pkg#0")
	if err := burn(b, "phase", 10000); ClassOf(err) != ClassPanic {
		t.Errorf("armed attempt 0 not faulted: %v", err)
	}
	b = New(Limits{})
	b.SetLabel("pkg#1")
	if err := burn(b, "phase", 10000); err != nil {
		t.Errorf("retry attempt faulted despite Arm filter: %v", err)
	}
}

// TestInjectedPanicRecoversAsPanicError: the Guard must classify the
// injected panic like any real engine crash.
func TestInjectedPanicRecoversAsPanicError(t *testing.T) {
	SetFaultPlan(&FaultPlan{Seed: 3, PanicProb: 1})
	defer SetFaultPlan(nil)
	b := New(Limits{})
	b.SetLabel("x")
	err := burn(b, "detect", 10000)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T (%v), want *PanicError", err, err)
	}
	var inf *InjectedFault
	if e, ok := pe.Value.(error); !ok || !errors.As(e, &inf) {
		t.Errorf("panic value %T, want *InjectedFault", pe.Value)
	}
}

// TestInjectedTimeoutIsSticky: an injected timeout must behave exactly
// like a real one — recorded as the budget's sticky first failure.
func TestInjectedTimeoutIsSticky(t *testing.T) {
	SetFaultPlan(&FaultPlan{Seed: 5, TimeoutProb: 1})
	defer SetFaultPlan(nil)
	b := New(Limits{})
	b.SetLabel("x")
	if err := burn(b, "analysis", 10000); ClassOf(err) != ClassTimeout {
		t.Fatalf("injected timeout classified %q", ClassOf(err))
	}
	if ClassOf(b.Err()) != ClassTimeout {
		t.Error("injected timeout not sticky on the budget")
	}
}

// TestNoPlanNoFaults: without a plan the checkpoints are inert.
func TestNoPlanNoFaults(t *testing.T) {
	b := New(Limits{})
	b.SetLabel("x")
	if err := burn(b, "phase", 100000); err != nil {
		t.Fatalf("uninjected budget failed: %v", err)
	}
}

// TestPhaseUsageAccounting: per-phase deltas must partition the scan's
// total consumption, and the failure must be stamped with the phase it
// happened in.
func TestPhaseUsageAccounting(t *testing.T) {
	b := New(Limits{MaxSteps: 150})
	b.BeginPhase("front-end")
	for i := 0; i < 100; i++ {
		if err := b.Step(); err != nil {
			t.Fatalf("front-end tripped early: %v", err)
		}
	}
	b.BeginPhase("analysis")
	var ferr error
	for i := 0; i < 100 && ferr == nil; i++ {
		ferr = b.Step()
	}
	if ClassOf(ferr) != ClassBudget {
		t.Fatalf("step cap not tripped: %v", ferr)
	}
	if got := b.ExhaustedPhase(); got != "analysis" {
		t.Errorf("exhausted phase %q, want analysis", got)
	}
	var be *Error
	if !errors.As(ferr, &be) || be.Phase != "analysis" {
		t.Errorf("error not phase-stamped: %v", ferr)
	}
	us := b.PhaseUsages()
	if len(us) != 2 || us[0].Phase != "front-end" || us[1].Phase != "analysis" {
		t.Fatalf("phases %+v", us)
	}
	if us[0].Steps != 100 {
		t.Errorf("front-end steps %d, want 100", us[0].Steps)
	}
	if us[0].Steps+us[1].Steps != b.steps {
		t.Errorf("phase steps %d+%d do not partition total %d", us[0].Steps, us[1].Steps, b.steps)
	}
}

// TestPhaseLogSharedAcrossDerive: consumption on the grace budget
// DeadlineOnly derives must accumulate into the parent's phase log,
// merged by phase name.
func TestPhaseLogSharedAcrossDerive(t *testing.T) {
	b := New(Limits{MaxSteps: 10})
	b.BeginPhase("detect")
	for b.Step() == nil {
	}
	gb := b.DeadlineOnly()
	if gb.Err() != nil || gb.steps != 0 {
		t.Fatalf("derived budget inherited exhaustion: err=%v steps=%d", gb.Err(), gb.steps)
	}
	gb.BeginPhase("detect")
	for i := 0; i < 20; i++ {
		if err := gb.Step(); err != nil {
			t.Fatalf("fresh budget tripped: %v", err)
		}
	}
	us := gb.PhaseUsages()
	if len(us) != 1 || us[0].Phase != "detect" {
		t.Fatalf("phases %+v", us)
	}
	if us[0].Steps != 11+20 {
		t.Errorf("merged detect steps %d, want 31", us[0].Steps)
	}
}
