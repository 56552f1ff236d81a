package metrics

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/scanner"
	"repro/internal/store"
	"repro/internal/sweepjournal"
)

// Chaos harness (`make chaos` runs this under -race): supervised
// sweeps at Workers=4 with deterministic injected panics and timeouts,
// then a simulated SIGKILL (journal log torn mid-record) and a resume.
// The invariants:
//
//  1. The pool drains — the sweep returns one row per package no
//     matter what the fault plan does.
//  2. Every package reaches a terminal, classified journal state with
//     its attempt history attached.
//  3. The supervised results (findings + failure classes) equal the
//     uninjected sweep's: the ladder absorbs every injected fault.
//  4. Kill-and-resume reproduces the uninterrupted run's journal
//     exactly, entry for entry.

// tearJournal simulates a SIGKILL mid-put: it drops the journal log's
// last whole record and tears the record before it in half, so two
// entries are lost.
func tearJournal(t *testing.T, dir string) int {
	t.Helper()
	path := filepath.Join(dir, "store.dat")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := store.DecodeRecords(data)
	if len(recs) < 2 {
		t.Fatal("journal too small to tear")
	}
	prev := recs[len(recs)-2]
	if err := os.WriteFile(path, data[:prev.Offset+4+int64(prev.PayloadLen)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	return 2
}

func TestChaosKillResume(t *testing.T) {
	c := superviseCorpus()
	opts := scanner.Options{Workers: 4, Timeout: 30 * time.Second}
	baseline := SweepGraphJS(c, opts)

	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Panics and timeouts on roughly 70% of first attempts, early
			// enough (Spread 6) to hit small packages too. Retries and
			// lower rungs run clean, so the ladder can always recover the
			// true result.
			plan := &budget.FaultPlan{Seed: seed, PanicProb: 0.4, TimeoutProb: 0.3, Spread: 6,
				Arm: func(label string) bool { return strings.HasSuffix(label, "#0") }}
			budget.SetFaultPlan(plan)
			defer budget.SetFaultPlan(nil)

			dir := t.TempDir()
			full := filepath.Join(dir, "full-journal")
			sw, stats, err := SuperviseGraphJS(c, opts, SuperviseOptions{Journal: full})
			if err != nil {
				t.Fatalf("supervised sweep: %v", err)
			}

			// Invariant 1: the pool drained.
			if len(sw.Results) != len(c.Packages) {
				t.Fatalf("sweep returned %d rows for %d packages", len(sw.Results), len(c.Packages))
			}
			injected := 0

			// Invariant 2: terminal classified journal rows for everyone.
			fullEntries, torn, err := loadJournal(full)
			if err != nil || torn {
				t.Fatalf("journal load: torn=%v err=%v", torn, err)
			}
			if len(fullEntries) != len(c.Packages) {
				t.Fatalf("journal has %d entries for %d packages", len(fullEntries), len(c.Packages))
			}
			for _, p := range c.Packages {
				e, ok := fullEntries[p.Name]
				if !ok {
					t.Fatalf("%s: no journal entry", p.Name)
				}
				switch e.State {
				case sweepjournal.StateComplete, sweepjournal.StateDegraded, sweepjournal.StateQuarantined:
				default:
					t.Errorf("%s: non-terminal state %q", p.Name, e.State)
				}
				if len(e.Attempts) == 0 {
					t.Errorf("%s: no attempt history", p.Name)
				}
				if len(e.Attempts) > 1 {
					injected++
				}
			}
			if injected == 0 {
				t.Error("fault plan injected nothing; chaos run was vacuous")
			}

			// Invariant 3: the ladder absorbed every fault — findings and
			// failure classes match the uninjected sweep.
			for i := range sw.Results {
				got, want := &sw.Results[i], &baseline.Results[i]
				if got.Failure != want.Failure {
					t.Errorf("%s: class %q, uninjected sweep had %q",
						c.Packages[i].Name, got.Failure, want.Failure)
				}
				if !sameFindings(got.Findings, want.Findings) {
					t.Errorf("%s: findings diverged from the uninjected sweep (%v vs %v)",
						c.Packages[i].Name, findingKeys(got.Findings), findingKeys(want.Findings))
				}
			}

			// Kill-and-resume: copy the journal, kill it mid-write, resume
			// under the same fault plan.
			killed := filepath.Join(dir, "killed-journal")
			data, err := os.ReadFile(filepath.Join(full, "store.dat"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(killed, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(killed, "store.dat"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			lost := tearJournal(t, killed)
			resumed, rstats, err := SuperviseGraphJS(c, opts,
				SuperviseOptions{Journal: killed, Resume: true})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !rstats.Torn {
				t.Error("resume did not report the torn journal tail")
			}
			if want := len(c.Packages) - lost; rstats.Resumed != want {
				t.Errorf("resumed %d packages, want %d (lost %d to the kill)",
					rstats.Resumed, want, lost)
			}

			// Invariant 4: the resumed journal replays to exactly the
			// uninterrupted run's entries, and the sweep rows agree.
			resEntries, _, err := loadJournal(killed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fullEntries, resEntries) {
				for k, e := range fullEntries {
					if !reflect.DeepEqual(e, resEntries[k]) {
						t.Errorf("%s: resumed entry differs:\n%+v\nvs\n%+v", k, resEntries[k], e)
					}
				}
			}
			for i := range resumed.Results {
				if !sameFindings(resumed.Results[i].Findings, sw.Results[i].Findings) {
					t.Errorf("%s: resumed findings differ from the uninterrupted run",
						c.Packages[i].Name)
				}
			}
			t.Logf("seed %d: %d/%d packages hit by injected faults (%d complete, %d degraded, %d quarantined); kill lost %d entries, resume skipped %d and reproduced the journal",
				seed, injected, len(c.Packages), stats.Completed, stats.Degraded, stats.Quarantined,
				lost, rstats.Resumed)
		})
	}
}
