package metrics

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/odgen"
	"repro/internal/queries"
	"repro/internal/scanner"
	"repro/internal/sweepjournal"
)

// superviseCorpus builds a small mixed corpus: real ground-truth
// packages (vulnerable and secure) plus the pathological crash corpus.
func superviseCorpus() *dataset.Corpus {
	vul, sec := dataset.GroundTruth(42)
	c := &dataset.Corpus{Name: "supervise"}
	c.Packages = append(c.Packages, vul.Packages[:4]...)
	c.Packages = append(c.Packages, sec.Packages[:2]...)
	c.Packages = append(c.Packages, dataset.Pathological().Packages...)
	return c
}

// findingKeys projects findings onto their identity (ignoring witness
// paths, which are not persisted in journals).
func findingKeys(fs []queries.Finding) []string {
	keys := make([]string, len(fs))
	for i, f := range fs {
		keys[i] = f.String()
	}
	return keys
}

func sameFindings(a, b []queries.Finding) bool {
	ka, kb := findingKeys(a), findingKeys(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// TestSupervisedMatchesPlainSweep: with no faults and no binding caps,
// a supervised sweep is just a sweep — every package completes at the
// full rung with the plain sweep's findings, and the journal holds one
// terminal entry with attempt history per package.
func TestSupervisedMatchesPlainSweep(t *testing.T) {
	c := superviseCorpus()
	opts := scanner.Options{Workers: 4, Timeout: 30 * time.Second}
	plain := SweepGraphJS(c, opts)

	journal := filepath.Join(t.TempDir(), "sweep-journal")
	sw, stats, err := SuperviseGraphJS(c, opts, SuperviseOptions{Journal: journal})
	if err != nil {
		t.Fatalf("supervised sweep: %v", err)
	}
	if stats.Resumed != 0 || stats.Quarantined != 0 || stats.Degraded != 0 {
		t.Errorf("clean corpus stats %+v, want all complete", stats)
	}
	if stats.Completed != len(c.Packages) {
		t.Errorf("completed %d of %d", stats.Completed, len(c.Packages))
	}
	for i := range sw.Results {
		got, want := &sw.Results[i], &plain.Results[i]
		if got.Failure != want.Failure || !sameFindings(got.Findings, want.Findings) {
			t.Errorf("%s: supervised (%q, %d findings) differs from plain (%q, %d findings)",
				c.Packages[i].Name, got.Failure, len(got.Findings), want.Failure, len(want.Findings))
		}
	}

	entries, torn, err := sweepjournal.Load(journal)
	if err != nil || torn {
		t.Fatalf("journal load: torn=%v err=%v", torn, err)
	}
	if len(entries) != len(c.Packages) {
		t.Fatalf("journal has %d entries, corpus has %d packages", len(entries), len(c.Packages))
	}
	for _, p := range c.Packages {
		e, ok := entries[p.Name]
		if !ok {
			t.Errorf("%s: no journal entry", p.Name)
			continue
		}
		if e.State != sweepjournal.StateComplete {
			t.Errorf("%s: state %q, want complete", p.Name, e.State)
		}
		if len(e.Attempts) == 0 {
			t.Errorf("%s: entry has no attempt history", p.Name)
		}
	}
}

// TestLadderDegradesToFloor: a package whose budget class persists at
// every capped rung must slide all the way to the reach-gate floor and
// terminate degraded there — never quarantined, never looping.
func TestLadderDegradesToFloor(t *testing.T) {
	c := &dataset.Corpus{Name: "tiny", Packages: []*dataset.Package{}}
	for _, p := range dataset.Pathological().Packages {
		if p.Name == "huge_object" {
			c.Packages = append(c.Packages, p)
		}
	}
	if len(c.Packages) != 1 {
		t.Fatal("huge_object missing from the pathological corpus")
	}

	journal := filepath.Join(t.TempDir(), "sweep-journal")
	// 50 steps is far under what huge_object needs at any capped rung,
	// so full, half and quarter all trip ClassBudget.
	opts := scanner.Options{Workers: 1, MaxSteps: 50}
	_, stats, err := SuperviseGraphJS(c, opts, SuperviseOptions{Journal: journal})
	if err != nil {
		t.Fatalf("supervised sweep: %v", err)
	}
	if stats.Degraded != 1 {
		t.Fatalf("stats %+v, want exactly one degraded package", stats)
	}
	entries, _, err := sweepjournal.Load(journal)
	if err != nil {
		t.Fatal(err)
	}
	e := entries["huge_object"]
	if e.State != sweepjournal.StateDegraded || e.Rung != "reach-gate" {
		t.Errorf("state %q rung %q, want degraded at reach-gate", e.State, e.Rung)
	}
	if !e.Incomplete {
		t.Error("floor triage of a non-provable package not marked incomplete")
	}
	if len(e.Attempts) != 4 {
		t.Errorf("attempt history %+v, want all 4 rungs", e.Attempts)
	}
	for i, rung := range []string{"full", "half", "quarter"} {
		if e.Attempts[i].Rung != rung || e.Attempts[i].Class != string(budget.ClassBudget) {
			t.Errorf("attempt %d = %+v, want budget-exceeded at %s", i, e.Attempts[i], rung)
		}
	}
}

// TestLadderFloorWithPool: with warm per-package state attached (the
// CLI's -incremental/-cache-dir sweeps, the daemon's POST /v1/sweep),
// the floor rung still stops at the reach gate. Warm and cold scans run
// one pipeline, so the package degrades at the floor exactly as in
// TestLadderDegradesToFloor instead of re-running a capped analysis
// there.
func TestLadderFloorWithPool(t *testing.T) {
	var huge *dataset.Package
	for _, p := range dataset.Pathological().Packages {
		if p.Name == "huge_object" {
			huge = p
		}
	}
	if huge == nil {
		t.Fatal("huge_object missing from the pathological corpus")
	}
	pool := scanner.NewStatePool()
	target := Target{
		Name: huge.Name,
		Hash: func() string { return "fixed" },
		Scan: func(o scanner.Options) *scanner.Report {
			o.Incremental = pool.Get(huge.Name)
			return scanner.ScanSource(huge.Source, huge.Name, o)
		},
	}
	journal := filepath.Join(t.TempDir(), "sweep-journal")
	sw, stats, err := SuperviseGraphJSTargets([]Target{target}, scanner.Options{Workers: 1, MaxSteps: 50},
		SuperviseOptions{Journal: journal})
	if err != nil {
		t.Fatalf("supervised sweep: %v", err)
	}
	if stats.Degraded != 1 {
		t.Fatalf("stats %+v, want exactly one degraded package", stats)
	}
	entries, _, err := sweepjournal.Load(journal)
	if err != nil {
		t.Fatal(err)
	}
	e := entries[huge.Name]
	if e.State != sweepjournal.StateDegraded || e.Rung != "reach-gate" || !e.Incomplete {
		t.Errorf("state %q rung %q incomplete %v, want an incomplete degrade at reach-gate", e.State, e.Rung, e.Incomplete)
	}
	if r := sw.Results[0]; r.Failure != budget.ClassNone || len(r.Findings) != 0 {
		t.Errorf("floor result class %q with %d findings, want a clean gate-only triage", r.Failure, len(r.Findings))
	}
}

// TestTransientRetryRecovers: a deterministic injected panic on the
// first attempt must be retried once on the fallback engine and
// recover the plain sweep's findings, with both attempts on record.
func TestTransientRetryRecovers(t *testing.T) {
	vul, _ := dataset.GroundTruth(7)
	c := &dataset.Corpus{Name: "one", Packages: vul.Packages[:1]}
	name := c.Packages[0].Name
	plain := SweepGraphJS(c, scanner.Options{Workers: 1})
	if plain.Results[0].Failure != budget.ClassNone || len(plain.Results[0].Findings) == 0 {
		t.Fatalf("baseline unusable: %+v", plain.Results[0])
	}

	// Arm only first attempts: the retry runs clean.
	budget.SetFaultPlan(&budget.FaultPlan{Seed: 11, PanicProb: 1, Spread: 2,
		Arm: func(label string) bool { return strings.HasSuffix(label, "#0") }})
	defer budget.SetFaultPlan(nil)

	journal := filepath.Join(t.TempDir(), "sweep-journal")
	sw, stats, err := SuperviseGraphJS(c, scanner.Options{Workers: 1}, SuperviseOptions{Journal: journal})
	if err != nil {
		t.Fatalf("supervised sweep: %v", err)
	}
	if stats.Completed != 1 {
		t.Fatalf("stats %+v, want the package completed", stats)
	}
	if !sameFindings(sw.Results[0].Findings, plain.Results[0].Findings) {
		t.Errorf("recovered findings differ from baseline")
	}
	entries, _, err := sweepjournal.Load(journal)
	if err != nil {
		t.Fatal(err)
	}
	e := entries[name]
	if len(e.Attempts) != 2 {
		t.Fatalf("attempts %+v, want fault + retry", e.Attempts)
	}
	if e.Attempts[0].Class != string(budget.ClassPanic) {
		t.Errorf("first attempt class %q, want engine-panic", e.Attempts[0].Class)
	}
	for i, a := range e.Attempts {
		if a.Engine != string(scanner.EngineNative) {
			t.Errorf("attempt %d ran on %q, want the configured (default native) engine", i, a.Engine)
		}
	}
}

// TestPersistentTransientQuarantines: a package that dies transiently
// on the retry as well is a real bug — it must be quarantined, and a
// resumed sweep must skip it unless told to requarantine.
func TestPersistentTransientQuarantines(t *testing.T) {
	vul, _ := dataset.GroundTruth(7)
	c := &dataset.Corpus{Name: "one", Packages: vul.Packages[:1]}
	name := c.Packages[0].Name

	// Every attempt faults early (Spread 2), before detection.
	budget.SetFaultPlan(&budget.FaultPlan{Seed: 13, PanicProb: 1, Spread: 2})
	journal := filepath.Join(t.TempDir(), "sweep-journal")
	sup := SuperviseOptions{Journal: journal}
	_, stats, err := SuperviseGraphJS(c, scanner.Options{Workers: 1}, sup)
	if err != nil {
		t.Fatalf("supervised sweep: %v", err)
	}
	if stats.Quarantined != 1 {
		t.Fatalf("stats %+v, want the package quarantined", stats)
	}
	entries, _, err := sweepjournal.Load(journal)
	if err != nil {
		t.Fatal(err)
	}
	e := entries[name]
	if e.State != sweepjournal.StateQuarantined || len(e.Attempts) != 2 {
		t.Fatalf("entry %+v, want quarantined after 2 attempts", e)
	}
	if e.Class != string(budget.ClassPanic) {
		t.Errorf("final class %q, want engine-panic", e.Class)
	}

	// Clear the faults. A resumed sweep skips the quarantined package by
	// default (it stays quarantined without being re-scanned)...
	budget.SetFaultPlan(nil)
	sup.Resume = true
	_, stats, err = SuperviseGraphJS(c, scanner.Options{Workers: 1}, sup)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != 1 || stats.Quarantined != 1 {
		t.Errorf("resume stats %+v, want the quarantined package skipped", stats)
	}

	// ...and -requarantine forces the re-scan, which now completes and
	// supersedes the quarantine row (last entry wins).
	sup.Requarantine = true
	sw, stats, err := SuperviseGraphJS(c, scanner.Options{Workers: 1}, sup)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != 0 || stats.Completed != 1 {
		t.Errorf("requarantine stats %+v, want a fresh completed scan", stats)
	}
	if len(sw.Results[0].Findings) == 0 {
		t.Error("requarantined scan produced no findings")
	}
	entries, _, err = sweepjournal.Load(journal)
	if err != nil {
		t.Fatal(err)
	}
	if e := entries[name]; e.State != sweepjournal.StateComplete {
		t.Errorf("journal state after requarantine %q, want complete", e.State)
	}
}

// TestJournalsDoNotShareEntries: each journal is its own store
// directory, so a resume of a fresh journal finds nothing to resume —
// not another journal's entries, and not its quarantines.
func TestJournalsDoNotShareEntries(t *testing.T) {
	c := superviseCorpus()
	quarantine := map[string]bool{c.Packages[0].Name: true, c.Packages[1].Name: true}
	// Every attempt on the two armed packages faults early (Spread 2),
	// so both end quarantined in journal A.
	budget.SetFaultPlan(&budget.FaultPlan{Seed: 13, PanicProb: 1, Spread: 2,
		Arm: func(label string) bool { return quarantine[strings.SplitN(label, "#", 2)[0]] }})
	defer budget.SetFaultPlan(nil)
	dir := t.TempDir()
	opts := scanner.Options{Workers: 4}
	_, statsA, err := SuperviseGraphJS(c, opts, SuperviseOptions{Journal: filepath.Join(dir, "a")})
	if err != nil {
		t.Fatalf("sweep into journal A: %v", err)
	}
	if statsA.Quarantined != len(quarantine) {
		t.Fatalf("journal A quarantined %d packages, want %d", statsA.Quarantined, len(quarantine))
	}

	budget.SetFaultPlan(nil)
	_, statsB, err := SuperviseGraphJS(c, opts,
		SuperviseOptions{Journal: filepath.Join(dir, "b"), Resume: true})
	if err != nil {
		t.Fatalf("resume of fresh journal B: %v", err)
	}
	if statsB.Resumed != 0 {
		t.Errorf("fresh journal B resumed %d of %d packages, want 0", statsB.Resumed, len(c.Packages))
	}
	if statsB.Quarantined != 0 {
		t.Errorf("fresh journal B skipped %d packages as quarantined, want 0", statsB.Quarantined)
	}
}

// TestResumeSkipsAndRefingerprints: a resume under identical options
// skips every journaled package; changing the options fingerprint (or
// the package contents) forces a re-scan.
func TestResumeSkipsAndRefingerprints(t *testing.T) {
	c := superviseCorpus()
	opts := scanner.Options{Workers: 4}
	journal := filepath.Join(t.TempDir(), "sweep-journal")
	first, _, err := SuperviseGraphJS(c, opts, SuperviseOptions{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}

	sup := SuperviseOptions{Journal: journal, Resume: true}
	resumed, stats, err := SuperviseGraphJS(c, opts, sup)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != len(c.Packages) {
		t.Fatalf("resumed %d of %d packages", stats.Resumed, len(c.Packages))
	}
	for i := range resumed.Results {
		if !sameFindings(resumed.Results[i].Findings, first.Results[i].Findings) {
			t.Errorf("%s: resumed findings differ", c.Packages[i].Name)
		}
		if resumed.Results[i].Failure != first.Results[i].Failure {
			t.Errorf("%s: resumed class %q != %q", c.Packages[i].Name,
				resumed.Results[i].Failure, first.Results[i].Failure)
		}
	}

	// Edited content → different hash → that package (alone) re-scans.
	edited := &dataset.Corpus{Name: c.Name}
	edited.Packages = append(edited.Packages, c.Packages...)
	cp := *edited.Packages[0]
	cp.Source += "\n// edited\n"
	edited.Packages[0] = &cp
	_, stats, err = SuperviseGraphJS(edited, opts, sup)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != len(c.Packages)-1 {
		t.Errorf("resumed %d, want %d (one package edited)", stats.Resumed, len(c.Packages)-1)
	}

	// Different caps → different fingerprint → nothing resumes.
	capped := opts
	capped.MaxSteps = 1 << 20
	_, stats, err = SuperviseGraphJS(c, capped, sup)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != 0 {
		t.Errorf("%d packages resumed across an options change", stats.Resumed)
	}
}

// TestResumeFingerprintsResolvedEngine: the fingerprint names the
// engine a scan runs, not the option's spelling. A journal written
// under the query engine never satisfies a default ("" = native)
// resume, while "" and "native" satisfy each other; the journal's
// attempt history names the engine that ran.
func TestResumeFingerprintsResolvedEngine(t *testing.T) {
	vul, _ := dataset.GroundTruth(42)
	c := &dataset.Corpus{Name: "engines", Packages: vul.Packages[:3]}
	for _, tc := range []struct {
		wrote, resumed scanner.Engine
		wantResumed    int
	}{
		{scanner.EngineQuery, "", 0},
		{"", scanner.EngineNative, len(c.Packages)},
		{scanner.EngineNative, "", len(c.Packages)},
	} {
		journal := filepath.Join(t.TempDir(), "sweep-journal")
		sup := SuperviseOptions{Journal: journal}
		if _, _, err := SuperviseGraphJS(c, scanner.Options{Workers: 1, Engine: tc.wrote}, sup); err != nil {
			t.Fatal(err)
		}
		entries, _, err := sweepjournal.Load(journal)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := scanner.ParseEngine(string(tc.wrote))
		for name, e := range entries {
			if got := e.Attempts[0].Engine; got != string(want) {
				t.Errorf("%q sweep journaled %s as engine %q, want %q", tc.wrote, name, got, want)
			}
		}
		sup.Resume = true
		_, stats, err := SuperviseGraphJS(c, scanner.Options{Workers: 1, Engine: tc.resumed}, sup)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Resumed != tc.wantResumed {
			t.Errorf("journal written under %q, resumed under %q: %d resumed, want %d",
				tc.wrote, tc.resumed, stats.Resumed, tc.wantResumed)
		}
	}
}

// TestSupervisedODGenTerminates: the baseline supervisor drives every
// pathological package to a terminal journal state too, degrading the
// unroll bound and step budget instead of MDG caps.
func TestSupervisedODGenTerminates(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "odgen-journal")
	oopts := odgen.DefaultOptions()
	oopts.Timeout = 20 * time.Second
	oopts.Workers = 2
	_, stats, err := SuperviseODGen(dataset.Pathological(), oopts,
		SuperviseOptions{Journal: journal})
	if err != nil {
		t.Fatalf("supervised baseline sweep: %v", err)
	}
	if got := stats.Completed + stats.Degraded + stats.Quarantined; got != len(dataset.Pathological().Packages) {
		t.Fatalf("stats %+v do not cover the corpus", stats)
	}
	entries, _, err := sweepjournal.Load(journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range dataset.Pathological().Packages {
		e, ok := entries[p.Name]
		if !ok {
			t.Errorf("%s: no journal entry", p.Name)
			continue
		}
		switch e.State {
		case sweepjournal.StateComplete, sweepjournal.StateDegraded, sweepjournal.StateQuarantined:
		default:
			t.Errorf("%s: non-terminal state %q", p.Name, e.State)
		}
		if len(e.Attempts) == 0 {
			t.Errorf("%s: no attempt history", p.Name)
		}
	}
}
