package scanner

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/queries"
)

// reuseCase is one scan of the scratch-reuse oracle.
type reuseCase struct {
	label string
	pkg   *dataset.Package
	opts  Options
}

// reuseOutcome is what a scan must reproduce no matter which scans ran
// before it in the process.
type reuseOutcome struct {
	Findings          []queries.Finding
	MDGNodes          int
	MDGEdges          int
	TruncatedSearches int
	Failure           budget.Class
	Incomplete        bool
}

// detectPanicPkg is the case whose native detection panics.
const detectPanicPkg = "detect-panic"

// reuseCases interleaves the ground truth with the crash corpus, scans
// capped at 5 steps and at 9 nodes (their analyses and detections stop
// mid-build) and one scan that panics inside the detection guard.
func reuseCases() []reuseCase {
	vul, sec := dataset.GroundTruth(1)
	gt := append(slices.Clone(vul.Packages), sec.Packages...)
	path := dataset.Pathological().Packages
	var cs []reuseCase
	for i, p := range gt {
		cs = append(cs, reuseCase{p.Name, p, Options{}})
		switch {
		case i%8 == 3:
			cs = append(cs, reuseCase{p.Name + "/steps5", p, Options{MaxSteps: 5}})
		case i%8 == 7:
			cs = append(cs, reuseCase{p.Name + "/nodes9", p, Options{MaxNodes: 9}})
		}
		if i%100 == 50 && len(path) > 0 {
			cs = append(cs, reuseCase{path[0].Name, path[0], Options{}})
			path = path[1:]
		}
		if i == len(gt)/2 {
			panicPkg := *p
			panicPkg.Name = detectPanicPkg
			cs = append(cs, reuseCase{detectPanicPkg, &panicPkg, Options{}})
		}
	}
	for _, p := range path {
		cs = append(cs, reuseCase{p.Name, p, Options{}})
	}
	return cs
}

// runReuseCase scans one case. The detect-panic case's native
// detection arms the process fault plan for its own budget and hits a
// checkpoint, so the plan's injected panic fires inside the detection
// guard; the plan is cleared again as the panic unwinds.
func runReuseCase(c reuseCase) reuseOutcome {
	rep := scanAliasPkg(c.pkg, c.opts)
	return reuseOutcome{
		Findings:          rep.Findings,
		MDGNodes:          rep.MDGNodes,
		MDGEdges:          rep.MDGEdges,
		TruncatedSearches: rep.TruncatedSearches,
		Failure:           rep.Failure,
		Incomplete:        rep.Incomplete,
	}
}

func panicInDetection(name string, b *budget.Budget) {
	if name != detectPanicPkg {
		return
	}
	budget.SetFaultPlan(&budget.FaultPlan{Seed: 1, PanicProb: 1, Spread: 1,
		Arm: func(label string) bool { return label == detectPanicPkg }})
	defer budget.SetFaultPlan(nil)
	_ = b.CheckDeadline() // the budget's first armed checkpoint: the injected panic
}

// TestScratchReuseMatchesFresh is the reuse-leak oracle for the pooled
// per-layer scratch (parser tokens, export pass, MDG build, native
// detection): interleaved scans — plain, capped, crash-corpus and one
// that panics in detection — run forward, then in reverse, then on
// GOMAXPROCS workers, and every report's findings (provenance and
// witness paths included), graph sizes and truncation count must equal
// a first pass in a fresh process, whatever scratch earlier scans left
// in the pools.
func TestScratchReuseMatchesFresh(t *testing.T) {
	testHookNative = panicInDetection
	defer func() { testHookNative = nil }()
	cases := reuseCases()
	if out := os.Getenv("SCRATCH_REUSE_FRESH_OUT"); out != "" {
		// The fresh process: one forward pass, written for the parent.
		fresh := make([]reuseOutcome, len(cases))
		for i, c := range cases {
			fresh[i] = runReuseCase(c)
		}
		data, err := json.Marshal(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	out := filepath.Join(t.TempDir(), "fresh.json")
	cmd := exec.Command(os.Args[0], "-test.run=^TestScratchReuseMatchesFresh$", "-test.count=1")
	cmd.Env = append(os.Environ(), "SCRATCH_REUSE_FRESH_OUT="+out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fresh-process pass: %v\n%s", err, msg)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var fresh []reuseOutcome
	if err := json.Unmarshal(data, &fresh); err != nil {
		t.Fatal(err)
	}
	if len(fresh) != len(cases) {
		t.Fatalf("fresh pass has %d outcomes for %d cases", len(fresh), len(cases))
	}
	want := make([][]byte, len(cases))
	for i := range fresh {
		want[i], _ = json.Marshal(fresh[i])
	}
	if p := slices.IndexFunc(cases, func(c reuseCase) bool { return c.label == detectPanicPkg }); fresh[p].Failure != budget.ClassPanic {
		t.Fatalf("%s: failure %q, want a detection panic", detectPanicPkg, fresh[p].Failure)
	}

	check := func(pass string, i int, got reuseOutcome) {
		b, _ := json.Marshal(got)
		if string(b) != string(want[i]) {
			t.Errorf("%s pass, %s: differs from the fresh process\n got %s\nwant %s", pass, cases[i].label, b, want[i])
		}
	}
	for i, c := range cases {
		check("forward", i, runReuseCase(c))
	}
	for i := len(cases) - 1; i >= 0; i-- {
		check("reverse", i, runReuseCase(cases[i]))
	}
	workers := runtime.GOMAXPROCS(0)
	got := make([]reuseOutcome, len(cases))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				got[i] = runReuseCase(cases[i])
			}
		}()
	}
	for i := range cases {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i := range cases {
		check(fmt.Sprintf("%d-worker", workers), i, got[i])
	}
}
