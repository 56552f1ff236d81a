package scanner

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/queries"
)

// reuseCase is one case of the scratch-reuse oracle: a scan, or a
// sequence of scans against a state of the case's own, so a case's
// outcome does not depend on which cases ran before it.
type reuseCase struct {
	label string
	run   func() []*Report
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

// scanCase is one cold scan of p.
func scanCase(label string, p *dataset.Package, opts Options) reuseCase {
	return reuseCase{label, func() []*Report { return []*Report{scanAliasPkg(p, opts)} }}
}

// packageFiles is p's file set as the metrics harness scans it: a
// one-file package's file is named after the package, a multi-file
// package's main file is index.js.
func packageFiles(p *dataset.Package) []SourceFile {
	if len(p.Extra) == 0 {
		return []SourceFile{{Rel: p.Name, Src: p.Source}}
	}
	files := []SourceFile{{Rel: "index.js", Src: p.Source}}
	for rel, src := range p.Extra {
		files = append(files, SourceFile{Rel: rel, Src: src})
	}
	slices.SortFunc(files, func(a, b SourceFile) int { return strings.Compare(a.Rel, b.Rel) })
	return files
}

// editFile returns files with a statement appended to the file at i.
func editFile(files []SourceFile, i int) []SourceFile {
	out := slices.Clone(files)
	out[i].Src += "\nvar reuseEdit = [1];\n"
	return out
}

// stateCase scans each file set in turn against one retained state:
// cold builds, rebuilds of edited components, cached fragments and
// cached detections, every graph released at its scan's end.
func stateCase(label, name string, opts Options, steps ...[]SourceFile) reuseCase {
	return reuseCase{label, func() []*Report {
		opts := opts
		opts.Incremental = NewIncrementalState()
		reps := make([]*Report, len(steps))
		for i, files := range steps {
			reps[i] = ScanFiles(files, name, opts)
		}
		return reps
	}}
}

// editCase drives a retained state through one-file edits of p: its
// first file edited, the edit reverted, and an unchanged re-scan.
func editCase(p *dataset.Package) reuseCase {
	files := packageFiles(p)
	return stateCase(p.Name+"/edits", p.Name, Options{}, files, editFile(files, 0), files, files)
}

// treeCases scans a dependency tree cold, and warm: a first scan, a
// fully cached re-scan, an edit of its last dependency file (one
// package rebuilt, the rest stitched from cache) and its revert.
func treeCases(tc dataset.TreeCase) []reuseCase {
	files := treeSources(tc.Files)
	last := 0 // files sort root files first, node_modules after them
	for i, f := range files {
		if strings.HasSuffix(f.Rel, ".js") {
			last = i
		}
	}
	opts := Options{Tree: true}
	return []reuseCase{
		{tc.Name + "/tree-cold", func() []*Report { return []*Report{ScanFiles(files, tc.Name, opts)} }},
		stateCase(tc.Name+"/tree-warm", tc.Name, opts, files, files, editFile(files, last), files),
	}
}

// fallbackFlipCase rehydrates a cached fragment under a changed export
// fallback: vuln.js is detected in the script attack model while no
// file exports; once a.js exports, vuln.js's cached fragment is
// rehydrated and detected without the fallback, and reverting a.js
// serves the first detection from cache again.
func fallbackFlipCase() reuseCase {
	vuln := SourceFile{Rel: "vuln.js", Src: "const { exec } = require('child_process');\nfunction run(c) { exec('echo ' + c); }\n"}
	noExport := []SourceFile{{Rel: "a.js", Src: "function fa(x) { return x; }\n"}, vuln}
	withExport := []SourceFile{{Rel: "a.js", Src: "const cp = require('child_process');\n" +
		"function fa(x) { cp.exec('ls ' + x); }\nmodule.exports = fa;\n"}, vuln}
	return stateCase("fallback-flip", "fallback-flip", Options{NoReachGate: true},
		noExport, withExport, noExport, withExport)
}

// reuseCases interleaves the ground truth with the crash corpus, scans
// capped at 5 steps and at 9 nodes (their analyses and detections stop
// mid-build), one scan that panics inside the detection guard, and
// every graph-release path: retained states driven through one-file
// edits, dependency trees scanned warm and cold, a cached fragment
// rehydrated under a changed export fallback, and the differential
// engine.
func reuseCases() []reuseCase {
	vul, sec := dataset.GroundTruth(1)
	gt := append(slices.Clone(vul.Packages), sec.Packages...)
	path := dataset.Pathological().Packages
	trees := dataset.TreeCases()
	var cs []reuseCase
	for i, p := range gt {
		cs = append(cs, scanCase(p.Name, p, Options{}))
		switch {
		case i%8 == 3:
			cs = append(cs, scanCase(p.Name+"/steps5", p, Options{MaxSteps: 5}))
		case i%8 == 7:
			cs = append(cs, scanCase(p.Name+"/nodes9", p, Options{MaxNodes: 9}))
		case i%16 == 1:
			cs = append(cs, scanCase(p.Name+"/differential", p, Options{Engine: EngineDifferential}))
		case i%40 == 5:
			cs = append(cs, editCase(p))
		}
		if i%100 == 50 && len(path) > 0 {
			cs = append(cs, scanCase(path[0].Name, path[0], Options{}))
			path = path[1:]
		}
		if i%60 == 30 && len(trees) > 0 {
			cs = append(cs, treeCases(trees[0])...)
			trees = trees[1:]
		}
		if i == len(gt)/2 {
			panicPkg := *p
			panicPkg.Name = detectPanicPkg
			cs = append(cs, scanCase(detectPanicPkg, &panicPkg, Options{}))
		}
		if i == len(gt)/3 {
			cs = append(cs, fallbackFlipCase())
		}
	}
	for _, p := range path {
		cs = append(cs, scanCase(p.Name, p, Options{}))
	}
	for _, tc := range trees {
		cs = append(cs, treeCases(tc)...)
	}
	return cs
}

// runReuseCase runs one case. The detect-panic case's native detection
// arms the process fault plan for its own budget and hits a
// checkpoint, so the plan's injected panic fires inside the detection
// guard; the plan is cleared again as the panic unwinds.
func runReuseCase(c reuseCase) []reuseOutcome {
	var out []reuseOutcome
	for _, rep := range c.run() {
		out = append(out, reuseOutcome{
			Findings:          rep.Findings,
			MDGNodes:          rep.MDGNodes,
			MDGEdges:          rep.MDGEdges,
			TruncatedSearches: rep.TruncatedSearches,
			Failure:           rep.Failure,
			Incomplete:        rep.Incomplete,
		})
	}
	return out
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
// detection) and the recycled graphs: interleaved cases (see
// reuseCases) run in a shuffled order, then forward, then in reverse,
// then on GOMAXPROCS workers, and every report's findings (provenance
// and witness paths included), graph sizes and truncation count must
// equal a first pass in a fresh process, whatever scratch and graphs
// earlier scans left in the pools. The shuffled pass is what makes the
// forward one count: without it the forward pass would start from empty
// pools in the fresh process's order and see exactly its graphs.
func TestScratchReuseMatchesFresh(t *testing.T) {
	testHookNative = panicInDetection
	defer func() { testHookNative = nil }()
	cases := reuseCases()
	if out := os.Getenv("SCRATCH_REUSE_FRESH_OUT"); out != "" {
		// The fresh process: one forward pass, written for the parent.
		fresh := make([][]reuseOutcome, len(cases))
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
	var fresh [][]reuseOutcome
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
	if p := slices.IndexFunc(cases, func(c reuseCase) bool { return c.label == detectPanicPkg }); fresh[p][0].Failure != budget.ClassPanic {
		t.Fatalf("%s: failure %q, want a detection panic", detectPanicPkg, fresh[p][0].Failure)
	}

	check := func(pass string, i int, got []reuseOutcome) {
		b, _ := json.Marshal(got)
		if string(b) != string(want[i]) {
			t.Errorf("%s pass, %s: differs from the fresh process\n got %s\nwant %s", pass, cases[i].label, b, want[i])
		}
	}
	for _, i := range rand.New(rand.NewSource(1)).Perm(len(cases)) {
		check("shuffled", i, runReuseCase(cases[i]))
	}
	for i, c := range cases {
		check("forward", i, runReuseCase(c))
	}
	for i := len(cases) - 1; i >= 0; i-- {
		check("reverse", i, runReuseCase(cases[i]))
	}
	workers := runtime.GOMAXPROCS(0)
	got := make([][]reuseOutcome, len(cases))
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
