package scanner

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/budget"
	"repro/internal/queries"
)

// The last-scan oracle. A retained state records its last clean scan
// (lastScan); a re-scan whose units, analysis options, config and — in
// tree mode — paths and manifests are the record's reuses the
// partition, the gate's result and the stitched tree detection. Every
// scan below must report what a scan from a fresh state reports, and
// reuse the record exactly when its inputs are the record's.

// lastScanStep is one scan of a case: the files and options, and
// whether the scan must reuse the record. treeDetect is the tree
// detection the scan must show when it reaches detection: "hit"
// (served from the record), "miss" (stitched and detected) or "" (not
// checked).
type lastScanStep struct {
	name       string
	files      []SourceFile
	opts       Options
	hit        bool
	treeDetect string
}

// lastScanSteps is the step script over one input: unchanged
// re-scans, a comment edit (the same lowered programs), A→B→A code
// edits, a config pointer swap, engine switches and a NoReachGate
// toggle; for a tree, a dependency-range edit and an entry-spelling
// edit of its manifests with the .js files unchanged.
func lastScanSteps(files []SourceFile, tree bool) []lastScanStep {
	last := 0
	for i, f := range files {
		if strings.HasSuffix(f.Rel, ".js") {
			last = i
		}
	}
	comment := slices.Clone(files)
	comment[last].Src += "\n// a comment\n"
	edited := slices.Clone(files)
	edited[last].Src += "\nvar lastScanRev = 1;\n"
	cfg := queries.DefaultConfig()
	steps := []lastScanStep{
		{"first", files, Options{}, false, "miss"},
		{"unchanged", files, Options{}, true, "hit"},
		{"comment-edit", comment, Options{}, true, "hit"},
		{"comment-reverted", files, Options{}, true, "hit"},
		{"code-edit", edited, Options{}, false, "miss"},
		{"code-edit-reverted", files, Options{}, false, "miss"},
		{"after-revert", files, Options{}, true, "hit"},
		{"config-swap", files, Options{Config: cfg}, false, "miss"},
		{"same-config", files, Options{Config: cfg}, true, "hit"},
		{"default-config", files, Options{}, false, "miss"},
		{"engine-query", files, Options{Engine: EngineQuery}, true, "miss"},
		{"engine-query-again", files, Options{Engine: EngineQuery}, true, "hit"},
		{"engine-native", files, Options{Engine: EngineNative}, true, "hit"},
		{"no-reach-gate", files, Options{NoReachGate: true}, true, ""},
		{"no-reach-gate-again", files, Options{NoReachGate: true}, true, "hit"},
		{"reach-gate", files, Options{}, true, "hit"},
	}
	if !tree {
		return steps
	}
	for i, f := range files {
		if f.Rel == "package.json" && strings.Contains(f.Src, `": "^`) {
			dep := slices.Clone(files)
			dep[i].Src = strings.Replace(f.Src, `": "^`, `": ">=`, 1)
			steps = append(steps,
				lastScanStep{"dependency-edit", dep, Options{}, false, "miss"},
				lastScanStep{"dependency-edit-again", dep, Options{}, true, "hit"},
				lastScanStep{"dependency-reverted", files, Options{}, false, "miss"})
		}
		if strings.HasSuffix(f.Rel, "/package.json") && strings.Contains(f.Src, `"main": "`) {
			main := slices.Clone(files)
			main[i].Src = strings.Replace(f.Src, `"main": "`, `"main": "./`, 1)
			steps = append(steps,
				lastScanStep{"main-edit " + f.Rel, main, Options{}, false, "miss"},
				lastScanStep{"main-reverted " + f.Rel, files, Options{}, false, "miss"})
		}
	}
	return steps
}

// checkLastScan runs steps through one retained state, then a
// budget-tripped scan of the first step's files through another. It
// returns how many steps reached detection and whether the capped scan
// tripped, so the caller can check neither check was vacuous.
func checkLastScan(t *testing.T, name string, tree bool, steps []lastScanStep) (detected int, tripped bool) {
	t.Helper()
	st := NewIncrementalState()
	for _, s := range steps {
		opts := s.opts
		opts.Tree = tree
		where := fmt.Sprintf("%s: %s", name, s.name)
		prev := st.last.rr
		before := st.Stats()
		opts.Incremental = st
		warm := ScanFiles(s.files, name, opts)
		d := warm.IncrStats.minus(before)

		if hit := prev != nil && st.last.rr == prev; hit != s.hit {
			t.Errorf("%s: reused the last scan = %v, want %v", where, hit, s.hit)
		}
		if !warm.SkippedByReach && st.last.rr == nil {
			t.Errorf("%s: a clean scan left no record", where)
		}
		stitched := slices.Contains(phaseNames(warm), "stitch-link")
		if tree && !warm.SkippedByReach {
			detected++
			got := "hit"
			if stitched {
				got = "miss"
			}
			if wantHits := b2i(!stitched); d.DetectHits != wantHits || d.DetectMisses != 1-wantHits {
				t.Errorf("%s: stitch-link row %v with %d detection hits and %d misses", where, stitched, d.DetectHits, d.DetectMisses)
			}
			if s.treeDetect != "" && got != s.treeDetect {
				t.Errorf("%s: tree detection %s, want %s", where, got, s.treeDetect)
			}
		}

		opts.Incremental = NewIncrementalState()
		fresh := ScanFiles(s.files, name, opts)
		if got, want := cutoffView(t, warm), cutoffView(t, fresh); got != want {
			t.Errorf("%s: report differs from a fresh state's\n  warm:  %s\n  fresh: %s", where, got, want)
		}
	}

	// A budget-tripped scan records nothing: the next clean scan of the
	// same files misses and still reports what a fresh state does.
	files := steps[0].files
	capped := NewIncrementalState()
	tripped = ScanFiles(files, name, Options{Tree: tree, MaxNodes: 9, Incremental: capped}).Failure == budget.ClassBudget
	if tripped {
		if capped.last.rr != nil {
			t.Errorf("%s: a budget-tripped scan left a record", name)
		}
		again := ScanFiles(files, name, Options{Tree: tree, Incremental: capped})
		fresh := ScanFiles(files, name, Options{Tree: tree, Incremental: NewIncrementalState()})
		if got, want := cutoffView(t, again), cutoffView(t, fresh); got != want {
			t.Errorf("%s: scan after a tripped one differs from a fresh state's\n  warm:  %s\n  fresh: %s", name, got, want)
		}
	}
	return detected, tripped
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// mainRedirectTree is a tree whose dependency entry is chosen by its
// manifest alone: main names exec.js (a command-injection sink) or
// safe.js, and the .js files are the same either way.
func mainRedirectTree(main string) []SourceFile {
	return []SourceFile{
		{Rel: "index.js", Src: "var dep = require('dep');\nmodule.exports = function run(x) { dep('git ' + x); };\n"},
		{Rel: "node_modules/dep/exec.js", Src: "const { exec } = require('child_process');\nmodule.exports = function (c) { exec(c); };\n"},
		{Rel: "node_modules/dep/package.json", Src: `{"name": "dep", "version": "1.0.0", "main": "` + main + `"}`},
		{Rel: "node_modules/dep/safe.js", Src: "module.exports = function (c) { return c.length; };\n"},
		{Rel: "package.json", Src: `{"name": "app", "version": "1.0.0", "dependencies": {"dep": "^1.0.0"}}`},
	}
}

// TestLastScanReuseOracle: over the flat inputs of the early-cutoff
// oracle and every dependency tree, each step of lastScanSteps reuses
// the last scan exactly when its inputs are the record's and reports
// what a fresh state reports (findings with provenance and witness
// paths, graph size, failure class); a budget-tripped scan records
// nothing. A main redirect that changes the linked graph with the same
// .js files misses the record.
func TestLastScanReuseOracle(t *testing.T) {
	flat, trees := cutoffInputs()
	if len(flat) < 20 || len(trees) == 0 {
		t.Fatalf("inputs too small: %d flat, %d trees", len(flat), len(trees))
	}
	var detected, tripped int
	for name, files := range flat {
		_, trip := checkLastScan(t, name, false, lastScanSteps(files, false))
		tripped += b2i(trip)
	}
	for name, files := range trees {
		det, trip := checkLastScan(t, name, true, lastScanSteps(files, true))
		detected += det
		tripped += b2i(trip)
	}
	if detected == 0 || tripped == 0 {
		t.Fatalf("%d tree scans reached detection and %d capped scans tripped, want some of each", detected, tripped)
	}

	toExec, toSafe := mainRedirectTree("exec.js"), mainRedirectTree("safe.js")
	a := ScanFiles(toExec, "redirect", Options{Tree: true})
	b := ScanFiles(toSafe, "redirect", Options{Tree: true})
	if cutoffView(t, a) == cutoffView(t, b) {
		t.Fatalf("the main redirect does not change the report: %s", cutoffView(t, a))
	}
	checkLastScan(t, "redirect", true, []lastScanStep{
		{"exec", toExec, Options{}, false, "miss"},
		{"safe", toSafe, Options{}, false, "miss"},
		{"safe-again", toSafe, Options{}, true, "hit"},
		{"exec-again", toExec, Options{}, false, "miss"},
	})

	// A tree that exports nothing is detected in the script attack
	// model; the caller's NoExportFallback keeps the record (the
	// partition and the gate do not depend on it) but not its
	// detection, which is keyed by the fallback bit.
	script := []SourceFile{
		{Rel: "index.js", Src: "var dep = require('dep');\nfunction run(x) { dep.go('git ' + x); }\n"},
		{Rel: "node_modules/dep/index.js", Src: "const { exec } = require('child_process');\nfunction go(c) { exec(c); }\n"},
		{Rel: "node_modules/dep/package.json", Src: `{"name": "dep", "version": "1.0.0"}`},
		{Rel: "package.json", Src: `{"name": "app", "version": "1.0.0", "dependencies": {"dep": "^1.0.0"}}`},
	}
	noFallback := analysis.DefaultOptions()
	noFallback.NoExportFallback = true
	checkLastScan(t, "script", true, []lastScanStep{
		{"fallback", script, Options{}, false, "miss"},
		{"no-fallback", script, Options{Analysis: noFallback}, true, "miss"},
		{"no-fallback-again", script, Options{Analysis: noFallback}, true, "hit"},
		{"fallback-again", script, Options{}, true, "hit"},
	})
	if a, b := ScanFiles(script, "script", Options{Tree: true}), ScanFiles(script, "script", Options{Tree: true, Analysis: noFallback}); len(a.Findings) == len(b.Findings) {
		t.Fatalf("the export fallback does not change the script tree's findings: %d", len(a.Findings))
	}
}

// TestFileHashStreamsTheOldValue: the streamed byte hash is the
// sha256 of rel, a NUL and the source, across the chunk boundary.
func TestFileHashStreamsTheOldValue(t *testing.T) {
	for _, n := range []int{0, 1, 4095, 4096, 4097, 3*4096 + 17} {
		src := strings.Repeat("x", n)
		if got, want := fileHash("lib/a.js", src), sha256.Sum256([]byte("lib/a.js\x00"+src)); got != want {
			t.Errorf("%d-byte source: %x, want %x", n, got, want)
		}
	}
}
