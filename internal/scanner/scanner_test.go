package scanner

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/queries"
)

const gitResetSrc = `
const { exec } = require('child_process');
function git_reset(config, op, branch_name, url) {
	var options = config[op];
	options[branch_name] = url;
	options.cmd = 'git reset HEAD~';
	exec(options.cmd + options.commit);
}
module.exports = git_reset;
`

func TestScanSourceEndToEnd(t *testing.T) {
	rep := ScanSource(gitResetSrc, "git_reset.js", Options{})
	if rep.Err != nil {
		t.Fatalf("err: %v", rep.Err)
	}
	if rep.Failure != budget.ClassNone {
		t.Fatalf("unexpected failure class %q", rep.Failure)
	}
	var cwes []queries.CWE
	for _, f := range rep.Findings {
		cwes = append(cwes, f.CWE)
	}
	hasCI, hasPP := false, false
	for _, c := range cwes {
		if c == queries.CWECommandInjection {
			hasCI = true
		}
		if c == queries.CWEPrototypePollution {
			hasPP = true
		}
	}
	if !hasCI || !hasPP {
		t.Fatalf("findings = %v", rep.Findings)
	}
}

func TestScanMetrics(t *testing.T) {
	rep := ScanSource(gitResetSrc, "git_reset.js", Options{})
	if rep.LoC < 8 {
		t.Errorf("LoC = %d", rep.LoC)
	}
	if rep.MDGNodes <= 0 || rep.MDGEdges <= 0 {
		t.Errorf("metrics: %+v", rep)
	}
	if graph, _ := budget.SplitTime(rep.Phases); graph <= 0 {
		t.Error("graph time not measured")
	}
}

func TestScanParseError(t *testing.T) {
	rep := ScanSource("var = broken", "bad.js", Options{})
	if rep.Err == nil {
		t.Fatal("expected parse error")
	}
}

// TestScanTimeoutViaStepBudget: a step cap small enough to trip in the
// front end ends the scan there — classified as budget exhaustion, no
// findings, and the exhausted phase named.
func TestScanTimeoutViaStepBudget(t *testing.T) {
	rep := ScanSource(gitResetSrc, "t.js", Options{MaxSteps: 2})
	if rep.Failure != budget.ClassBudget || !rep.Incomplete {
		t.Fatalf("failure=%q incomplete=%v, want a budget-exceeded incomplete scan", rep.Failure, rep.Incomplete)
	}
	if len(rep.Findings) != 0 {
		t.Fatal("a scan capped in the front end must not report findings")
	}
	if rep.ExhaustedPhase != "front-end" {
		t.Errorf("exhausted phase %q, want front-end", rep.ExhaustedPhase)
	}
}

func TestScanPackageDir(t *testing.T) {
	dir := t.TempDir()
	mustWrite(t, filepath.Join(dir, "index.js"), gitResetSrc)
	mustWrite(t, filepath.Join(dir, "util.js"), "function id(x) { return x; }\nmodule.exports = id;\n")
	// node_modules must be skipped.
	sub := filepath.Join(dir, "node_modules", "dep")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, filepath.Join(sub, "evil.js"), "function e(a) { eval(a); }\nmodule.exports = e;\n")

	rep := ScanPackage(dir, Options{})
	if rep.Err != nil {
		t.Fatalf("err: %v", rep.Err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("no findings in package scan")
	}
	for _, f := range rep.Findings {
		if f.CWE == queries.CWECodeInjection {
			t.Fatal("node_modules must be excluded")
		}
	}
	if rep.LoC < 10 {
		t.Errorf("merged LoC = %d", rep.LoC)
	}
}

func TestScanWallClockTimeout(t *testing.T) {
	rep := ScanSource(gitResetSrc, "t.js", Options{Timeout: time.Nanosecond})
	if rep.Failure != budget.ClassTimeout {
		t.Fatalf("failure class %q, want a wall-clock timeout", rep.Failure)
	}
}

func TestBenignPackageClean(t *testing.T) {
	rep := ScanSource(`
function add(a, b) { return a + b; }
module.exports = add;
`, "add.js", Options{})
	if len(rep.Findings) != 0 {
		t.Fatalf("benign package flagged: %v", rep.Findings)
	}
}

func mustWrite(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestScanPackageCrossFile: a vulnerability whose source and sink live
// in different files of the same package must be found via the
// combined multi-module MDG.
func TestScanPackageCrossFile(t *testing.T) {
	dir := t.TempDir()
	mustWrite(t, filepath.Join(dir, "runner.js"), `
const { exec } = require('child_process');
function shellRun(c) { exec(c); }
module.exports = shellRun;
`)
	mustWrite(t, filepath.Join(dir, "index.js"), `
var run = require('./runner');
function entry(input) { run('git clone ' + input); }
module.exports = entry;
`)
	rep := ScanPackage(dir, Options{})
	if rep.Err != nil {
		t.Fatalf("err: %v", rep.Err)
	}
	var found *queries.Finding
	for i := range rep.Findings {
		if rep.Findings[i].CWE == queries.CWECommandInjection {
			found = &rep.Findings[i]
		}
	}
	if found == nil {
		t.Fatalf("cross-file command injection missed: %v", rep.Findings)
	}
	if found.SinkFile != "runner.js" {
		t.Errorf("sink file = %q, want runner.js", found.SinkFile)
	}
	if found.SinkLine != 3 {
		t.Errorf("sink line = %d, want 3", found.SinkLine)
	}
}

// TestScanRealisticFile scans a larger npm-style file end-to-end: the
// quoting helper is not a configured sanitizer, so the checkout flow is
// reported (over-approximation), while unrelated machinery stays quiet.
func TestScanRealisticFile(t *testing.T) {
	src := `
'use strict';
const { exec, spawn } = require('child_process');
const fs = require('fs');

const helpers = {
	quote(s) { return "'" + String(s) + "'"; },
};

class Repo {
	constructor(dir) { this.dir = dir; }
	status(cb) { exec('git status', cb); }
}

function checkout(branch, done) {
	exec('git checkout ' + helpers.quote(branch), done);
}

function logos(cb) {
	fs.readFile('./assets/logo.png', cb);
}

module.exports = { checkout, logos, Repo };
`
	rep := ScanSource(src, "repo.js", Options{})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	var ci, pt int
	for _, f := range rep.Findings {
		switch f.CWE {
		case queries.CWECommandInjection:
			ci++
		case queries.CWEPathTraversal:
			pt++
		}
	}
	if ci == 0 {
		t.Fatalf("checkout flow must be reported: %v", rep.Findings)
	}
	if pt != 0 {
		t.Fatalf("constant readFile must not be flagged: %v", rep.Findings)
	}
}

// TestScanRealisticWithSanitizer: declaring the quote helper as a
// sanitizer suppresses the report (§6).
func TestScanRealisticWithSanitizer(t *testing.T) {
	src := `
const { exec } = require('child_process');
function quote(s) { return "'" + String(s) + "'"; }
function checkout(branch, done) {
	exec('git checkout ' + quote(branch), done);
}
module.exports = checkout;
`
	cfg := queries.DefaultConfig()
	cfg.Sanitizers = []string{"quote"}
	rep := ScanSource(src, "repo.js", Options{Config: cfg})
	for _, f := range rep.Findings {
		if f.CWE == queries.CWECommandInjection {
			t.Fatalf("sanitized flow reported: %v", f)
		}
	}
}

// TestCacheCompositionality: re-scanning after editing one file re-runs
// the front end only for that file (§2's compositionality).
func TestCacheCompositionality(t *testing.T) {
	dir := t.TempDir()
	mustWrite(t, filepath.Join(dir, "a.js"), "function fa(x) { return x; }\nmodule.exports = fa;\n")
	mustWrite(t, filepath.Join(dir, "b.js"), "function fb(y) { return y; }\nmodule.exports = fb;\n")
	mustWrite(t, filepath.Join(dir, "c.js"), gitResetSrc)

	st := NewIncrementalState()
	opts := Options{Incremental: st}
	frontEnd := func() (hits, misses int) {
		s := st.Stats()
		return s.FrontEndHits, s.FrontEndMisses
	}

	rep1 := ScanPackage(dir, opts)
	if rep1.Err != nil {
		t.Fatal(rep1.Err)
	}
	hits, misses := frontEnd()
	if hits != 0 || misses != 3 {
		t.Fatalf("first scan: hits=%d misses=%d", hits, misses)
	}

	// Unchanged re-scan: all hits.
	rep2 := ScanPackage(dir, opts)
	hits, misses = frontEnd()
	if hits != 3 || misses != 3 {
		t.Fatalf("second scan: hits=%d misses=%d", hits, misses)
	}
	if len(rep2.Findings) != len(rep1.Findings) {
		t.Fatal("cached scan changed the findings")
	}

	// Edit one file: exactly one extra miss.
	mustWrite(t, filepath.Join(dir, "b.js"), "function fb(y) { return y + 1; }\nmodule.exports = fb;\n")
	rep3 := ScanPackage(dir, opts)
	hits, misses = frontEnd()
	if hits != 5 || misses != 4 {
		t.Fatalf("third scan: hits=%d misses=%d", hits, misses)
	}
	if len(rep3.Findings) != len(rep1.Findings) {
		t.Fatal("edit changed unrelated findings")
	}
}

// stripEffort clears what legitimately differs between a cold and a
// warm report of the same input, so the rest can be compared byte for
// byte: phase usage measures effort, not outcome (a warm cache hit
// spends zero front-end steps), and only a retained state reports its
// cache counters.
func stripEffort(rep *Report) {
	rep.Phases = nil
	rep.IncrStats = nil
}

// TestCachedScanEqualsUncached: warm state must be observationally
// transparent. Table-driven over every dataset template (all CWEs
// crossed with every behavioural class) plus the pathological crash
// corpus under deterministic step caps: a scan through a retained
// incremental state must be byte-identical to a cold one (phases and
// cache counters aside) — first scan and, when no budget is involved,
// warm re-scan — and the pool's front-end counters must grow
// monotonically.
func TestCachedScanEqualsUncached(t *testing.T) {
	type testCase struct {
		name string
		src  string
		opts Options
	}
	var cases []testCase
	g := dataset.NewGenForTest(9)
	for _, cwe := range queries.AllCWEs {
		for _, class := range differentialClasses {
			p := dataset.RenderForTest(g, cwe, class)
			cases = append(cases, testCase{p.Name, p.Source, Options{}})
		}
	}
	for _, p := range dataset.Pathological().Packages {
		// Deterministic caps, not wall clock: both runs trip (or not)
		// at exactly the same abstract step.
		cases = append(cases, testCase{p.Name, p.Source, Options{MaxSteps: 100000}})
	}

	pool := NewStatePool()
	prevHits, prevMisses := 0, 0
	for _, tc := range cases {
		files := []SourceFile{{Rel: "index.js", Src: tc.src}}
		plain := ScanFiles(files, tc.name, tc.opts)
		wopts := tc.opts
		wopts.Incremental = pool.Get(tc.name)
		warm := ScanFiles(files, tc.name, wopts)
		if warm.IncrStats == nil || plain.IncrStats != nil {
			t.Fatalf("%s: incremental stats on the wrong report: cold=%v warm=%v", tc.name, plain.IncrStats, warm.IncrStats)
		}
		stripEffort(plain)
		stripEffort(warm)
		if !reflect.DeepEqual(plain, warm) {
			t.Errorf("%s: warm-state report differs from cold:\n%+v\nvs\n%+v", tc.name, warm, plain)
		}
		s := pool.Stats()
		if s.FrontEndHits < prevHits || s.FrontEndMisses < prevMisses {
			t.Fatalf("%s: front-end stats not monotone: %d/%d after %d/%d", tc.name, s.FrontEndHits, s.FrontEndMisses, prevHits, prevMisses)
		}
		prevHits, prevMisses = s.FrontEndHits, s.FrontEndMisses

		// A warm re-scan must hit and, when no budget is involved,
		// still produce the identical report.
		if tc.opts.MaxSteps == 0 {
			again := ScanFiles(files, tc.name, wopts)
			stripEffort(again)
			if !reflect.DeepEqual(plain, again) {
				t.Errorf("%s: warm re-scan report differs:\n%+v\nvs\n%+v", tc.name, again, plain)
			}
			hits2 := pool.Stats().FrontEndHits
			if hits2 <= prevHits {
				t.Errorf("%s: warm re-scan did not hit the front-end cache", tc.name)
			}
			prevHits = hits2
		}
	}
}

func TestContentHash(t *testing.T) {
	set := func(kv ...string) []SourceFile {
		var fs []SourceFile
		for i := 0; i < len(kv); i += 2 {
			fs = append(fs, SourceFile{Rel: kv[i], Src: kv[i+1]})
		}
		return fs
	}
	a := ContentHash(set("a.js", "x", "b.js", "y"))
	if a != ContentHash(set("a.js", "x", "b.js", "y")) {
		t.Error("hash is not a function of the file set")
	}
	for name, other := range map[string][]SourceFile{
		"content edit":                  set("a.js", "x", "b.js", "z"),
		"file deletion":                 set("a.js", "x"),
		"rename":                        set("a.js", "x", "c.js", "y"),
		"path/content boundary":         set("a.js", "xb", ".js", "y"),
		"file boundary between two Src": set("a.js", "xy"),
	} {
		if a == ContentHash(other) {
			t.Errorf("%s not reflected in hash", name)
		}
	}
}

// TestPackageFilesRootName: the walker's skip rules apply below the
// target only. A package directory named like a skipped one (test,
// tests, .git, or node_modules outside tree mode) is still read.
func TestPackageFilesRootName(t *testing.T) {
	for _, root := range []string{"test", "tests", ".git", "node_modules"} {
		dir := filepath.Join(t.TempDir(), root)
		mustWrite(t, filepath.Join(dir, "index.js"), gitResetSrc)
		mustWrite(t, filepath.Join(dir, "test", "spec.js"), "module.exports = 1;\n")
		set, err := PackageFiles(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(set.Files) != 1 || set.Files[0].Rel != "index.js" {
			t.Errorf("%s: files %v, want just index.js (the nested test dir skipped)", root, set.Files)
		}
		if rep := ScanPackage(dir, Options{}); len(rep.Findings) == 0 {
			t.Errorf("%s: a package named %s scans as empty", root, root)
		}
	}
}

// TestPackageFilesFile: a file target is one SourceFile named by the
// path given, and never a tree.
func TestPackageFilesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "git_reset.js")
	mustWrite(t, path, gitResetSrc)
	set, err := PackageFiles(path, true)
	if err != nil {
		t.Fatal(err)
	}
	want := FileSet{Path: path, Files: []SourceFile{{Rel: path, Src: gitResetSrc}}}
	if !reflect.DeepEqual(set, want) {
		t.Errorf("file set %+v, want %+v", set, want)
	}
	if _, err := PackageFiles(filepath.Join(t.TempDir(), "missing.js"), false); err == nil {
		t.Error("a missing target reads without error")
	}
}
