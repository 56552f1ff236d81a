package reach

import (
	"testing"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/js/normalize"
	"repro/internal/queries"
)

func progs(t *testing.T, srcs map[string]string) []*core.Program {
	t.Helper()
	var out []*core.Program
	for name, src := range srcs {
		p, err := normalize.File(src, name)
		if err != nil {
			t.Fatalf("normalize %s: %v", name, err)
		}
		out = append(out, p)
	}
	return out
}

func analyzeOne(t *testing.T, src string) *Result {
	t.Helper()
	return Analyze(progs(t, map[string]string{"index.js": src}), queries.DefaultConfig())
}

func TestDeadFunctionPruned(t *testing.T) {
	r := analyzeOne(t, `
const { exec } = require('child_process');
function used(c) { exec(c); }
function dead(x) { return x + 1; }
function deadCaller() { dead(2); }
module.exports = used;
`)
	if r.TotalFuncs != 3 {
		t.Fatalf("total = %d", r.TotalFuncs)
	}
	if r.PrunedFuncs != 2 {
		t.Errorf("pruned = %d, want 2 (dead + deadCaller)", r.PrunedFuncs)
	}
	if !r.SinkReachable || r.CanSkipDetection() {
		t.Errorf("exported sink must keep detection: %+v", r)
	}
}

func TestCallChainKeptAlive(t *testing.T) {
	r := analyzeOne(t, `
const { exec } = require('child_process');
function helper(c) { exec(c); }
function entry(y) { helper(y); }
module.exports = entry;
`)
	if r.PrunedFuncs != 0 {
		t.Errorf("transitively called helper pruned: %+v", r)
	}
	if !r.SinkReachable {
		t.Error("sink in callee must be reachable")
	}
}

func TestSinkInDeadCodeSkipped(t *testing.T) {
	r := analyzeOne(t, `
const { exec } = require('child_process');
function dead(c) { exec(c); }
function benign(a) { return a + 1; }
module.exports = benign;
`)
	if r.PrunedFuncs != 1 {
		t.Errorf("pruned = %d", r.PrunedFuncs)
	}
	if r.SinkReachable {
		t.Error("sink only in dead code must not be reachable")
	}
	if !r.CanSkipDetection() {
		t.Error("benign export with dead sink must be skippable")
	}
}

// TestFallbackNoExports mirrors the analyzer's attack model: with no
// export evidence every function is treated as a root, so a sink in an
// otherwise-unreferenced function stays in scope.
func TestFallbackNoExports(t *testing.T) {
	r := analyzeOne(t, `
const { exec } = require('child_process');
function anywhere(c) { exec(c); }
`)
	if !r.Fallback {
		t.Error("script without exports must fall back to all-roots")
	}
	if r.PrunedFuncs != 0 || !r.SinkReachable || r.CanSkipDetection() {
		t.Errorf("fallback must keep everything: %+v", r)
	}
}

func TestBenignSkippable(t *testing.T) {
	r := analyzeOne(t, `
function add(a, b) { return a + b; }
module.exports = add;
`)
	if !r.CanSkipDetection() {
		t.Errorf("pure arithmetic package must be skippable: %+v", r)
	}
}

func TestNoSourcesSkippable(t *testing.T) {
	r := analyzeOne(t, `
const { exec } = require('child_process');
function status() { exec('git status'); }
module.exports = status;
`)
	if r.HasSources {
		t.Error("parameterless API has no taint sources")
	}
	if !r.CanSkipDetection() {
		t.Error("no sources -> skippable even with a sink present")
	}
}

func TestPollutionShapesKeepDetection(t *testing.T) {
	dyn := analyzeOne(t, `
function set(obj, key, value) { obj[key] = value; }
module.exports = set;
`)
	if !dyn.PollutionPossible || dyn.CanSkipDetection() {
		t.Errorf("dynamic update must keep detection: %+v", dyn)
	}
	lit := analyzeOne(t, `
function poison(v) {
	var o = {};
	o.__proto__.polluted = v;
	return o;
}
module.exports = poison;
`)
	if !lit.PollutionPossible || lit.CanSkipDetection() {
		t.Errorf("literal __proto__ must keep detection: %+v", lit)
	}
}

func TestCallbackReferenceIsRoot(t *testing.T) {
	r := analyzeOne(t, `
const { exec } = require('child_process');
function cb(c) { exec(c); }
function entry(x) { dispatch(x, cb); }
module.exports = entry;
`)
	if r.Reachable["index.js:cb"] != true {
		t.Error("function passed as argument must be a root")
	}
	if !r.SinkReachable {
		t.Error("callback sink must stay reachable")
	}
}

func TestCrossFileCalls(t *testing.T) {
	r := Analyze(progs(t, map[string]string{
		"index.js": `
var run = require('./runner');
module.exports = function main(c) { return run(c); };
`,
		"runner.js": `
const { exec } = require('child_process');
function runner(c) { exec(c); }
module.exports = runner;
`,
	}), queries.DefaultConfig())
	if r.SinkReachable != true {
		t.Errorf("cross-file exported sink must be reachable: %+v", r)
	}
	if r.CanSkipDetection() {
		t.Error("must not skip")
	}
}

func TestNilConfig(t *testing.T) {
	r := Analyze(progs(t, map[string]string{"a.js": "module.exports = 1;"}), nil)
	if r.TotalFuncs != 0 || !r.CanSkipDetection() {
		t.Errorf("trivial module: %+v", r)
	}
}

// --- export-graph gate: uniform qualification and alias precision ---

func TestUniformFileQualification(t *testing.T) {
	// Single- and multi-file packages must key Reachable identically:
	// always "file:name". A same-named function in a second file must
	// not ride along on the exported one's name.
	single := analyzeOne(t, `
function run(c) { return c; }
module.exports = run;
`)
	if !single.Reachable["index.js:run"] {
		t.Fatalf("single-file keys must be file-qualified: %+v", single.Reachable)
	}
	for q := range single.Reachable {
		if q == "run" {
			t.Fatal("bare (unqualified) function name leaked into Reachable")
		}
	}

	multi := Analyze(progs(t, map[string]string{
		"index.js": `
function run(c) { return c; }
module.exports = run;
`,
		"other.js": `
const { exec } = require('child_process');
function run(c) { exec(c); }
`,
	}), queries.DefaultConfig())
	if !multi.Reachable["index.js:run"] {
		t.Fatal("exported index.js:run must be reachable")
	}
	if multi.Reachable["other.js:run"] {
		t.Error("same-named dead function in another file must not inherit reachability")
	}
	if multi.PrunedFuncs != 1 {
		t.Errorf("pruned = %d, want 1 (other.js:run)", multi.PrunedFuncs)
	}
}

func TestDeadShadowPrunedByExportGraph(t *testing.T) {
	// A vulnerable-looking function shadowed by a benign export of a
	// different function: the by-name gate kept it alive (its name is
	// referenced), the export graph prunes it.
	r := analyzeOne(t, `
const { exec } = require('child_process');
function attack(c) { exec(c); }
function safe(x) { return x; }
var table = { unused: attack };
module.exports = safe;
`)
	if r.Fallback {
		t.Fatalf("export evidence present: %+v", r)
	}
	if r.Reachable["index.js:attack"] {
		t.Error("attack is stored but never exported nor called; must be pruned")
	}
	if r.PrunedFuncs != 1 {
		t.Errorf("pruned = %d, want 1", r.PrunedFuncs)
	}
	if !r.CanSkipDetection() {
		t.Errorf("benign export with dead sink must be skippable: %+v", r)
	}
}

func TestAliasedExportKeepsMethod(t *testing.T) {
	r := analyzeOne(t, `
const { exec } = require('child_process');
function fire(c) { exec(c); }
var api = module.exports;
api.fire = fire;
`)
	if r.Fallback {
		t.Fatalf("aliased export must count as evidence: %+v", r)
	}
	if !r.Reachable["index.js:fire"] || !r.SinkReachable || r.CanSkipDetection() {
		t.Errorf("aliased exported sink must keep detection: %+v", r)
	}
}

func TestExportCounters(t *testing.T) {
	r := analyzeOne(t, `
function a(x) { return x; }
function b(y) { return y; }
module.exports = { a: a, b: b };
`)
	if r.ExportCount != 2 {
		t.Errorf("ExportCount = %d, want 2", r.ExportCount)
	}
	if !r.Converged {
		t.Error("tiny package must converge")
	}
	if r.Exports == nil {
		t.Fatal("Result must carry the export graph for provenance")
	}
	if entry, _, _ := r.Exports.PathTo("index.js", 2); entry != "exports.a" {
		t.Errorf("entry name = %q", entry)
	}
}

func TestBudgetAbortKeepsEverything(t *testing.T) {
	b := budget.New(budget.Limits{MaxSteps: 2})
	r := AnalyzeBudget(progs(t, map[string]string{"index.js": `
function a(x) { return x; }
function dead(y) { return y; }
module.exports = a;
`}), queries.DefaultConfig(), b)
	if !r.Fallback || r.PrunedFuncs != 0 {
		t.Errorf("budget abort must degrade to keep-everything: %+v", r)
	}
}
