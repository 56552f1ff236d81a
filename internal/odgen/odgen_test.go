package odgen

import (
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/queries"
	"repro/internal/scanner"
)

func scan(t *testing.T, src string) *Report {
	t.Helper()
	return Scan(src, "test.js", DefaultOptions())
}

func hasCWE(fs []queries.Finding, cwe queries.CWE) bool {
	for _, f := range fs {
		if f.CWE == cwe {
			return true
		}
	}
	return false
}

func TestCommandInjectionDetected(t *testing.T) {
	rep := scan(t, `
const { exec } = require('child_process');
function run(cmd) { exec(cmd); }
module.exports = run;
`)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if !hasCWE(rep.Findings, queries.CWECommandInjection) {
		t.Fatalf("findings: %v", rep.Findings)
	}
}

func TestBenignClean(t *testing.T) {
	rep := scan(t, `
const { exec } = require('child_process');
function run() { exec('git status'); }
module.exports = run;
`)
	if len(rep.Findings) != 0 {
		t.Fatalf("benign flagged: %v", rep.Findings)
	}
}

func TestPathTraversalNeedsWebContext(t *testing.T) {
	noWeb := `
var fs = require('fs');
function read(p, cb) { fs.readFile(p, cb); }
module.exports = read;
`
	rep := scan(t, noWeb)
	if hasCWE(rep.Findings, queries.CWEPathTraversal) {
		t.Fatal("CWE-22 must require web context in the baseline")
	}
	withWeb := `
var fs = require('fs');
var http = require('http');
http.createServer(function(req, res) {});
function read(p, cb) { fs.readFile(p, cb); }
module.exports = read;
`
	rep = scan(t, withWeb)
	if !hasCWE(rep.Findings, queries.CWEPathTraversal) {
		t.Fatalf("CWE-22 missed with web context: %v", rep.Findings)
	}
}

func TestObjectExplosionInLoops(t *testing.T) {
	loopSrc := `
function f(n) {
	var acc = [];
	for (var i = 0; i < n; i++) {
		var o = { idx: i };
		acc.push(o);
	}
	return acc;
}
module.exports = f;
`
	straightSrc := `
function f(n) {
	var o = { idx: n };
	return o;
}
module.exports = f;
`
	loop := scan(t, loopSrc)
	straight := scan(t, straightSrc)
	if loop.ODGNodes <= straight.ODGNodes*2 {
		t.Fatalf("loop unrolling should blow up the graph: loop=%d straight=%d",
			loop.ODGNodes, straight.ODGNodes)
	}
	// Graph.js's MDG stays flat on the same input.
	mdgLoop := scanner.ScanSource(loopSrc, "t.js", scanner.Options{})
	if mdgLoop.MDGNodes >= loop.ODGNodes {
		t.Fatalf("MDG (%d nodes) should be smaller than ODG (%d nodes)",
			mdgLoop.MDGNodes, loop.ODGNodes)
	}
}

// recursiveMerge is a deep-merge whose recursion and nested loops
// exhaust the unrolling interpreter's budget.
func recursiveMerge() string {
	var sb strings.Builder
	sb.WriteString("function merge(target, source) {\n")
	sb.WriteString("  for (var k in source) {\n")
	sb.WriteString("    for (var j in target) {\n")
	sb.WriteString("      merge(target[k], source[j]);\n")
	sb.WriteString("      merge(source[j], target[k]);\n")
	sb.WriteString("    }\n")
	sb.WriteString("    target[k] = source[k];\n")
	sb.WriteString("  }\n")
	sb.WriteString("  return target;\n")
	sb.WriteString("}\nmodule.exports = merge;\n")
	return sb.String()
}

func TestTimeoutOnRecursivePollution(t *testing.T) {
	opts := DefaultOptions()
	opts.StepBudget = 20000
	rep := Scan(recursiveMerge(), "merge.js", opts)
	if rep.Failure != budget.ClassBudget || !rep.Incomplete {
		t.Fatalf("expected the step budget to trip; failure %q, incomplete %v, findings: %v",
			rep.Failure, rep.Incomplete, rep.Findings)
	}
	if rep.Err != nil {
		t.Errorf("budget exhaustion surfaced as error: %v", rep.Err)
	}
}

// TestWallClockTimeoutClass: the baseline's wall-clock deadline is the
// budget's, classified as a timeout rather than as the step cap.
func TestWallClockTimeoutClass(t *testing.T) {
	opts := DefaultOptions()
	opts.StepBudget = 1 << 30
	opts.Timeout = time.Nanosecond
	rep := Scan(recursiveMerge(), "merge.js", opts)
	if rep.Failure != budget.ClassTimeout || !rep.Incomplete || rep.Err != nil {
		t.Fatalf("failure %q, incomplete %v, err %v; want a timeout", rep.Failure, rep.Incomplete, rep.Err)
	}
}

func TestPollutionDetectedWhenBudgetAllows(t *testing.T) {
	rep := scan(t, `
function set(obj, key, value) {
	var sub = obj[key];
	sub[key] = value;
}
module.exports = set;
`)
	if !hasCWE(rep.Findings, queries.CWEPrototypePollution) {
		t.Fatalf("simple pollution missed: %v", rep.Findings)
	}
}

func TestParseError(t *testing.T) {
	rep := scan(t, "var = nope")
	if rep.Err == nil {
		t.Fatal("expected parse error")
	}
}

func TestInterproceduralInlining(t *testing.T) {
	rep := scan(t, `
const { exec } = require('child_process');
function inner(c) { exec(c); }
function entry(user) { inner(user); }
module.exports = entry;
`)
	if !hasCWE(rep.Findings, queries.CWECommandInjection) {
		t.Fatalf("inlined call taint missed: %v", rep.Findings)
	}
}

func TestCallDepthBounded(t *testing.T) {
	// Infinite recursion must stop at CallDepth, not the step budget.
	rep := scan(t, `
function rec(a) { rec(a); }
module.exports = rec;
`)
	if rep.Failure != budget.ClassNone {
		t.Fatalf("bounded recursion should run to completion, got %q", rep.Failure)
	}
}

func TestFindingsSurviveTimeout(t *testing.T) {
	// A sink hit before the timeout is still reported (paper: "we
	// include all vulnerabilities reported by ODGen until it times
	// out").
	src := `
const { exec } = require('child_process');
function f(cmd) {
	exec(cmd);
	var o = {};
	while (cmd) { o = { x: o }; }
}
module.exports = f;
`
	opts := DefaultOptions()
	opts.StepBudget = 300
	rep := Scan(src, "t.js", opts)
	if !hasCWE(rep.Findings, queries.CWECommandInjection) {
		t.Fatalf("pre-timeout finding lost: failure=%q findings=%v", rep.Failure, rep.Findings)
	}
}

func TestCrossArgContamination(t *testing.T) {
	// The baseline assumes unknown callees may copy any argument into
	// any other; this drives its true false positives.
	src := `
const { exec } = require('child_process');
function run(input) {
	var opts = { cmd: 'git status' };
	record(input, opts);
	exec(opts.cmd + opts.verbose);
}
module.exports = run;
`
	rep := scan(t, src)
	if !hasCWE(rep.Findings, queries.CWECommandInjection) {
		t.Fatalf("cross-argument contamination should flag this: %v", rep.Findings)
	}
}

func TestKnownCalleeNoContamination(t *testing.T) {
	// A resolved callee is inlined precisely, not contaminated.
	src := `
const { exec } = require('child_process');
function record(a, b) { return a; }
function run(input) {
	var opts = { cmd: 'git status' };
	record(input, opts);
	exec(opts.cmd);
}
module.exports = run;
`
	rep := scan(t, src)
	if hasCWE(rep.Findings, queries.CWECommandInjection) {
		t.Fatalf("known callee should not contaminate: %v", rep.Findings)
	}
}

func TestFunctionPrototypeApply(t *testing.T) {
	src := `
const { exec } = require('child_process');
function launch(c) { exec(c); }
function run(input) {
	launch.apply(null, input);
}
module.exports = run;
`
	rep := scan(t, src)
	// .apply passes an array; taint is approximated through the array
	// object itself, so detection depends on element tracking. The run
	// must at least not crash and not time out.
	if rep.Err != nil || rep.Failure != budget.ClassNone {
		t.Fatalf("apply handling broken: err=%v failure=%q", rep.Err, rep.Failure)
	}
}

func TestODGNodesScaleWithUnroll(t *testing.T) {
	src := `
function f(n) {
	var acc = [];
	for (var i = 0; i < n; i++) {
		acc.push({ v: i });
	}
	return acc;
}
module.exports = f;
`
	sizes := make([]int, 0, 3)
	for _, u := range []int{2, 4, 8} {
		opts := DefaultOptions()
		opts.UnrollLimit = u
		rep := Scan(src, "t.js", opts)
		sizes = append(sizes, rep.ODGNodes)
	}
	if !(sizes[0] < sizes[1] && sizes[1] < sizes[2]) {
		t.Fatalf("ODG must grow with the unroll limit: %v", sizes)
	}
}

// TestReportTotalTime: a baseline scan's time is its two phase rows,
// a graph row and a traversal row, and budget.SplitTime puts them in
// Table 6's two columns.
func TestReportTotalTime(t *testing.T) {
	rep := scan(t, "function f(a) { return a; }\nmodule.exports = f;")
	if len(rep.Phases) != 2 || rep.Phases[0].Phase != PhaseGraph || rep.Phases[1].Phase != PhaseDetect {
		t.Fatalf("phases %+v, want [%s %s]", rep.Phases, PhaseGraph, PhaseDetect)
	}
	if rep.Phases[0].Steps == 0 {
		t.Error("graph phase charged no interpreter steps")
	}
	graph, traversal := budget.SplitTime(rep.Phases)
	if graph != rep.Phases[0].Dur || traversal != rep.Phases[1].Dur {
		t.Errorf("split (%v, %v) does not match the rows %+v", graph, traversal, rep.Phases)
	}
}
