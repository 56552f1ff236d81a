package queries

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/js/normalize"
)

func loadSrc(t *testing.T, src string) *LoadedGraph {
	t.Helper()
	prog, err := normalize.File(src, "test.js")
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	res := analysis.Analyze(prog, analysis.DefaultOptions())
	return Load(res)
}

func detect(t *testing.T, src string) []Finding {
	t.Helper()
	return mustDetect(t, loadSrc(t, src), DefaultConfig())
}

func mustDetect(t *testing.T, lg *LoadedGraph, cfg *Config) []Finding {
	t.Helper()
	fs, err := Detect(lg, cfg)
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}
	return fs
}

func hasCWE(fs []Finding, cwe CWE) bool {
	for _, f := range fs {
		if f.CWE == cwe {
			return true
		}
	}
	return false
}

func findingsFor(fs []Finding, cwe CWE) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.CWE == cwe {
			out = append(out, f)
		}
	}
	return out
}

// TestGitResetCommandInjection: the paper's Fig. 1 example has an
// exploitable command injection at the exec call (line 7 of the
// snippet).
func TestGitResetCommandInjection(t *testing.T) {
	src := `
const { exec } = require('child_process');
function git_reset(config, op, branch_name, url) {
	var options = config[op];
	options[branch_name] = url;
	options.cmd = 'git reset HEAD~';
	exec(options.cmd + options.commit);
}
module.exports = git_reset;
`
	fs := detect(t, src)
	ci := findingsFor(fs, CWECommandInjection)
	if len(ci) == 0 {
		t.Fatalf("command injection not detected; findings: %v", fs)
	}
	if ci[0].SinkLine != 7 {
		t.Errorf("sink line = %d, want 7", ci[0].SinkLine)
	}
	if ci[0].SinkName != "exec" {
		t.Errorf("sink = %q", ci[0].SinkName)
	}
}

// TestGitResetPrototypePollution: the same example is also vulnerable
// to prototype pollution (Fig. 1e).
func TestGitResetPrototypePollution(t *testing.T) {
	src := `
function git_reset(config, op, branch_name, url) {
	var options = config[op];
	options[branch_name] = url;
	options.cmd = 'git reset HEAD~';
}
module.exports = git_reset;
`
	fs := detect(t, src)
	if !hasCWE(fs, CWEPrototypePollution) {
		t.Fatalf("prototype pollution not detected; findings: %v", fs)
	}
}

// TestSetValuePollution: the §5.5 case study (CVE-2021-23440 shape).
func TestSetValuePollution(t *testing.T) {
	src := `
function setValue(obj, prop, value) {
	var path = prop.split('.');
	var len = path.length;
	for (var i = 0; i < len; i++) {
		var p = path[i];
		if (i === len - 1) {
			obj[p] = value;
		}
		obj = obj[p];
	}
	return obj;
}
module.exports = setValue;
`
	fs := detect(t, src)
	if !hasCWE(fs, CWEPrototypePollution) {
		t.Fatalf("set-value pollution not detected; findings: %v", fs)
	}
}

func TestCodeInjectionEval(t *testing.T) {
	src := `
function run(input) { eval(input); }
module.exports = run;
`
	fs := detect(t, src)
	if !hasCWE(fs, CWECodeInjection) {
		t.Fatalf("eval injection not detected: %v", fs)
	}
}

func TestCodeInjectionFunctionConstructor(t *testing.T) {
	src := `
function make(body) { return new Function(body); }
module.exports = make;
`
	fs := detect(t, src)
	if !hasCWE(fs, CWECodeInjection) {
		t.Fatalf("Function constructor not detected: %v", fs)
	}
}

func TestPathTraversal(t *testing.T) {
	src := `
var fs = require('fs');
function readUserFile(name, cb) {
	fs.readFile('/data/' + name, cb);
}
module.exports = readUserFile;
`
	fs := detect(t, src)
	if !hasCWE(fs, CWEPathTraversal) {
		t.Fatalf("path traversal not detected: %v", fs)
	}
}

func TestBenignNotFlagged(t *testing.T) {
	src := `
const { exec } = require('child_process');
function status() {
	exec('git status');
}
module.exports = status;
`
	fs := detect(t, src)
	if len(fs) != 0 {
		t.Fatalf("benign program flagged: %v", fs)
	}
}

func TestConstantPropertyNoPollution(t *testing.T) {
	// Writing a constant property is not a pollution pattern.
	src := `
function set(obj, value) {
	obj.safe = value;
	return obj;
}
module.exports = set;
`
	fs := detect(t, src)
	if hasCWE(fs, CWEPrototypePollution) {
		t.Fatalf("constant write flagged as pollution: %v", fs)
	}
}

// TestOverwriteKillsTaint: the UntaintedPath filter — a tainted property
// overwritten with a constant before the sink is no longer tainted
// through that path.
func TestOverwriteKillsTaint(t *testing.T) {
	src := `
const { exec } = require('child_process');
function run(input) {
	var opts = {};
	opts.cmd = input;
	opts.cmd = 'git status';
	exec(opts.cmd);
}
module.exports = run;
`
	fs := detect(t, src)
	if hasCWE(fs, CWECommandInjection) {
		t.Fatalf("overwritten taint still flagged: %v", fs)
	}
}

func TestTaintThroughOverwriteOfOtherProp(t *testing.T) {
	// Overwriting a different property must not kill the taint.
	src := `
const { exec } = require('child_process');
function run(input) {
	var opts = {};
	opts.cmd = input;
	opts.other = 'x';
	exec(opts.cmd);
}
module.exports = run;
`
	fs := detect(t, src)
	if !hasCWE(fs, CWECommandInjection) {
		t.Fatalf("taint lost through unrelated overwrite: %v", fs)
	}
}

func TestInterproceduralDetection(t *testing.T) {
	src := `
const { exec } = require('child_process');
function doRun(cmd) { exec(cmd); }
function entry(userInput) { doRun('prefix ' + userInput); }
module.exports = entry;
`
	fs := detect(t, src)
	if !hasCWE(fs, CWECommandInjection) {
		t.Fatalf("interprocedural taint not detected: %v", fs)
	}
}

func TestUnexportedNotSource(t *testing.T) {
	// The vulnerable function is internal and never called with
	// attacker data: its params are not sources.
	src := `
const { exec } = require('child_process');
function internal(cmd) { exec(cmd); }
function entry() { internal('git status'); }
module.exports = entry;
`
	fs := detect(t, src)
	if hasCWE(fs, CWECommandInjection) {
		t.Fatalf("internal function flagged: %v", fs)
	}
}

func TestRequireSinkOptIn(t *testing.T) {
	src := `
function load(name) { return require(name); }
module.exports = load;
`
	// Off by default.
	fs := detect(t, src)
	if hasCWE(fs, CWECodeInjection) {
		t.Fatalf("require flagged without opt-in: %v", fs)
	}
	cfg := DefaultConfig()
	cfg.RequireAsCodeInjection = true
	fs = mustDetect(t, loadSrc(t, src), cfg)
	if !hasCWE(fs, CWECodeInjection) {
		t.Fatalf("require sink not detected with opt-in: %v", fs)
	}
}

func TestMatchSink(t *testing.T) {
	cases := []struct {
		callee, sink string
		want         bool
	}{
		{"exec", "exec", true},
		{"cp.exec", "exec", true},
		{"child_process.exec", "exec", true},
		{"fs.readFile", "fs.readFile", true},
		{"x.fs.readFile", "fs.readFile", true},
		{"readFile", "fs.readFile", false},
		{"executeAll", "exec", false},
		{"spawn", "child_process.spawn", false},
		{"child_process.spawn", "child_process.spawn", true},
	}
	for _, c := range cases {
		if got := MatchSink(c.callee, c.sink); got != c.want {
			t.Errorf("MatchSink(%q, %q) = %v, want %v", c.callee, c.sink, got, c.want)
		}
	}
}

// matchSinkBySplit is the segment-splitting definition of MatchSink,
// kept as the reference for the suffix-check implementation.
func matchSinkBySplit(calleeName, sinkName string) bool {
	if calleeName == sinkName {
		return true
	}
	cs := strings.Split(calleeName, ".")
	ss := strings.Split(sinkName, ".")
	if len(ss) == 1 {
		return cs[len(cs)-1] == ss[0]
	}
	if len(cs) < len(ss) {
		return false
	}
	off := len(cs) - len(ss)
	for i := range ss {
		if cs[off+i] != ss[i] {
			return false
		}
	}
	return true
}

// TestMatchSinkEqualsSplitReference: over every pair drawn from callee
// and sink names with empty segments, doubled dots and near-miss
// suffixes, MatchSink agrees with the split-based reference.
func TestMatchSinkEqualsSplitReference(t *testing.T) {
	names := []string{
		"", ".", "..", "exec", ".exec", "exec.", "cp.exec", "cp..exec", "a..b",
		"b", ".b", "a.", "a.b", "x.a..b", "a..b.c", "xexec", "cp.xexec",
		"fs.readFile", "x.fs.readFile", "xfs.readFile", "fs..readFile",
		"child_process.spawn", "spawn", "require('fs').readFile", "a.b.c.d",
	}
	for _, sink := range DefaultConfig().Sinks {
		names = append(names, sink.Name, "x."+sink.Name, "x"+sink.Name)
	}
	for _, callee := range names {
		for _, sink := range names {
			if got, want := MatchSink(callee, sink), matchSinkBySplit(callee, sink); got != want {
				t.Errorf("MatchSink(%q, %q) = %v, split reference says %v", callee, sink, got, want)
			}
		}
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{CWE: CWECommandInjection, SinkName: "exec", SinkLine: 3, Source: "a"}
	if f.String() == "" {
		t.Fatal("empty rendering")
	}
	p := Finding{CWE: CWEPrototypePollution, SinkLine: 4, Source: "b"}
	if p.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestLoadPreservesCounts(t *testing.T) {
	lg := loadSrc(t, "function f(a) { eval(a); } module.exports = f;")
	if lg.DB.NumNodes() != lg.Result.Graph.NumNodes() {
		t.Errorf("node count mismatch: db=%d mdg=%d", lg.DB.NumNodes(), lg.Result.Graph.NumNodes())
	}
	rels := 0
	for _, n := range lg.DB.AllNodes() {
		rels += len(lg.DB.Out(n.ID))
	}
	if rels != lg.Result.Graph.NumEdges() {
		t.Errorf("edge count mismatch: db=%d mdg=%d", rels, lg.Result.Graph.NumEdges())
	}
}

func TestConfigRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	if len(cfg.SinksFor(CWECommandInjection)) == 0 {
		t.Fatal("no command-injection sinks")
	}
	if len(cfg.SinksFor(CWEPathTraversal)) == 0 {
		t.Fatal("no path-traversal sinks")
	}
	if len(cfg.SinksFor(CWECodeInjection)) == 0 {
		t.Fatal("no code-injection sinks")
	}
}

func TestSanitizerNotModeled(t *testing.T) {
	// Sanitization via an unknown helper keeps the taint (documented
	// FP source, §5.3); this asserts the over-approximation.
	src := `
const { exec } = require('child_process');
function run(input) {
	var safe = sanitize(input);
	exec(safe);
}
module.exports = run;
`
	fs := detect(t, src)
	if !hasCWE(fs, CWECommandInjection) {
		t.Fatalf("over-approximation expected to flag sanitized flow: %v", fs)
	}
}

func TestTemplateLiteralTaint(t *testing.T) {
	src := "const { exec } = require('child_process');\n" +
		"function run(branch) { exec(`git checkout ${branch}`); }\n" +
		"module.exports = run;\n"
	fs := detect(t, src)
	if !hasCWE(fs, CWECommandInjection) {
		t.Fatalf("template literal taint not detected: %v", fs)
	}
}

func TestMergeRecursivePollution(t *testing.T) {
	// The classic recursive merge pollution pattern.
	src := `
function merge(target, source) {
	for (var key in source) {
		if (typeof source[key] === 'object') {
			merge(target[key], source[key]);
		} else {
			target[key] = source[key];
		}
	}
	return target;
}
module.exports = merge;
`
	fs := detect(t, src)
	if !hasCWE(fs, CWEPrototypePollution) {
		t.Fatalf("merge pollution not detected: %v", fs)
	}
}

func TestMultipleFindingsSorted(t *testing.T) {
	src := `
const { exec } = require('child_process');
var fs = require('fs');
function f(a, b) {
	exec(a);
	fs.readFile(b);
}
module.exports = f;
`
	fs := detect(t, src)
	if len(fs) < 2 {
		t.Fatalf("want 2+ findings: %v", fs)
	}
	for i := 1; i < len(fs); i++ {
		if fs[i].SinkLine < fs[i-1].SinkLine {
			t.Fatal("findings not sorted by line")
		}
	}
}

func TestSanitizerBreaksTaint(t *testing.T) {
	src := `
const { exec } = require('child_process');
function run(input) {
	var safe = shellEscape(input);
	exec('git clone ' + safe);
}
module.exports = run;
`
	// Without sanitizer config: flagged (over-approximation).
	fs := detect(t, src)
	if !hasCWE(fs, CWECommandInjection) {
		t.Fatalf("expected over-approximated finding: %v", fs)
	}
	// With the program-specific sanitizer declared (§6): clean.
	cfg := DefaultConfig()
	cfg.Sanitizers = []string{"shellEscape"}
	fs = mustDetect(t, loadSrc(t, src), cfg)
	if hasCWE(fs, CWECommandInjection) {
		t.Fatalf("sanitizer must break the taint path: %v", fs)
	}
}

func TestSanitizerDoesNotBreakOtherPaths(t *testing.T) {
	src := `
const { exec } = require('child_process');
function run(input) {
	var safe = shellEscape(input);
	exec(input + safe);
}
module.exports = run;
`
	cfg := DefaultConfig()
	cfg.Sanitizers = []string{"shellEscape"}
	fs := mustDetect(t, loadSrc(t, src), cfg)
	if !hasCWE(fs, CWECommandInjection) {
		t.Fatalf("direct flow must still be reported: %v", fs)
	}
}

func TestSanitizerSuffixMatching(t *testing.T) {
	src := `
const { exec } = require('child_process');
var validator = require('validator');
function run(input) {
	exec(validator.escape(input));
}
module.exports = run;
`
	cfg := DefaultConfig()
	cfg.Sanitizers = []string{"escape"}
	fs := mustDetect(t, loadSrc(t, src), cfg)
	if hasCWE(fs, CWECommandInjection) {
		t.Fatalf("method-style sanitizer must match: %v", fs)
	}
}

// TestSQLInjectionViaConfig checks the §6 extensibility claim: SQL
// injection detection needs only a configuration change.
func TestSQLInjectionViaConfig(t *testing.T) {
	src := `
function findUser(name, cb) {
	conn.query('SELECT * FROM users WHERE name = "' + name + '"', cb);
}
module.exports = findUser;
`
	cfg := &Config{
		MaxHops: 64,
		Sinks:   []Sink{{CWE: CWE("CWE-89"), Name: "conn.query", Args: []int{0}}},
	}
	lg := loadSrc(t, src)
	fs, err := DetectTaintStyle(lg, cfg, CWE("CWE-89"))
	if err != nil {
		t.Fatalf("DetectTaintStyle: %v", err)
	}
	if len(fs) != 1 || fs[0].SinkLine != 3 {
		t.Fatalf("SQL injection not detected: %v", fs)
	}
}

// TestCypherNativeEquivalence: the declarative (query-engine) taint
// detection and the native traversal agree on a battery of programs.
func TestCypherNativeEquivalence(t *testing.T) {
	programs := []string{
		`const { exec } = require('child_process');
function run(c) { exec('git ' + c); }
module.exports = run;`,
		`const { exec } = require('child_process');
function run(input) {
	var opts = {};
	opts.cmd = input;
	opts.cmd = 'safe';
	exec(opts.cmd);
}
module.exports = run;`,
		`const { exec } = require('child_process');
function helper(x) { exec(x); }
function entry(y) { helper(y); }
module.exports = entry;`,
		`function benign(a) { return a + 1; }
module.exports = benign;`,
		`function run(input) { eval(input); }
module.exports = run;`,
	}
	cfg := DefaultConfig()
	for i, src := range programs {
		lg := loadSrc(t, src)
		for _, cwe := range []CWE{CWECommandInjection, CWECodeInjection} {
			native, err := DetectTaintStyle(lg, cfg, cwe)
			if err != nil {
				t.Fatalf("DetectTaintStyle: %v", err)
			}
			declarative, err := DetectTaintStyleCypher(lg, cfg, cwe)
			if err != nil {
				t.Fatalf("DetectTaintStyleCypher: %v", err)
			}
			if len(native) != len(declarative) {
				t.Errorf("program %d %s: native %d vs declarative %d findings",
					i, cwe, len(native), len(declarative))
				continue
			}
			for j := range native {
				if native[j].SinkLine != declarative[j].SinkLine ||
					native[j].SinkName != declarative[j].SinkName {
					t.Errorf("program %d %s: finding %d differs: %v vs %v",
						i, cwe, j, native[j], declarative[j])
				}
			}
		}
	}
}

// TestLiteralProtoPollution: explicit __proto__ writes only need a
// tainted value.
func TestLiteralProtoPollution(t *testing.T) {
	src := `
function poison(value) {
	var o = {};
	o['__proto__']['polluted'] = value;
}
module.exports = poison;
`
	fs := detect(t, src)
	if !hasCWE(fs, CWEPrototypePollution) {
		t.Fatalf("literal __proto__ pollution missed: %v", fs)
	}
}

func TestConstructorPrototypePollution(t *testing.T) {
	src := `
function poison(value) {
	var o = {};
	o.constructor.prototype.bad = value;
}
module.exports = poison;
`
	fs := detect(t, src)
	if !hasCWE(fs, CWEPrototypePollution) {
		t.Fatalf("constructor.prototype pollution missed: %v", fs)
	}
}

func TestLiteralProtoCleanValueNotFlagged(t *testing.T) {
	src := `
function setup(unused) {
	var o = {};
	o['__proto__']['helper'] = 'fixed';
}
module.exports = setup;
`
	fs := detect(t, src)
	if hasCWE(fs, CWEPrototypePollution) {
		t.Fatalf("constant prototype write flagged: %v", fs)
	}
}
