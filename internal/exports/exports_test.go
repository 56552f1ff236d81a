package exports

import (
	"sort"
	"testing"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/js/normalize"
)

// EntryName returns the canonical API name of an exported function
// ("" when the function is not part of the export surface).
func (r *Result) EntryName(qname string) string { return r.entryName[qname] }

func progs(t *testing.T, srcs map[string]string) []*core.Program {
	t.Helper()
	names := make([]string, 0, len(srcs))
	for n := range srcs {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []*core.Program
	for _, name := range names {
		p, err := normalize.File(srcs[name], name)
		if err != nil {
			t.Fatalf("normalize %s: %v", name, err)
		}
		out = append(out, p)
	}
	return out
}

func analyzeOne(t *testing.T, src string) *Result {
	t.Helper()
	return Analyze(progs(t, map[string]string{"index.js": src}), nil)
}

func exportedFuncs(r *Result) []string {
	var out []string
	for q := range r.Exported {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}

func TestDirectFunctionExport(t *testing.T) {
	r := analyzeOne(t, `
function run(x) { return x; }
function dead(y) { return y; }
module.exports = run;
`)
	if r.Fallback {
		t.Fatalf("export evidence present, got fallback: %+v", r)
	}
	if got := exportedFuncs(r); len(got) != 1 || got[0] != "index.js:run" {
		t.Fatalf("exported = %v", got)
	}
	if r.EntryName("index.js:run") != "module.exports" {
		t.Errorf("entry name = %q", r.EntryName("index.js:run"))
	}
	if r.Reachable("index.js:dead") {
		t.Error("dead must not be reachable")
	}
}

func TestObjectLiteralMethods(t *testing.T) {
	r := analyzeOne(t, `
function go(x) { return x; }
function prep(y) { return y; }
module.exports = { go: go, prep: prep };
`)
	if r.Fallback {
		t.Fatal("fallback despite object-literal export")
	}
	want := map[string]string{"index.js:go": "exports.go", "index.js:prep": "exports.prep"}
	for q, name := range want {
		if !r.Exported[q] {
			t.Errorf("%s not exported", q)
		}
		if r.EntryName(q) != name {
			t.Errorf("entry(%s) = %q, want %q", q, r.EntryName(q), name)
		}
	}
}

func TestAliasedModuleExports(t *testing.T) {
	r := analyzeOne(t, `
function run(x) { return x; }
function dead(x) { return x; }
var api = module.exports;
api.run = run;
`)
	if r.Fallback {
		t.Fatal("fallback despite aliased export")
	}
	if !r.Exported["index.js:run"] {
		t.Fatal("aliased property assignment must export run")
	}
	if r.Exported["index.js:dead"] || r.Reachable("index.js:dead") {
		t.Error("dead must stay dead under aliasing")
	}
}

func TestExportsEqualsModuleExportsChain(t *testing.T) {
	r := analyzeOne(t, `
function a(x) { return x; }
function b(x) { return x; }
exports = module.exports = { a: a };
exports.b = b;
`)
	if r.Fallback {
		t.Fatal("fallback despite chained export assignment")
	}
	if !r.Exported["index.js:a"] || !r.Exported["index.js:b"] {
		t.Fatalf("chained exports missed: %v", exportedFuncs(r))
	}
}

func TestPropertyReassignmentKeepsBoth(t *testing.T) {
	// Flow-insensitive weak updates keep both the shadowed and the
	// final binding — an over-approximation of the export surface,
	// never an under-approximation.
	r := analyzeOne(t, `
function old(x) { return x; }
function neu(x) { return x; }
module.exports.run = old;
module.exports.run = neu;
`)
	if !r.Exported["index.js:old"] || !r.Exported["index.js:neu"] {
		t.Fatalf("re-assignment must keep both bindings: %v", exportedFuncs(r))
	}
}

func TestFunctionPropertyNotTraversed(t *testing.T) {
	// analysis.markExported stops at function nodes and never walks
	// their properties, so a function hung off an exported function is
	// NOT export evidence — its params never become sources and pruning
	// it is sound. The pass must agree, not over-approximate.
	r := analyzeOne(t, `
function main(x) { return x; }
function helper(y) { return y; }
main.helper = helper;
module.exports = main;
`)
	if !r.Exported["index.js:main"] {
		t.Fatalf("main missed: %v", exportedFuncs(r))
	}
	if r.Exported["index.js:helper"] {
		t.Error("helper is invisible to markExported and must not be export evidence")
	}
	if r.Reachable("index.js:helper") {
		t.Error("uncalled function property must be prunable")
	}
}

func TestRequireReexportChain(t *testing.T) {
	r := Analyze(progs(t, map[string]string{
		"index.js": `
var inner = require('./lib');
module.exports = { run: inner.go };
`,
		"lib.js": `
function go(x) { return x; }
function hidden(x) { return x; }
module.exports = { go: go };
`,
	}), nil)
	if r.Fallback {
		t.Fatal("fallback despite re-export chain")
	}
	if !r.Exported["lib.js:go"] {
		t.Fatalf("re-exported function missed: %v", exportedFuncs(r))
	}
	if r.Reachable("lib.js:hidden") {
		t.Error("non-re-exported sibling must stay dead")
	}
}

func TestCallGraphAndProvenance(t *testing.T) {
	r := analyzeOne(t, `
function sinkish(c) { return c; }
function mid(y) { sinkish(y); }
function entry(x) { mid(x); }
module.exports = { fire: entry };
`)
	if got := r.Calls["index.js:entry"]; len(got) != 1 || got[0] != "index.js:mid" {
		t.Fatalf("calls(entry) = %v", got)
	}
	// sinkish's body line: find via OwnerOf over the known source.
	entry, hops, ok := r.PathTo("index.js", 2)
	if !ok {
		t.Fatal("no provenance for sinkish body line")
	}
	if entry != "exports.fire" {
		t.Errorf("entry = %q", entry)
	}
	want := []string{"index.js:entry", "index.js:mid", "index.js:sinkish"}
	if len(hops) != len(want) {
		t.Fatalf("hops = %v, want %v", hops, want)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("hops = %v, want %v", hops, want)
		}
	}
}

func TestTopLevelProvenance(t *testing.T) {
	r := analyzeOne(t, `
var x = 1;
module.exports = {};
`)
	entry, hops, ok := r.PathTo("index.js", 2)
	if !ok || entry != "(module)" {
		t.Fatalf("top-level provenance = %q %v ok=%v", entry, hops, ok)
	}
	if len(hops) != 1 || hops[0] != "index.js:" {
		t.Fatalf("hops = %v", hops)
	}
}

func TestCallbackEscape(t *testing.T) {
	r := analyzeOne(t, `
function cb(data) { return data; }
dispatch(1, cb);
module.exports = {};
`)
	if !r.Escaped["index.js:cb"] {
		t.Fatal("callback passed to unresolved callee must escape")
	}
	if !r.Reachable("index.js:cb") {
		t.Fatal("escaped callback must be reachable")
	}
	entry, _, ok := r.PathTo("index.js", 2)
	if !ok || entry != "(callback)" {
		t.Errorf("callback provenance = %q ok=%v", entry, ok)
	}
}

func TestFallbackWhenNoEvidence(t *testing.T) {
	r := analyzeOne(t, `
function a(x) { return x; }
function h(c) { return c; }
`)
	if !r.Fallback {
		t.Fatal("no export evidence must force fallback")
	}
	for _, q := range []string{"index.js:a", "index.js:h"} {
		if !r.Reachable(q) {
			t.Errorf("%s must be reachable under fallback", q)
		}
	}
	entry, _, ok := r.PathTo("index.js", 2)
	if !ok || entry != "(fallback)" {
		t.Errorf("fallback provenance = %q ok=%v", entry, ok)
	}
}

func TestNonFunctionExportFallsBack(t *testing.T) {
	r := analyzeOne(t, `module.exports = 1;`)
	if !r.Fallback {
		t.Fatal("value-only export carries no function evidence; fallback expected")
	}
}

func TestObjectAssignMerge(t *testing.T) {
	r := analyzeOne(t, `
function run(x) { return x; }
function dead(x) { return x; }
var impl = { run: run };
module.exports = Object.assign({}, impl);
`)
	if r.Fallback {
		t.Fatal("Object.assign merge must produce export evidence")
	}
	if !r.Exported["index.js:run"] {
		t.Fatalf("Object.assign-merged method missed: %v", exportedFuncs(r))
	}
	if r.Exported["index.js:dead"] {
		t.Error("dead must not ride along the merge")
	}
}

func TestReturnValueIsNotEvidence(t *testing.T) {
	// The MDG models a call result as the call node; returned objects
	// flow only through dependency edges, which export marking does not
	// traverse. The pass must agree and fall back.
	r := analyzeOne(t, `
function make() { return { run: inner }; }
function inner(x) { return x; }
module.exports = make();
`)
	if !r.Fallback {
		t.Fatal("factory-returned exports are invisible to the analyzer; fallback required")
	}
}

func TestBudgetAbortForcesFallback(t *testing.T) {
	b := budget.New(budget.Limits{MaxSteps: 3})
	r := Analyze(progs(t, map[string]string{"index.js": `
function a(x) { return x; }
function b(x) { return x; }
function c(x) { return x; }
module.exports = a;
`}), b)
	if !r.Fallback {
		t.Fatal("budget abort must degrade to the fallback attack model")
	}
	for _, q := range []string{"index.js:a", "index.js:b", "index.js:c"} {
		if !r.Reachable(q) {
			t.Errorf("%s must stay reachable after budget abort", q)
		}
	}
}

func TestDeterministicExports(t *testing.T) {
	src := map[string]string{
		"index.js": `
var lib = require('./lib');
function local(x) { return x; }
module.exports = { local: local, go: lib.go, run: lib.run };
`,
		"lib.js": `
function go(x) { return x; }
function run(y) { return y; }
module.exports = { go: go, run: run };
`,
	}
	first := Analyze(progs(t, src), nil)
	for i := 0; i < 5; i++ {
		again := Analyze(progs(t, src), nil)
		if len(again.Exports) != len(first.Exports) {
			t.Fatalf("export count varies: %d vs %d", len(again.Exports), len(first.Exports))
		}
		for j := range first.Exports {
			if first.Exports[j] != again.Exports[j] {
				t.Fatalf("export order varies at %d: %+v vs %+v", j, first.Exports[j], again.Exports[j])
			}
		}
	}
}
