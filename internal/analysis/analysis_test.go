package analysis

import (
	"testing"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/js/normalize"
	"repro/internal/mdg"
)

// analyzeSrc analyzes src with the default options under a generous
// step cap, failing the test if the analysis does not finish within it.
func analyzeSrc(t *testing.T, src string) *Result {
	t.Helper()
	prog, err := normalize.File(src, "test.js")
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	opts := DefaultOptions()
	opts.Budget = budget.New(budget.Limits{MaxSteps: 1_000_000})
	res := Analyze(prog, opts)
	if err := opts.Budget.Err(); err != nil {
		t.Fatalf("analysis stopped early: %v", err)
	}
	return res
}

// locOf returns the single location bound to a node whose label matches.
func callByName(res *Result, name string) *mdg.Node {
	for _, cl := range res.Calls {
		n := res.Graph.Node(cl)
		if n != nil && n.CallName == name {
			return n
		}
	}
	return nil
}

func TestNewObjectCreatesNode(t *testing.T) {
	res := analyzeSrc(t, "var o = {};")
	if res.Graph.NumNodes() < 3 { // module, exports, o
		t.Fatalf("nodes = %d", res.Graph.NumNodes())
	}
}

func TestBinOpDependencies(t *testing.T) {
	res := analyzeSrc(t, "function f(a, b) { var c = a + b; return c; } module.exports = f;")
	g := res.Graph
	fn := res.Functions["f"]
	if fn == nil {
		t.Fatal("missing summary for f")
	}
	// The binop result depends on both parameters.
	var binLoc mdg.Loc
	for _, e := range g.Out(fn.Params[0]) {
		if e.Type == mdg.Dep {
			binLoc = e.To
		}
	}
	if binLoc == mdg.NoLoc {
		t.Fatal("no dependency out of param a")
	}
	found := false
	for _, e := range g.Out(fn.Params[1]) {
		if e.Type == mdg.Dep && e.To == binLoc {
			found = true
		}
	}
	if !found {
		t.Fatal("binop must depend on both operands")
	}
	// Return value wired to RetLoc.
	if !g.HasEdge(mdg.Edge{From: binLoc, To: fn.RetLoc, Type: mdg.Dep}) {
		t.Error("return dependency missing")
	}
}

// TestGitResetMDG verifies the MDG shape of the paper's Fig. 1 running
// example: the dynamic lookup, the two version edges, the dynamic and
// static property edges, and the dependency edges into the exec call.
func TestGitResetMDG(t *testing.T) {
	src := `
function git_reset(config, op, branch_name, url) {
	var options = config[op];
	options[branch_name] = url;
	options.cmd = 'git reset HEAD~';
	exec(options.cmd + options.commit);
}
module.exports = git_reset;
`
	res := analyzeSrc(t, src)
	g := res.Graph
	fn := res.Functions["git_reset"]
	if fn == nil {
		t.Fatal("missing git_reset summary")
	}
	oConfig, oOp, oBranch, oURL := fn.Params[0], fn.Params[1], fn.Params[2], fn.Params[3]

	// Line 4: config[op] — P(*) edge from config and D edge from op.
	stars := g.StarTargets(oConfig)
	if len(stars) != 1 {
		t.Fatalf("config should have one dynamic property, got %v", stars)
	}
	o5 := stars[0]
	if !g.HasEdge(mdg.Edge{From: oOp, To: o5, Type: mdg.Dep}) {
		t.Error("missing D edge op -> options (dynamic property name)")
	}

	// Line 5: options[branch_name] = url — V(*) from o5, D from
	// branch_name onto the new version, P(*) to url.
	var o6 mdg.Loc
	for _, e := range g.Out(o5) {
		if e.Type == mdg.VerStar {
			o6 = e.To
		}
	}
	if o6 == mdg.NoLoc {
		t.Fatal("missing V(*) edge from options")
	}
	if !g.HasEdge(mdg.Edge{From: oBranch, To: o6, Type: mdg.Dep}) {
		t.Error("missing D edge branch_name -> new version")
	}
	if !g.HasEdge(mdg.Edge{From: o6, To: oURL, Type: mdg.PropStar}) {
		t.Error("missing P(*) edge new version -> url")
	}

	// Line 6: options.cmd = '...' — V(cmd) from o6 to o7, P(cmd) on o7.
	var o7 mdg.Loc
	for _, e := range g.Out(o6) {
		if e.Type == mdg.Ver && e.Prop == "cmd" {
			o7 = e.To
		}
	}
	if o7 == mdg.NoLoc {
		t.Fatal("missing V(cmd) edge")
	}
	o8 := propTarget(g, o7, "cmd")
	if o8 == mdg.NoLoc {
		t.Fatal("missing P(cmd) property")
	}

	// Line 7: exec(...) — lookup of commit lazily lands on the initial
	// version o5, and the call depends on the concat of cmd+commit.
	execCall := callByName(res, "exec")
	if execCall == nil {
		t.Fatal("missing exec call node")
	}
	o9 := propTarget(g, o5, "commit")
	if o9 == mdg.NoLoc {
		t.Fatal("commit should be lazily created on the initial version o5")
	}
	// cmd+commit binop depends on o8, o9 and the dynamic o4(url); the
	// call depends on the binop.
	var binLoc mdg.Loc
	for _, e := range g.Out(o8) {
		if e.Type == mdg.Dep {
			binLoc = e.To
		}
	}
	if binLoc == mdg.NoLoc {
		t.Fatal("no dependency out of cmd value")
	}
	if !g.HasEdge(mdg.Edge{From: o9, To: binLoc, Type: mdg.Dep}) {
		t.Error("concat must depend on commit value")
	}
	if !g.HasEdge(mdg.Edge{From: oURL, To: binLoc, Type: mdg.Dep}) {
		t.Error("concat must depend on url (dynamic property may shadow commit)")
	}
	if !g.HasEdge(mdg.Edge{From: binLoc, To: execCall.Loc, Type: mdg.Dep}) {
		t.Error("call must depend on its argument")
	}

	// All four parameters are taint sources (git_reset is exported).
	if len(res.Sources) != 4 {
		t.Fatalf("sources = %d, want 4", len(res.Sources))
	}
}

// TestSetValueCaseStudy checks §5.5: the loop converges to a finite
// cyclic MDG (no object explosion) and the prototype-pollution pattern
// P(*) ; V(*) ; P(*) is present.
func TestSetValueCaseStudy(t *testing.T) {
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
	res := analyzeSrc(t, src)
	g := res.Graph
	fn := res.Functions["setValue"]
	oObj := fn.Params[0]

	// Pattern: obj -P(*)-> sub ; sub-version-chain -V(*)-> ver -P(*)-> val.
	found := false
	for _, sub := range g.StarTargets(oObj) {
		for _, e := range g.Out(sub) {
			if e.Type != mdg.VerStar {
				continue
			}
			for _, e2 := range g.Out(e.To) {
				if e2.Type == mdg.PropStar {
					found = true
				}
			}
		}
	}
	if !found {
		t.Errorf("prototype pollution pattern not found in graph:\n%s", g.String())
	}

	// Graph stays small: allocation-site abstraction bounds it.
	if g.NumNodes() > 60 {
		t.Errorf("graph too large: %d nodes (object explosion?)", g.NumNodes())
	}
}

func TestLoopFixpointConverges(t *testing.T) {
	src := `
function f(a) {
	var o = {};
	while (a) {
		o.x = {};
		o = o.x;
	}
	return o;
}
module.exports = f;
`
	res := analyzeSrc(t, src)
	// A new object per iteration would explode; site-keyed allocation
	// bounds the node count.
	if res.Graph.NumNodes() > 40 {
		t.Fatalf("nodes = %d", res.Graph.NumNodes())
	}
}

func TestIfJoinsBothBranches(t *testing.T) {
	src := `
function f(c, a, b) {
	var x;
	if (c) { x = a; } else { x = b; }
	sink(x);
}
module.exports = f;
`
	res := analyzeSrc(t, src)
	g := res.Graph
	fn := res.Functions["f"]
	call := callByName(res, "sink")
	if call == nil {
		t.Fatal("missing sink call")
	}
	// Both a and b flow into the call.
	for i, p := range []mdg.Loc{fn.Params[1], fn.Params[2]} {
		if !g.HasEdge(mdg.Edge{From: p, To: call.Loc, Type: mdg.Dep}) {
			t.Errorf("param %d must reach the sink call after the join", i+1)
		}
	}
}

func TestRequireCreatesModuleObject(t *testing.T) {
	res := analyzeSrc(t, "var cp = require('child_process'); cp.exec('ls');")
	call := callByName(res, "cp.exec")
	if call == nil {
		t.Fatal("missing cp.exec call node")
	}
	if call.CallName != "cp.exec" {
		t.Errorf("call name = %q", call.CallName)
	}
}

func TestExportDetectionDirect(t *testing.T) {
	res := analyzeSrc(t, "function f(a) {} module.exports = f; function g(b) {}")
	if !res.Functions["f"].Exported {
		t.Error("f should be exported")
	}
	if res.Functions["g"].Exported {
		t.Error("g should not be exported when explicit exports exist")
	}
}

func TestExportDetectionProperty(t *testing.T) {
	res := analyzeSrc(t, "function run(a) {} exports.run = run;")
	if !res.Functions["run"].Exported {
		t.Error("exports.run = run should mark run exported")
	}
}

func TestExportDetectionObjectLiteral(t *testing.T) {
	res := analyzeSrc(t, "function go(a) {} module.exports = { go: go };")
	if !res.Functions["go"].Exported {
		t.Error("function in exported object literal should be exported")
	}
}

func TestExportFallbackScripts(t *testing.T) {
	// No exports at all: top-level functions become the attack surface.
	res := analyzeSrc(t, "function f(a) { eval(a); }")
	if !res.Functions["f"].Exported {
		t.Error("script fallback should export all functions")
	}
}

func TestInterproceduralTaint(t *testing.T) {
	src := `
function helper(cmd) { exec(cmd); }
function entry(input) { helper(input); }
module.exports = entry;
`
	res := analyzeSrc(t, src)
	g := res.Graph
	entry := res.Functions["entry"]
	helper := res.Functions["helper"]
	// Arg of helper call depends on entry's param...
	if !g.HasEdge(mdg.Edge{From: entry.Params[0], To: helper.Params[0], Type: mdg.Dep}) {
		t.Error("call linking must connect caller arg to callee param")
	}
	// ...and helper's body passes it to exec.
	call := callByName(res, "exec")
	if !g.HasEdge(mdg.Edge{From: helper.Params[0], To: call.Loc, Type: mdg.Dep}) {
		t.Error("helper param must reach exec")
	}
}

func TestRecursionTerminates(t *testing.T) {
	src := `
function rec(n, acc) {
	if (n) { return rec(n - 1, acc + n); }
	return acc;
}
module.exports = rec;
`
	res := analyzeSrc(t, src)
	rec := res.Functions["rec"]
	// Recursive call links ret to itself via the call node.
	if rec == nil {
		t.Fatal("missing summary")
	}
}

func TestCallReturnTaint(t *testing.T) {
	src := `
function f(input) {
	var parts = input.split('.');
	exec(parts);
}
module.exports = f;
`
	res := analyzeSrc(t, src)
	g := res.Graph
	fn := res.Functions["f"]
	splitCall := callByName(res, "input.split")
	execCall := callByName(res, "exec")
	if splitCall == nil || execCall == nil {
		t.Fatal("missing call nodes")
	}
	// input (receiver) flows into split's call node; split's result
	// into exec.
	if !g.HasEdge(mdg.Edge{From: fn.Params[0], To: splitCall.Loc, Type: mdg.Dep}) {
		t.Error("receiver must flow into method call")
	}
	if !g.HasEdge(mdg.Edge{From: splitCall.Loc, To: execCall.Loc, Type: mdg.Dep}) {
		t.Error("call result must flow onward")
	}
}

func TestForInKeyDependsOnObject(t *testing.T) {
	src := `
function f(obj) {
	for (var k in obj) { sink(k); }
}
module.exports = f;
`
	res := analyzeSrc(t, src)
	g := res.Graph
	fn := res.Functions["f"]
	call := callByName(res, "sink")
	// obj -> k -> sink
	var kLoc mdg.Loc
	for _, e := range g.Out(fn.Params[0]) {
		if e.Type == mdg.Dep {
			for _, e2 := range g.Out(e.To) {
				if e2.Type == mdg.Dep && e2.To == call.Loc {
					kLoc = e.To
				}
			}
		}
	}
	if kLoc == mdg.NoLoc {
		t.Error("for-in key must depend on the iterated object and reach the sink")
	}
}

func TestCallbackTaint(t *testing.T) {
	src := `
function f(list) {
	list.forEach(function(item) { exec(item); });
}
module.exports = f;
`
	res := analyzeSrc(t, src)
	g := res.Graph
	fn := res.Functions["f"]
	call := callByName(res, "exec")
	if call == nil {
		t.Fatal("missing exec call")
	}
	// list -> callback param -> exec (via callback linking).
	reached := reachableByDep(g, fn.Params[0], call.Loc)
	if !reached {
		t.Error("receiver of forEach must taint the callback parameter")
	}
}

func TestArgumentsObject(t *testing.T) {
	src := `
function f() {
	var a = arguments[0];
	exec(a);
}
module.exports = f;
`
	res := analyzeSrc(t, src)
	// arguments has no params here (f declared none) — but the object
	// exists and the analysis must not crash; with params it carries
	// taint:
	src2 := `
function g(x) {
	var a = arguments[0];
	exec(a);
}
module.exports = g;
`
	res2 := analyzeSrc(t, src2)
	g2 := res2.Graph
	fn := res2.Functions["g"]
	call := callByName(res2, "exec")
	if !reachableByDep(g2, fn.Params[0], call.Loc) {
		t.Error("param must reach exec via arguments[0]")
	}
	_ = res
}

func TestStepBudgetTimeout(t *testing.T) {
	src := "function f(a) { while (a) { a = a + 1; } } module.exports = f;"
	prog, err := normalize.File(src, "t.js")
	if err != nil {
		t.Fatal(err)
	}
	b := budget.New(budget.Limits{MaxSteps: 3})
	Analyze(prog, Options{MaxLoopIter: 30, Budget: b})
	if b.Err() == nil {
		t.Fatal("tiny step budget must stop the analysis")
	}
	if budget.ClassOf(b.Err()) != budget.ClassBudget {
		t.Fatalf("budget error %v, want a step-cap failure", b.Err())
	}
}

func TestGraphMonotoneDuringAnalysis(t *testing.T) {
	// Re-analysis of the same program yields identical graph sizes
	// (determinism).
	src := `
function f(a, b) {
	var o = {};
	o[a] = b;
	for (var i = 0; i < 3; i++) { o.x = o[a]; }
	return o;
}
module.exports = f;
`
	r1 := analyzeSrc(t, src)
	r2 := analyzeSrc(t, src)
	if r1.Graph.NumNodes() != r2.Graph.NumNodes() || r1.Graph.NumEdges() != r2.Graph.NumEdges() {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d nodes/edges",
			r1.Graph.NumNodes(), r1.Graph.NumEdges(), r2.Graph.NumNodes(), r2.Graph.NumEdges())
	}
}

// reachableByDep reports whether dst is reachable from src following any
// edges forward (the BasicPath notion).
func reachableByDep(g *mdg.Graph, src, dst mdg.Loc) bool {
	seen := map[mdg.Loc]bool{}
	var walk func(l mdg.Loc) bool
	walk = func(l mdg.Loc) bool {
		if l == dst {
			return true
		}
		if seen[l] {
			return false
		}
		seen[l] = true
		for _, e := range g.Out(l) {
			if walk(e.To) {
				return true
			}
		}
		return false
	}
	return walk(src)
}

func TestDefaultOptions(t *testing.T) {
	if DefaultOptions().MaxLoopIter <= 0 {
		t.Fatal("MaxLoopIter must be positive")
	}
}

func TestEmptyProgram(t *testing.T) {
	prog := &core.Program{FileName: "empty.js"}
	opts := DefaultOptions()
	opts.Budget = budget.New(budget.Limits{})
	res := Analyze(prog, opts)
	if opts.Budget.Err() != nil || len(res.Calls) != 0 {
		t.Fatalf("got %+v (budget %v)", res, opts.Budget.Err())
	}
}

func TestTreatAllFunctionsAsExported(t *testing.T) {
	src := "function hidden(a) { eval(a); } module.exports = function pub(b) { return b; };"
	prog, err := normalize.File(src, "t.js")
	if err != nil {
		t.Fatal(err)
	}
	res := Analyze(prog, Options{MaxLoopIter: 10, TreatAllFunctionsAsExported: true})
	// hidden's param is a source despite not being exported.
	hidden := res.Functions["hidden"]
	found := false
	for _, s := range res.Sources {
		if s == hidden.Params[0] {
			found = true
		}
	}
	if !found {
		t.Fatal("TreatAllFunctionsAsExported must seed all params")
	}
}

func TestConstructorLinking(t *testing.T) {
	src := `
function Runner(cmd) { this.cmd = cmd; }
function entry(input) {
	var r = new Runner(input);
	exec(r.cmd);
}
module.exports = entry;
`
	res := analyzeSrc(t, src)
	g := res.Graph
	entry := res.Functions["entry"]
	call := callByName(res, "exec")
	if call == nil {
		t.Fatal("missing exec")
	}
	// input -> Runner's param -> this.cmd, and the constructed object
	// (this) flows to the new-expression result.
	if !reachableByDep(g, entry.Params[0], call.Loc) {
		t.Error("constructor taint flow missing")
	}
}

func TestForOfValuesTainted(t *testing.T) {
	src := `
function f(items) {
	for (const v of items) { eval(v); }
}
module.exports = f;
`
	res := analyzeSrc(t, src)
	fn := res.Functions["f"]
	call := callByName(res, "eval")
	if !reachableByDep(res.Graph, fn.Params[0], call.Loc) {
		t.Error("for-of value must be tainted by the iterated object")
	}
}

func TestExtraArgsIgnoredSafely(t *testing.T) {
	src := `
function two(a, b) { return a; }
function entry(x) { two(x, x, x, x); }
module.exports = entry;
`
	analyzeSrc(t, src) // fails the test if the analysis does not finish
}

func TestUnOpDependency(t *testing.T) {
	src := `
function f(a) {
	var negated = !a;
	eval(negated);
}
module.exports = f;
`
	res := analyzeSrc(t, src)
	fn := res.Functions["f"]
	call := callByName(res, "eval")
	if !reachableByDep(res.Graph, fn.Params[0], call.Loc) {
		t.Error("unary op must propagate dependencies")
	}
}

func TestRequireDynamicArgNotModule(t *testing.T) {
	// require with a non-literal argument falls through to generic call
	// handling.
	src := `
function f(name) { return require(name); }
module.exports = f;
`
	res := analyzeSrc(t, src)
	call := callByName(res, "require")
	if call == nil {
		t.Fatal("dynamic require should remain a call node")
	}
}
