package analysis

import (
	"repro/internal/budget"
	"testing"

	"repro/internal/core"
	"repro/internal/js/normalize"
	"repro/internal/mdg"
)

func normMod(t *testing.T, src, file string) *core.Program {
	t.Helper()
	p, err := normalize.File(src, file)
	if err != nil {
		t.Fatalf("normalize %s: %v", file, err)
	}
	return p
}

// TestCrossModuleRequire: require('./util') must resolve to the sibling
// module's exports object, so the exported function's summary links.
func TestCrossModuleRequire(t *testing.T) {
	util := normMod(t, `
function shellRun(c) { exec(c); }
module.exports = shellRun;
`, "util.js")
	index := normMod(t, `
var run = require('./util');
function entry(input) { run(input); }
module.exports = entry;
`, "index.js")

	opts := DefaultOptions()
	opts.Budget = budget.New(budget.Limits{})
	res := AnalyzeModules([]*core.Program{util, index}, opts)
	if err := opts.Budget.Err(); err != nil {
		t.Fatal(err)
	}
	entry := res.Functions["index.js:entry"]
	shellRun := res.Functions["util.js:shellRun"]
	if entry == nil || shellRun == nil {
		t.Fatalf("summaries: %v", res.Functions)
	}
	// Cross-file call linking: entry's param flows into shellRun's.
	if !res.Graph.HasEdge(mdg.Edge{From: entry.Params[0], To: shellRun.Params[0], Type: mdg.Dep}) {
		t.Error("cross-module argument linking missing")
	}
}

func TestCrossModuleExportObject(t *testing.T) {
	lib := normMod(t, `
function danger(x) { eval(x); }
module.exports = { danger: danger };
`, "lib.js")
	index := normMod(t, `
var lib = require('./lib');
function go(payload) { lib.danger(payload); }
module.exports = go;
`, "index.js")

	res := AnalyzeModules([]*core.Program{index, lib}, DefaultOptions())
	danger := res.Functions["lib.js:danger"]
	goFn := res.Functions["index.js:go"]
	if danger == nil || goFn == nil {
		t.Fatalf("summaries: %v", res.Functions)
	}
	if !res.Graph.HasEdge(mdg.Edge{From: goFn.Params[0], To: danger.Params[0], Type: mdg.Dep}) {
		t.Error("property-exported function not linked across modules")
	}
}

func TestModuleOrderIndependence(t *testing.T) {
	mk := func() []*core.Program {
		return []*core.Program{
			normMod(t, "var u = require('./b');\nfunction f(x) { u(x); }\nmodule.exports = f;\n", "a.js"),
			normMod(t, "function g(y) { eval(y); }\nmodule.exports = g;\n", "b.js"),
		}
	}
	fwd := AnalyzeModules(mk(), DefaultOptions())
	progs := mk()
	rev := AnalyzeModules([]*core.Program{progs[1], progs[0]}, DefaultOptions())
	// Both orders produce the cross-module D edge.
	check := func(res *Result, label string) {
		f := res.Functions["a.js:f"]
		g := res.Functions["b.js:g"]
		if f == nil || g == nil {
			t.Fatalf("%s: summaries missing", label)
		}
		if !res.Graph.HasEdge(mdg.Edge{From: f.Params[0], To: g.Params[0], Type: mdg.Dep}) {
			t.Errorf("%s: cross-module edge missing", label)
		}
	}
	check(fwd, "forward")
	check(rev, "reverse")
}

func TestExternalRequireStaysExternal(t *testing.T) {
	index := normMod(t, `
var lodash = require('lodash');
function f(a) { return lodash.merge({}, a); }
module.exports = f;
`, "index.js")
	res := AnalyzeModules([]*core.Program{index}, DefaultOptions())
	// No crash, lodash is a synthetic module object; f exported.
	if !res.Functions["f"].Exported {
		t.Error("f should be exported")
	}
}

func TestRelativeRequireVariants(t *testing.T) {
	util := normMod(t, "function h(c) { exec(c); }\nmodule.exports = h;\n", "lib/util.js")
	for _, spec := range []string{"./util", "./util.js"} {
		index := normMod(t, "var u = require('"+spec+"');\nfunction f(x) { u(x); }\nmodule.exports = f;\n", "lib/index.js")
		res := AnalyzeModules([]*core.Program{util, index}, DefaultOptions())
		f := res.Functions["lib/index.js:f"]
		h := res.Functions["lib/util.js:h"]
		if f == nil || h == nil {
			t.Fatalf("%s: summaries missing: %v", spec, res.Functions)
		}
		if !res.Graph.HasEdge(mdg.Edge{From: f.Params[0], To: h.Params[0], Type: mdg.Dep}) {
			t.Errorf("%s: not resolved", spec)
		}
	}
}

func TestSameFunctionNameInTwoModules(t *testing.T) {
	a := normMod(t, "function helper(x) { eval(x); }\nmodule.exports = helper;\n", "a.js")
	b := normMod(t, "function helper(x) { return x; }\nmodule.exports = helper;\n", "b.js")
	res := AnalyzeModules([]*core.Program{a, b}, DefaultOptions())
	if res.Functions["a.js:helper"] == nil || res.Functions["b.js:helper"] == nil {
		t.Fatalf("qualified summaries missing: %v", res.Functions)
	}
	if res.Functions["a.js:helper"].Loc == res.Functions["b.js:helper"].Loc {
		t.Error("same-named functions in different modules must get distinct nodes")
	}
}

func TestModuleScopedVariables(t *testing.T) {
	// A module-level variable in a.js must not leak into b.js.
	a := normMod(t, "var secret = 'x';\n", "a.js")
	b := normMod(t, "function f(q) { exec(secret + q); }\nmodule.exports = f;\n", "b.js")
	res := AnalyzeModules([]*core.Program{a, b}, DefaultOptions())
	// b's `secret` resolves to a lazily created global, not a's local —
	// both are acceptable abstractions, but the analysis must not crash
	// and f stays exported.
	if res.Functions["b.js:f"] == nil {
		t.Fatal("missing summary")
	}
}

func TestNodeFileAttribution(t *testing.T) {
	a := normMod(t, "function fa(x) { eval(x); }\nmodule.exports = fa;\n", "a.js")
	b := normMod(t, "function fb(y) { exec(y); }\nmodule.exports = fb;\n", "b.js")
	res := AnalyzeModules([]*core.Program{a, b}, DefaultOptions())
	files := map[string]bool{}
	for _, n := range res.Graph.Nodes() {
		if n.Kind == mdg.KindCall {
			files[n.File] = true
		}
	}
	if !files["a.js"] || !files["b.js"] {
		t.Errorf("call nodes should carry their file: %v", files)
	}
}
