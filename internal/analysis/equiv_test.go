package analysis_test

import (
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/js/normalize"
)

// normalizeFiles normalizes a package's files in the given order,
// skipping files that fail to parse (as the scanner's front end drops
// them).
func normalizeFiles(names []string, srcs map[string]string) []*core.Program {
	var out []*core.Program
	for _, name := range names {
		if p, err := normalize.File(srcs[name], name); err == nil {
			out = append(out, p)
		}
	}
	return out
}

// packageProgs normalizes a dataset package in the scanner's sorted
// file order, its main file as index.js.
func packageProgs(p *dataset.Package) []*core.Program {
	srcs := map[string]string{"index.js": p.Source}
	names := []string{"index.js"}
	for n, s := range p.Extra {
		srcs[n] = s
		names = append(names, n)
	}
	sort.Strings(names)
	return normalizeFiles(names, srcs)
}

// equivalenceCorpus is every package of the ground truth, the wild
// corpus stand-in, the crash corpus and the flattened dependency
// trees, normalized.
func equivalenceCorpus() [][]*core.Program {
	vulcan, secbench := dataset.GroundTruth(1)
	var out [][]*core.Program
	for _, c := range []*dataset.Corpus{vulcan, secbench, dataset.Collected(1, dataset.DefaultCollectedMix(2000)), dataset.Pathological()} {
		for _, p := range c.Packages {
			if progs := packageProgs(p); len(progs) > 0 {
				out = append(out, progs)
			}
		}
	}
	for _, tc := range dataset.TreeCases() {
		srcs := map[string]string{}
		var names []string
		for _, f := range dataset.FlattenTree(tc) {
			srcs[f.Rel] = f.Src
			names = append(names, f.Rel)
		}
		out = append(out, normalizeFiles(names, srcs))
	}
	return out
}

// TestDenseAnalysisMatchesReference pins the dense analyzer to the
// string-keyed reference it replaced: byte-identical encoded graphs,
// identical Result fields, final store and budget steps — uncapped and
// under step and node caps that stop the analysis at different points
// (equal step counts keep fault-injection ordinals unchanged).
func TestDenseAnalysisMatchesReference(t *testing.T) {
	limits := []budget.Limits{{}, {MaxSteps: 1}, {MaxSteps: 5}, {MaxSteps: 17}, {MaxSteps: 40},
		{MaxSteps: 90}, {MaxSteps: 200}, {MaxSteps: 1000}, {MaxNodes: 30}, {MaxEdges: 60}}
	if testing.Short() {
		limits = []budget.Limits{{}, {MaxSteps: 17}, {MaxSteps: 200}, {MaxNodes: 30}}
	}
	corpus := equivalenceCorpus()
	mismatches := 0
	for i, progs := range corpus {
		for _, l := range limits {
			if d := analysis.CompareWithReference(progs, l); d != "" {
				mismatches++
				if mismatches <= 5 {
					t.Errorf("package %d (%s) limits %+v: %s", i, progs[0].FileName, l, d)
				}
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d mismatching (package, limits) pairs over %d packages", mismatches, len(corpus))
	}
}

// FuzzAnalysisEquivalence runs arbitrary sources through normalize and
// both analyzers, uncapped and under a small step cap.
func FuzzAnalysisEquivalence(f *testing.F) {
	for _, s := range []string{
		"function run(x) { return x; }\nmodule.exports = run;",
		"var x = 'ls'; function set(a, f) { if (f) { x = a; } else { x = 'pwd'; } } set(1, 2); exec(x);",
		"var x = {}; function spin(n) { while (n > 0) { x = 'pwd'; n = n - 1; } } module.exports = spin;",
		"function f(o, k, v) { o[k] = v; o.cmd = v; return o[k] + o.cmd; } module.exports = f;",
		"var l = []; l.push(a); module.exports = function (p) { return Object.assign({}, p, JSON.parse(p)).x + l.concat([p]); };",
		"for (var k in o) { if (k) { o[k] = g; } } for (var v of Object.values(o)) { h(v); } module.exports = o;",
		"var lib = require('./index'); var cp = require('child_process'); module.exports = function (c) { cp.exec(lib.run(c)); };",
		"function A(x) { this.x = x; } var a = new A(y); a.x.y = 1; module.exports = A;",
		"function outer(p) { var q = p; function inner() { while (q) { if (q.a) { q = q.a; } else { q = q.b; } } } inner(); return q; } module.exports = outer;",
		"var x = a; var z = b; function f(c) { while (c) { x = z; z = {}; } } f(1); exec(x);",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := normalize.File(src, "index.js")
		if err != nil {
			return
		}
		for _, l := range []budget.Limits{{}, {MaxSteps: 7}, {MaxNodes: 9}} {
			if d := analysis.CompareWithReference([]*core.Program{p}, l); d != "" {
				t.Fatalf("limits %+v: %s", l, d)
			}
		}
	})
}
