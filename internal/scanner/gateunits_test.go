package scanner

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exports"
	"repro/internal/reach"
)

// packageSources lists a dataset package's files in sorted Rel order,
// its main file as index.js.
func packageSources(p *dataset.Package) []SourceFile {
	files := []SourceFile{{Rel: "index.js", Src: p.Source}}
	for rel, src := range p.Extra {
		files = append(files, SourceFile{Rel: rel, Src: src})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Rel < files[j].Rel })
	return files
}

// bundles groups packages k at a time into multi-file packages of
// independent modules (index.js, lib/m1.js, ...), the shape of a
// package whose files fall into several require-components.
func bundles(pkgs []*dataset.Package, k int) [][]SourceFile {
	var out [][]SourceFile
	for i := 0; i+k <= len(pkgs); i += k {
		var files []SourceFile
		for j, p := range pkgs[i : i+k] {
			rel := "index.js"
			if j > 0 {
				rel = fmt.Sprintf("lib/m%d.js", j)
			}
			files = append(files, SourceFile{Rel: rel, Src: p.Source})
		}
		sort.Slice(files, func(a, b int) bool { return files[a].Rel < files[b].Rel })
		out = append(out, files)
	}
	return out
}

// slowChain is a file whose export fixpoint needs more passes than the
// pass cap allows: a function value moves one assignment back per
// pass.
func slowChain() string {
	var sb strings.Builder
	for i := 1; i <= 12; i++ {
		fmt.Fprintf(&sb, "var a%d = a%d;\n", i, i+1)
	}
	sb.WriteString("var a13 = slow;\nfunction slow(z) { eval(z); }\nmodule.exports = a1;\n")
	return sb.String()
}

// gateEdgeCases are packages whose units exercise the merge's package-
// wide decisions: a component whose files are not adjacent in package
// order, and a unit that does not converge next to one with exports.
func gateEdgeCases() [][]SourceFile {
	return [][]SourceFile{
		{
			{Rel: "a.js", Src: "var c = require('./c');\nfunction fa(x) { c.run(x); }\nmodule.exports = fa;\n"},
			{Rel: "b.js", Src: "function fb(y) { eval(y); }\nmodule.exports = fb;\n"},
			{Rel: "c.js", Src: "exports.run = function fc(z) { return z; };\nfunction helper() {}\n"},
		},
		{
			{Rel: "chain.js", Src: slowChain()},
			{Rel: "lib.js", Src: "function api(q) { eval(q); }\nmodule.exports = api;\n"},
		},
	}
}

// gateBoth runs the reach gate over files twice: as a retained flat
// scan does (one export unit per require-component, merged) and as a
// cold scan does (one pass over every file). Files that fail to parse
// are dropped, as the front end drops them.
func gateBoth(files []SourceFile) (units, whole *reach.Result, progs []*core.Program, comps int) {
	var rels []string
	var facts []*fileFacts
	st := &IncrementalState{}
	for _, f := range files {
		fe, err := st.frontEnd(f.Rel, f.Src, nil)
		if err != nil {
			continue
		}
		rels = append(rels, f.Rel)
		progs = append(progs, fe.prog)
		facts = append(facts, extractFacts(fe.prog))
	}
	parts := partitionComponents(rels, facts)
	us := make([]*exports.Unit, len(parts))
	for i, idx := range parts {
		cprogs := make([]*core.Program, len(idx))
		for j, k := range idx {
			cprogs[j] = progs[k]
		}
		us[i] = exports.AnalyzeUnit(cprogs, nil)
	}
	return reach.AnalyzeUnits(progs, us, nil, nil), reach.AnalyzeBudget(progs, nil, nil), progs, len(parts)
}

// dumpReach renders every observable of a gate result: its fields, the
// export graph's fields, every function's reachability, and the owner
// and provenance of every line of every file.
func dumpReach(r *reach.Result, progs []*core.Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "total=%d pruned=%d fallback=%v sources=%v sink=%v pollution=%v exports=%d escaped=%d converged=%v\n",
		r.TotalFuncs, r.PrunedFuncs, r.Fallback, r.HasSources, r.SinkReachable, r.PollutionPossible,
		r.ExportCount, r.EscapedFuncs, r.Converged)
	fmt.Fprintf(&sb, "reachable %v\n", r.Reachable)
	e := r.Exports
	fmt.Fprintf(&sb, "exports %+v\norder %v\ncalls %v\nexported %v\nescaped %v\nfallback=%v converged=%v\n",
		e.Exports, e.Order, e.Calls, e.Exported, e.Escaped, e.Fallback, e.Converged)
	names := make([]string, 0, len(e.Funcs))
	for q := range e.Funcs {
		names = append(names, q)
	}
	sort.Strings(names)
	for _, q := range names {
		fi := e.Funcs[q]
		fmt.Fprintf(&sb, "func %s def=%p file=%s owner=%s reach=%v\n", fi.QName, fi.Def, fi.File, fi.Owner, e.Reachable(q))
	}
	for _, p := range progs {
		maxLine := 0
		core.Walk(p.Body, func(s core.Stmt) bool {
			maxLine = max(maxLine, s.Line())
			return true
		})
		for ln := -1; ln <= maxLine+1; ln++ {
			entry, hops, ok := e.PathTo(p.FileName, ln)
			fmt.Fprintf(&sb, "%s:%d owner=%q path=%q %v %v\n", p.FileName, ln, e.OwnerOf(p.FileName, ln), entry, hops, ok)
		}
	}
	return sb.String()
}

// firstLineDiff returns the first differing line of two dumps.
func firstLineDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  units: %s\n  whole: %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(al), len(bl))
}

// TestGateUnitsMatchWholePackage is the oracle for the per-component
// gate: over every oracle package, 5-module bundles of them and the
// flattened dependency trees, the merged per-unit result equals the
// whole-package pass in every reach.Result field and in PathTo and
// OwnerOf for every line.
func TestGateUnitsMatchWholePackage(t *testing.T) {
	for i, files := range gateEdgeCases() {
		units, whole, _, comps := gateBoth(files)
		if comps != 2 {
			t.Fatalf("edge case %d: %d units, want 2", i, comps)
		}
		if i == 1 && (whole.Converged || !units.Fallback) {
			t.Fatalf("edge case %d: the chain converged; it no longer tests the merge's fallback rule", i)
		}
	}
	pkgs := oraclePackages()
	var inputs [][]SourceFile
	for _, p := range pkgs {
		inputs = append(inputs, packageSources(p))
	}
	inputs = append(inputs, bundles(pkgs, 5)...)
	for _, tc := range dataset.TreeCases() {
		inputs = append(inputs, treeSources(dataset.FlattenTree(tc)))
	}
	inputs = append(inputs, gateEdgeCases()...)
	split, mismatches := 0, 0
	for _, files := range inputs {
		units, whole, progs, comps := gateBoth(files)
		if comps > 1 {
			split++
		}
		if u, w := dumpReach(units, progs), dumpReach(whole, progs); u != w {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("package %s (%d files, %d units): %s", files[0].Rel, len(files), comps, firstLineDiff(u, w))
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d packages mismatch", mismatches, len(inputs))
	}
	t.Logf("%d of %d packages split into several units", split, len(inputs))
	if split < len(inputs)/10 {
		t.Fatalf("only %d of %d packages split into several units; the oracle is nearly vacuous", split, len(inputs))
	}
}

// FuzzGateUnits fuzzes the per-component gate against the whole-
// package pass on three-file packages whose files may require each
// other, share globals, or stand alone.
func FuzzGateUnits(f *testing.F) {
	f.Add(gitResetSrc, "module.exports = function (x) { return x; };", "var h = require('../index');\nmodule.exports = h;")
	f.Add("var lib = require('./lib');\nmodule.exports = { run: lib.run };", "exports.run = function (c) { eval(c); };", "function dead(y) { eval(y); }")
	f.Add("shared = function (a) { eval(a); };", "module.exports = function (b) { shared(b); };", "var u = require('./util/x');\nu(go);\nfunction go(z) { eval(z); }")
	f.Add("function f(o, k, v) { o[k] = v; }", "var f2 = require('./index.js');\nmodule.exports = f2;", "module.exports = require('./helper');")
	f.Add("var x = require('./util/x');\nfunction a(p) { x(p); }\nmodule.exports = a;", "function b(q) { eval(q); }", "module.exports = function c(r) { return r; };")
	f.Add(slowChain(), "function api(q) { eval(q); }\nmodule.exports = api;", "")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		if len(a)+len(b)+len(c) > 4096 {
			t.Skip("large input")
		}
		files := []SourceFile{{Rel: "index.js", Src: a}, {Rel: "lib.js", Src: b}, {Rel: "util/x.js", Src: c}}
		units, whole, progs, comps := gateBoth(files)
		if u, w := dumpReach(units, progs), dumpReach(whole, progs); u != w {
			t.Fatalf("%d units: %s", comps, firstLineDiff(u, w))
		}
	})
}

// TestGateUnitCachedAcrossEdit: a one-file edit of a package whose
// files are independent re-runs the export pass for the edited file's
// component only; the other units are served from the state, and the
// report's gate counters equal a cold scan's. The edit changes the
// file's lowered program (TestGateUnitCachedAcrossCommentEdit covers
// one that does not).
func TestGateUnitCachedAcrossEdit(t *testing.T) {
	files := []SourceFile{
		{Rel: "a.js", Src: gitResetSrc},
		{Rel: "b.js", Src: "function b(x) { return x; }\nmodule.exports = b;\n"},
		{Rel: "c.js", Src: "exports.c = function (y) { return y + 1; };\n"},
	}
	st := NewIncrementalState()
	first := ScanFiles(files, "pkg", Options{Incremental: st})
	if s := first.IncrStats; s.GateMisses != 3 || s.GateHits != 0 {
		t.Fatalf("first scan: gate hits/misses %d/%d, want 0/3", s.GateHits, s.GateMisses)
	}
	edited := append([]SourceFile(nil), files...)
	edited[1].Src = "function b(x) { return x + 1; }\nmodule.exports = b;\n"
	warm := ScanFiles(edited, "pkg", Options{Incremental: st})
	if s := warm.IncrStats; s.GateMisses != 4 || s.GateHits != 2 {
		t.Fatalf("after a one-file edit: gate hits/misses %d/%d, want 2/4 (one unit re-run)", s.GateHits, s.GateMisses)
	}
	cold := ScanFiles(edited, "pkg", Options{})
	if warm.FuncsTotal != cold.FuncsTotal || warm.FuncsPruned != cold.FuncsPruned ||
		warm.ExportCount != cold.ExportCount || warm.ReachFallback != cold.ReachFallback ||
		warm.SkippedByReach != cold.SkippedByReach || warm.ProvenanceDepth != cold.ProvenanceDepth {
		t.Fatalf("warm gate counters differ from cold:\n  warm %+v\n  cold %+v", warm, cold)
	}
	sameFindings(t, cold, warm)
	if len(st.gates) != 3 {
		t.Fatalf("%d gate units retained, want 3 (the edited file's old unit evicted)", len(st.gates))
	}

	// Deleting a file drops its unit with its front-end entry.
	ScanFiles(edited[:2], "pkg", Options{Incremental: st})
	for _, ge := range st.gates {
		for _, rel := range ge.rels {
			if rel == "c.js" {
				t.Fatalf("unit of deleted c.js still cached")
			}
		}
	}
}

// TestGateUnitCachedAcrossCommentEdit: an edit that leaves the file's
// lowered program unchanged re-runs no export pass: every unit is
// served from the state, and the report still equals a cold scan's.
func TestGateUnitCachedAcrossCommentEdit(t *testing.T) {
	files := []SourceFile{
		{Rel: "a.js", Src: gitResetSrc},
		{Rel: "b.js", Src: "function b(x) { return x; }\nmodule.exports = b;\n"},
		{Rel: "c.js", Src: "exports.c = function (y) { return y + 1; };\n"},
	}
	st := NewIncrementalState()
	first := ScanFiles(files, "pkg", Options{Incremental: st}).IncrStats
	edited := append([]SourceFile(nil), files...)
	edited[1].Src += "// edited\n"
	warm := ScanFiles(edited, "pkg", Options{Incremental: st})
	if hits, misses := warm.IncrStats.GateHits-first.GateHits, warm.IncrStats.GateMisses-first.GateMisses; hits != 3 || misses != 0 {
		t.Fatalf("after a comment-only edit: gate hits/misses %d/%d, want 3/0", hits, misses)
	}
	cold := ScanFiles(edited, "pkg", Options{})
	if warm.FuncsTotal != cold.FuncsTotal || warm.FuncsPruned != cold.FuncsPruned ||
		warm.ExportCount != cold.ExportCount || warm.ProvenanceDepth != cold.ProvenanceDepth {
		t.Fatalf("warm gate counters differ from cold:\n  warm %+v\n  cold %+v", warm, cold)
	}
	sameFindings(t, cold, warm)
}

// TestGateUnitNotCachedAfterTrip: a unit whose export pass ran while
// the budget tripped is used for that scan only; the next scan of the
// same state recomputes it and matches a cold scan.
func TestGateUnitNotCachedAfterTrip(t *testing.T) {
	files := []SourceFile{
		{Rel: "a.js", Src: gitResetSrc},
		{Rel: "b.js", Src: "function b(x) { return x; }\nmodule.exports = b;\n"},
	}
	cold := ScanFiles(files, "pkg", Options{})
	steps := map[string]int{}
	for _, u := range cold.Phases {
		steps[u.Phase] = u.Steps
	}
	st := NewIncrementalState()
	capped := ScanFiles(files, "pkg", Options{Incremental: st, MaxSteps: steps["front-end"] + steps["reach-gate"]/2})
	if capped.ExhaustedPhase != "reach-gate" {
		t.Fatalf("the cap tripped in %q, want reach-gate (phases %+v)", capped.ExhaustedPhase, cold.Phases)
	}
	warm := ScanFiles(files, "pkg", Options{Incremental: st})
	if warm.ReachFallback != cold.ReachFallback || warm.FuncsPruned != cold.FuncsPruned || warm.ExportCount != cold.ExportCount {
		t.Fatalf("scan after a tripped gate: fallback=%v pruned=%d exports=%d, cold: %v %d %d",
			warm.ReachFallback, warm.FuncsPruned, warm.ExportCount, cold.ReachFallback, cold.FuncsPruned, cold.ExportCount)
	}
	sameFindings(t, cold, warm)
}

// TestSkippedScanEvictsStaleUnits: a scan the gate ends is complete, so
// it drops the units and fragments of edited files like a full scan
// does; a package the gate always skips does not grow its state with
// every edit.
func TestSkippedScanEvictsStaleUnits(t *testing.T) {
	files := []SourceFile{
		{Rel: "a.js", Src: "function add(a, b) { return a + b; }\nmodule.exports = add;\n"},
		{Rel: "b.js", Src: "exports.id = function (x) { return x; };\n"},
	}
	st := NewIncrementalState()
	for rev := 0; rev < 3; rev++ {
		files[0].Src += fmt.Sprintf("// edit %d\n", rev)
		if rep := ScanFiles(files, "benign", Options{Incremental: st}); !rep.SkippedByReach {
			t.Fatalf("revision %d was not skipped by the gate", rev)
		}
	}
	if len(st.gates) != 2 {
		t.Fatalf("%d gate units retained after 3 skipped edits, want 2", len(st.gates))
	}
}
