package scanner

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/queries"
)

// The tree-equivalence oracle: scanning a dependency tree with
// stitched per-package fragments must produce byte-identical findings
// to scanning the same code flattened into one package (bare requires
// rewritten to relative paths). The flattened scan is the reference —
// it uses only the long-tested single-package pipeline — so any
// divergence is a bug in the resolver, the stitcher, or the
// cross-package linker.

func treeSources(files []dataset.TreeFile) []SourceFile {
	out := make([]SourceFile, len(files))
	for i, f := range files {
		out[i] = SourceFile{Rel: f.Rel, Src: f.Src}
	}
	return out
}

// findingIdentity projects a finding onto the tuple that defines
// differential identity (witness paths and provenance excluded).
func findingIdentity(f queries.Finding) string {
	return fmt.Sprintf("%s|%s|%s|%d|%s", f.CWE, f.SinkName, f.SinkFile, f.SinkLine, f.Source)
}

func identityList(fs []queries.Finding) string {
	ids := make([]string, len(fs))
	for i, f := range fs {
		ids[i] = findingIdentity(f)
	}
	return strings.Join(ids, "\n")
}

var treeOracleEngines = []Engine{EngineQuery, EngineNative, EngineFallback}

func TestTreeEquivalenceOracle(t *testing.T) {
	for _, tc := range dataset.TreeCases() {
		for _, eng := range treeOracleEngines {
			tc, eng := tc, eng
			t.Run(tc.Name+"/"+string(eng), func(t *testing.T) {
				t.Parallel()
				opts := Options{Engine: eng, Timeout: 30 * time.Second}
				topts := opts
				topts.Tree = true
				treeRep := ScanFiles(treeSources(tc.Files), tc.Name, topts)
				flatRep := ScanFiles(treeSources(dataset.FlattenTree(tc)), tc.Name+"-flat", opts)

				if treeRep.Err != nil || treeRep.Failure != budget.ClassNone {
					t.Fatalf("tree scan failed: class=%q err=%v", treeRep.Failure, treeRep.Err)
				}
				if flatRep.Err != nil || flatRep.Failure != budget.ClassNone {
					t.Fatalf("flat scan failed: class=%q err=%v", flatRep.Failure, flatRep.Err)
				}
				got, want := identityList(treeRep.Findings), identityList(flatRep.Findings)
				if got != want {
					t.Fatalf("tree findings diverge from flattened reference\ntree:\n%s\nflat:\n%s", got, want)
				}

				if treeRep.TreePackages != tc.Packages {
					t.Errorf("TreePackages = %d, want %d", treeRep.TreePackages, tc.Packages)
				}
				if treeRep.TreeDepth != tc.Depth {
					t.Errorf("TreeDepth = %d, want %d", treeRep.TreeDepth, tc.Depth)
				}

				if !tc.Vulnerable {
					if len(treeRep.Findings) != 0 {
						t.Fatalf("benign tree produced findings:\n%s", got)
					}
					return
				}

				// Ground truth: the vulnerable variant yields exactly the
				// annotated sinks, at their file-qualified lines.
				type sinkKey struct {
					cwe  queries.CWE
					file string
					line int
				}
				wantSinks := map[sinkKey]bool{}
				for _, a := range tc.Annotated {
					wantSinks[sinkKey{a.CWE, a.File, a.Line}] = true
				}
				gotSinks := map[sinkKey]bool{}
				for _, f := range treeRep.Findings {
					gotSinks[sinkKey{f.CWE, f.SinkFile, f.SinkLine}] = true
				}
				if len(gotSinks) != len(wantSinks) {
					t.Fatalf("sinks %v, want %v", gotSinks, wantSinks)
				}
				for k := range wantSinks {
					if !gotSinks[k] {
						t.Errorf("annotated sink %v not found (got %v)", k, gotSinks)
					}
				}

				// Every tree finding carries dependency-hop provenance.
				for _, f := range treeRep.Findings {
					if len(f.Provenance.DepPath) == 0 {
						t.Errorf("finding %s has no DepPath", findingIdentity(f))
					}
					for _, hop := range f.Provenance.DepPath {
						if hop == "(unresolved)" {
							t.Errorf("finding %s has unresolved DepPath", findingIdentity(f))
						}
					}
				}
			})
		}
	}
}

// TestTreeProvenanceShadowed pins the provenance detail that matters
// most: in the shadowed-nested fixture the finding's dependency path
// must name the *nested* filter copy (innermost wins), with its
// version and node_modules directory, and the call-path hops must be
// package-qualified.
func TestTreeProvenanceShadowed(t *testing.T) {
	var tc dataset.TreeCase
	for _, c := range dataset.TreeCases() {
		if c.Name == "tree-shadowed" {
			tc = c
		}
	}
	if tc.Name == "" {
		t.Fatal("tree-shadowed fixture missing")
	}
	rep := ScanFiles(treeSources(tc.Files), tc.Name, Options{Tree: true, Timeout: 30 * time.Second})
	if rep.Err != nil || len(rep.Findings) == 0 {
		t.Fatalf("scan: err=%v findings=%d", rep.Err, len(rep.Findings))
	}
	found := false
	for _, f := range rep.Findings {
		if f.SinkFile != "node_modules/helper/node_modules/filter/index.js" {
			continue
		}
		found = true
		dep := strings.Join(f.Provenance.DepPath, " -> ")
		if !strings.Contains(dep, "filter@1.0.9 (node_modules/helper/node_modules/filter)") {
			t.Errorf("DepPath %q does not name the nested shadowed copy", dep)
		}
		if strings.Contains(dep, "filter@2.1.0") {
			t.Errorf("DepPath %q names the top-level (shadowed-out) copy", dep)
		}
		for _, h := range f.Provenance.Hops {
			if strings.Count(h, ":") < 2 {
				t.Errorf("hop %q is not pkg:file:name qualified", h)
			}
		}
	}
	if !found {
		t.Fatalf("no finding in the nested shadowed copy; findings:\n%s", identityList(rep.Findings))
	}
}

// TestTreeScanWorkers runs every tree fixture across 4 workers sharing
// one StatePool (the graphjsd shape), twice per case so warm re-scans
// race against cold builds elsewhere; results must match the serial
// reference exactly. Run under -race this doubles as the stitcher's
// data-race gate.
func TestTreeScanWorkers(t *testing.T) {
	cases := dataset.TreeCases()
	serial := make(map[string]string, len(cases))
	for _, tc := range cases {
		rep := ScanFiles(treeSources(tc.Files), tc.Name, Options{Tree: true, Timeout: 30 * time.Second})
		if rep.Err != nil {
			t.Fatalf("%s: serial scan: %v", tc.Name, rep.Err)
		}
		serial[tc.Name] = identityList(rep.Findings)
	}

	pool := NewStatePool()
	jobs := make(chan dataset.TreeCase)
	var wg sync.WaitGroup
	errc := make(chan error, len(cases)*2)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tc := range jobs {
				for round := 0; round < 2; round++ {
					opts := Options{
						Tree:        true,
						Timeout:     30 * time.Second,
						Incremental: pool.Get(tc.Name),
					}
					rep := ScanFiles(treeSources(tc.Files), tc.Name, opts)
					if rep.Err != nil {
						errc <- fmt.Errorf("%s: %v", tc.Name, rep.Err)
						continue
					}
					if got := identityList(rep.Findings); got != serial[tc.Name] {
						errc <- fmt.Errorf("%s round %d: findings diverge\ngot:\n%s\nwant:\n%s",
							tc.Name, round, got, serial[tc.Name])
					}
				}
			}
		}()
	}
	for _, tc := range cases {
		jobs <- tc
	}
	close(jobs)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestTreeWarmRescan: after editing one dependency, a warm re-scan
// rebuilds only that package's fragment and updates the findings.
func TestTreeWarmRescan(t *testing.T) {
	var tc dataset.TreeCase
	for _, c := range dataset.TreeCases() {
		if c.Name == "tree-diamond" {
			tc = c
		}
	}
	st := NewIncrementalState()
	opts := Options{Tree: true, Timeout: 30 * time.Second, Incremental: st}

	cold := ScanFiles(treeSources(tc.Files), tc.Name, opts)
	if cold.Err != nil || len(cold.Findings) == 0 {
		t.Fatalf("cold: err=%v findings=%d", cold.Err, len(cold.Findings))
	}
	if cold.IncrStats == nil || cold.IncrStats.FragmentMisses != tc.Packages {
		t.Fatalf("cold stats %+v, want %d fragment misses", cold.IncrStats, tc.Packages)
	}

	// Identical warm re-scan: all fragments reused.
	warm := ScanFiles(treeSources(tc.Files), tc.Name, opts)
	if warm.IncrStats.FragmentMisses != tc.Packages {
		t.Fatalf("unchanged re-scan rebuilt fragments: %+v", warm.IncrStats)
	}
	if identityList(warm.Findings) != identityList(cold.Findings) {
		t.Fatalf("warm findings diverge from cold")
	}

	// Edit one dependency (defuse core's sink): exactly one fragment
	// rebuilds and the finding disappears.
	edited := make([]dataset.TreeFile, len(tc.Files))
	copy(edited, tc.Files)
	for i, f := range edited {
		if f.Rel == "node_modules/core/index.js" {
			edited[i].Src = strings.ReplaceAll(f.Src, "eval('fn(' + t + ')')", "eval('fn()')")
		}
	}
	before := warm.IncrStats.FragmentMisses
	after := ScanFiles(treeSources(edited), tc.Name, opts)
	if after.Err != nil {
		t.Fatalf("edited scan: %v", after.Err)
	}
	if rebuilt := after.IncrStats.FragmentMisses - before; rebuilt != 1 {
		t.Fatalf("one-dep edit rebuilt %d fragments, want 1", rebuilt)
	}
	if len(after.Findings) != 0 {
		t.Fatalf("defused dependency still yields findings:\n%s", identityList(after.Findings))
	}
}

// TestTreeStitchLinkPhase: the stitch+link pass is its own phase row,
// not time charged to analysis, on every tree the gate does not skip.
func TestTreeStitchLinkPhase(t *testing.T) {
	stitched := 0
	for _, tc := range dataset.TreeCases() {
		rep := ScanFiles(treeSources(tc.Files), tc.Name, Options{Tree: true, Timeout: 30 * time.Second})
		if rep.Err != nil {
			t.Fatalf("%s: %v", tc.Name, rep.Err)
		}
		names := phaseNames(rep)
		if rep.SkippedByReach {
			continue
		}
		if len(names) < 5 || !reflect.DeepEqual(names[:5], []string{"front-end", "reach-gate", "partition", "analysis", "stitch-link"}) {
			t.Errorf("%s: phases %v, want stitch-link right after analysis", tc.Name, names)
		}
		stitched++
	}
	if stitched == 0 {
		t.Fatal("every tree case was skipped by the reach gate; the test is vacuous")
	}
}

// TestTreeResolveFailure: a declared-but-missing dependency is a
// classified, deterministic failure, not a silent partial scan.
func TestTreeResolveFailure(t *testing.T) {
	files := []SourceFile{
		{Rel: "package.json", Src: `{"name":"broken","version":"1.0.0","dependencies":{"gone":"^1.0.0"}}`},
		{Rel: "index.js", Src: "var g = require('gone');\nmodule.exports = function (x) { g.run(x); };\n"},
	}
	rep := ScanFiles(files, "broken", Options{Tree: true})
	if rep.Failure != budget.ClassResolve {
		t.Fatalf("Failure = %q, want %q (err %v)", rep.Failure, budget.ClassResolve, rep.Err)
	}
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "gone") {
		t.Fatalf("error %v does not name the missing dependency", rep.Err)
	}
}

// FuzzCrossStitch mutates a dependency's source and the root's require
// specifier in the direct-dependency fixture: whatever the inputs, a
// tree scan must never panic, must end in a known failure class, and
// every finding of a clean scan must carry dependency provenance.
func FuzzCrossStitch(f *testing.F) {
	f.Add("const { exec } = require('child_process');\nexports.run = function (c) { exec(c); };\n", "dep")
	f.Add("module.exports = { run: function (x) { return require('dep'); } };\n", "dep/extra")
	f.Add("", "@org/dep")
	f.Add("exports.run = 1;\n", "../escape")
	f.Add("function f(a) { return f(a); }\nmodule.exports = f;\n", "nope")
	f.Fuzz(func(t *testing.T, depSrc, spec string) {
		if len(depSrc) > 4096 || len(spec) > 64 || strings.ContainsAny(spec, "'\\\n") {
			t.Skip()
		}
		files := []SourceFile{
			{Rel: "index.js", Src: "var d = require('" + spec + "');\nfunction go(input) { d.run(input); }\nmodule.exports = go;\n"},
			{Rel: "node_modules/dep/index.js", Src: depSrc},
			{Rel: "node_modules/dep/package.json", Src: `{"name":"dep","version":"1.0.0"}`},
			{Rel: "package.json", Src: `{"name":"fuzz-root","version":"1.0.0"}`},
		}
		rep := ScanFiles(files, "fuzz-tree", Options{
			Tree:     true,
			Timeout:  5 * time.Second,
			MaxSteps: 200000,
		})
		known := false
		for _, c := range append([]budget.Class{budget.ClassNone}, budget.Classes...) {
			if rep.Failure == c {
				known = true
			}
		}
		if !known {
			t.Fatalf("unknown failure class %q", rep.Failure)
		}
		if rep.Failure == budget.ClassNone && rep.Err == nil {
			for _, fd := range rep.Findings {
				if len(fd.Provenance.DepPath) == 0 {
					t.Fatalf("finding %s has no DepPath", findingIdentity(fd))
				}
			}
		}
	})
}
