package repro_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/scanner"
)

// BenchmarkDepsRescan measures the per-package fragment cache under
// tree scans: a dependency tree is scanned cold (every package's
// fragment built from scratch) and warm after editing exactly one
// dependency (only that package's fragment rebuilds; the rest
// rehydrate from the shared state). It reports cold-ms and warm-ms and
// asserts their speedup ≥2×, the tree-scan acceptance bar.
func BenchmarkDepsRescan(b *testing.B) {
	// Analysis-heavy dependency body (nested loops drive the abstract
	// interpreter), mirroring the store benchmark's package shape so
	// per-package build cost dominates stitching and detection.
	var heavy bytes.Buffer
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&heavy, "function helper%d(v) { var o = {}; for (var i = 0; i < 10; i++) { for (var j = 0; j < 8; j++) { var t = {}; t.a = v; t.b = o; o.x = t; o = t; } } return o; }\n", i)
	}
	heavy.WriteString("module.exports = helper0;\n")

	// Root package: one real vulnerable flow through the runner
	// dependency, plus five heavy libraries the edit cycles through.
	libs := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	tree := func(rev int) []scanner.SourceFile {
		root := "var run = require('runner');\n"
		manifest := `{"name":"app","version":"1.0.0","dependencies":{"runner":"^1.0.0"`
		for _, l := range libs {
			root += fmt.Sprintf("var %s = require('%s');\n", l, l)
			manifest += fmt.Sprintf(",%q:\"^1.0.0\"", l)
		}
		manifest += "}}"
		root += "module.exports = function entry(x) { run('git ' + x); };\n"
		files := []scanner.SourceFile{
			{Rel: "package.json", Src: manifest},
			{Rel: "index.js", Src: root},
			{Rel: "node_modules/runner/package.json", Src: `{"name":"runner","version":"1.0.0","main":"index.js"}`},
			{Rel: "node_modules/runner/index.js", Src: "const { exec } = require('child_process');\nmodule.exports = function r(c) { exec(c); };\n"},
		}
		for i, l := range libs {
			src := heavy.String()
			if i == 0 {
				// The one-dependency edit: each revision changes only
				// alpha's lowered program (a comment would leave it,
				// and every cache below the front end, unchanged), so a
				// warm re-scan rebuilds only alpha's fragment.
				src += fmt.Sprintf("var rev = %d;\n", rev)
			}
			files = append(files,
				scanner.SourceFile{Rel: "node_modules/" + l + "/package.json",
					Src: fmt.Sprintf(`{"name":%q,"version":"1.0.0","main":"index.js"}`, l)},
				scanner.SourceFile{Rel: "node_modules/" + l + "/index.js", Src: src})
		}
		sort.Slice(files, func(i, j int) bool { return files[i].Rel < files[j].Rel })
		return files
	}
	pkgs := len(libs) + 2 // root, runner, and the heavy libraries
	opts := scanner.Options{Timeout: time.Minute, Tree: true}

	// Seed the warm state with the rev-0 tree so every later warm scan
	// starts from a fully populated per-package fragment cache.
	warm := scanner.NewIncrementalState()
	so := opts
	so.Incremental = warm
	rep := scanner.ScanFiles(tree(0), "app", so)
	if rep.Err != nil || len(rep.Findings) == 0 || rep.TreePackages != pkgs {
		b.Fatalf("seed tree scan: err=%v findings=%d packages=%d", rep.Err, len(rep.Findings), rep.TreePackages)
	}

	var coldT, warmT time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		files := tree(i + 1)

		co := opts
		co.Incremental = scanner.NewIncrementalState()
		t0 := time.Now()
		rc := scanner.ScanFiles(files, "app", co)
		coldT += time.Since(t0)

		// Warm: the same tree with one dependency edited since the
		// previous round — only that package's fragment rebuilds.
		before := warm.Stats().FragmentMisses
		wo := opts
		wo.Incremental = warm
		t1 := time.Now()
		rw := scanner.ScanFiles(files, "app", wo)
		warmT += time.Since(t1)

		if rc.Err != nil || rw.Err != nil {
			b.Fatalf("scan errors: cold=%v warm=%v", rc.Err, rw.Err)
		}
		if len(rc.Findings) == 0 || len(rc.Findings) != len(rw.Findings) {
			b.Fatalf("finding mismatch: cold %d, warm %d", len(rc.Findings), len(rw.Findings))
		}
		if got := warm.Stats().FragmentMisses - before; got != 1 {
			b.Fatalf("one-dependency edit rebuilt %d fragments, want 1", got)
		}
	}
	b.StopTimer()
	speedupBar.check(b, perIter(b, coldT), perIter(b, warmT))
}
