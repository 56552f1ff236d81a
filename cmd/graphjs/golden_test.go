package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFiles writes rel → content under dir.
func writeFiles(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for rel, src := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenTree is a package with a node_modules dependency, a cross-file
// module, and files every walk must skip (a nested test directory, a
// minified bundle, a dependency's tests).
var goldenTree = map[string]string{
	"pkg/package.json":                   `{"name":"app","version":"1.0.0","dependencies":{"dep":"2.0.0"}}`,
	"pkg/index.js":                       "var dep = require('dep');\nvar util = require('./lib/util');\nmodule.exports = function (c, o, b, u) { util(c, o, b, u); return dep; };\n",
	"pkg/lib/util.js":                    gitResetSrc,
	"pkg/test/spec.js":                   "module.exports = function (a) { eval(a); };\n",
	"pkg/bundle.min.js":                  "module.exports = function (a) { eval(a); };\n",
	"pkg/node_modules/dep/package.json":  `{"name":"dep","version":"2.0.0"}`,
	"pkg/node_modules/dep/index.js":      gitResetSrc,
	"pkg/node_modules/dep/tests/spec.js": "module.exports = function (a) { eval(a); };\n",
	"single/git_reset.js":                gitResetSrc,
	"single/benign.js":                   "function add(a, b) { return a + b; }\nmodule.exports = add;\n",
}

// TestGoldenOutput pins the CLI's human output, plain, -tree and
// -sweep, over the examples, a node_modules tree and two file targets,
// so a change to how targets are read, scanned or hashed cannot change
// what the CLI prints. GRAPHJS_UPDATE_GOLDEN=1 rewrites the golden
// file; review its diff like code.
func TestGoldenOutput(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, dir, goldenTree)
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "*"))
	if err != nil || len(examples) == 0 {
		t.Fatalf("no examples: %v", err)
	}
	targets := append(examples,
		filepath.Join(dir, "pkg"),
		filepath.Join(dir, "single", "git_reset.js"),
		filepath.Join(dir, "single", "benign.js"))
	var got strings.Builder
	for _, mode := range [][]string{nil, {"-tree"}, {"-sweep"}, {"-sweep", "-tree"}} {
		out, code := runCLI(t, append(append([]string{}, mode...), targets...)...)
		fmt.Fprintf(&got, "$ graphjs %s <targets> (exit %d)\n%s", strings.Join(mode, " "), code,
			strings.ReplaceAll(out, dir, "$DIR"))
	}
	golden := filepath.Join("testdata", "golden.txt")
	if os.Getenv("GRAPHJS_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("CLI output differs from %s:\n--- got\n%s--- want\n%s", golden, got.String(), want)
	}
}

// TestScanPackageNamedTest: the walker's test-directory skip applies
// inside a package, never to the package directory itself, so a
// package named test is scanned like any other, flat, as a tree and
// in a sweep.
func TestScanPackageNamedTest(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, dir, map[string]string{"test/index.js": gitResetSrc})
	target := filepath.Join(dir, "test")
	for _, mode := range [][]string{nil, {"-tree"}, {"-sweep"}} {
		out, code := runCLI(t, append(append([]string{}, mode...), target)...)
		if code != 3 || !strings.Contains(out, "CWE-78") {
			t.Errorf("graphjs %v %s: exit %d, want 3 with a CWE-78 finding\n%s", mode, target, code, out)
		}
	}
}
