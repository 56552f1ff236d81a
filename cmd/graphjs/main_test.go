package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the CLI itself when the test binary is re-executed
// with GRAPHJS_RUN_MAIN set, so a test can drive real flags, output
// and exit codes without building a second binary.
func TestMain(m *testing.M) {
	if os.Getenv("GRAPHJS_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runCLI runs graphjs with args and returns its stdout and exit code.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GRAPHJS_RUN_MAIN=1")
	out, err := cmd.Output()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return string(out), code
}

const gitResetSrc = `
const { exec } = require('child_process');
function git_reset(config, op, branch_name, url) {
	var options = config[op];
	options[branch_name] = url;
	options.cmd = 'git reset HEAD~';
	exec(options.cmd + options.commit);
}
module.exports = git_reset;
`

// TestStatsSizes pins the -stats size line for the paper's running
// example. The scanner builds no CFG, so the line counts AST and CFG
// nodes from the files the scan covered; the pinned values are the
// ones the scanner reported when its front end built the CFGs. A tree
// scan covers the dependency in node_modules too; a flat scan of the
// same directory skips it.
func TestStatsSizes(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"git_reset.js":                      gitResetSrc,
		"pkg/package.json":                  `{"name":"app","version":"1.0.0","dependencies":{"dep":"2.0.0"}}`,
		"pkg/index.js":                      gitResetSrc,
		"pkg/node_modules/dep/package.json": `{"name":"dep","version":"2.0.0"}`,
		"pkg/node_modules/dep/index.js":     gitResetSrc,
	}
	writeFiles(t, dir, files)
	one := "stats: 10 LoC, 43 AST nodes, 4 CFG nodes, 23 MDG nodes, 26 MDG edges"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-stats", filepath.Join(dir, "git_reset.js")}, one},
		{[]string{"-stats", filepath.Join(dir, "pkg")}, one},
		{[]string{"-stats", "-tree", filepath.Join(dir, "pkg")}, "stats: 20 LoC, 86 AST nodes, 8 CFG nodes, 46 MDG nodes, 52 MDG edges"},
	} {
		out, code := runCLI(t, tc.args...)
		if code != 3 {
			t.Errorf("graphjs %v: exit %d, want 3 (findings)\n%s", tc.args, code, out)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("graphjs %v: no %q in\n%s", tc.args, tc.want, out)
		}
	}
}

// TestPackageDirConfirmAndDump: -confirm and the dump modes work on a
// package directory. They run over the file set the scan reads (the
// cross-file flow of examples/multifile spans index.js and
// lib/runner.js), and -confirm enters the package at index.js, instead
// of reading the directory as one file.
func TestPackageDirConfirmAndDump(t *testing.T) {
	pkg := filepath.Join("..", "..", "examples", "multifile", "pkg")
	for _, tc := range []struct {
		flag     string
		wantCode int
		want     []string
	}{
		{"-confirm", 3, []string{"[CWE-78] tainted call to exec", "confirm CWE-78: EXPLOITABLE"}},
		{"-dump-core", 0, []string{"// file: index.js", "func deploy(branch)", "// file: lib/runner.js", "func checkout(ref)"}},
		{"-dump-mdg", 0, []string{"digraph MDG", "deploy", "exec()"}},
		{"-export-db", 0, []string{`"nodes"`, `"exec()"`}},
	} {
		out, code := runCLI(t, tc.flag, pkg)
		if code != tc.wantCode {
			t.Errorf("graphjs %s %s: exit %d, want %d\n%s", tc.flag, pkg, code, tc.wantCode, out)
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("graphjs %s %s: no %q in\n%s", tc.flag, pkg, w, out)
			}
		}
	}
}
