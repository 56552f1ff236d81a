package metrics

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/scanner"
	"repro/internal/sweepjournal"
)

// Dependency-tree targets through the supervised sweep: resolver
// failures must be terminal on the first rung (a broken node_modules
// layout is deterministic — no retry, no ladder descent can fix it),
// while structurally odd but valid trees (require cycles, non-index
// mains, nested shadowing) complete normally with their findings
// journaled.

// treeTarget adapts an in-memory tree fixture to a sweep Target.
func treeTarget(name string, files []scanner.SourceFile) Target {
	fmap := make(map[string]string, len(files))
	for _, f := range files {
		fmap[f.Rel] = f.Src
	}
	return Target{
		Name: name,
		Hash: func() string { return sweepjournal.ContentHashFiles(fmap) },
		Scan: func(opts scanner.Options) *scanner.Report {
			opts.Tree = true
			return scanner.ScanFiles(files, name, opts)
		},
	}
}

func sourceFiles(fs []dataset.TreeFile) []scanner.SourceFile {
	out := make([]scanner.SourceFile, len(fs))
	for i, f := range fs {
		out[i] = scanner.SourceFile{Rel: f.Rel, Src: f.Src}
	}
	return out
}

func TestSupervisedTreeTargets(t *testing.T) {
	missingDep := []scanner.SourceFile{
		{Rel: "package.json", Src: `{"name":"missing","version":"1.0.0","dependencies":{"gone":"^1.0.0"}}`},
		{Rel: "index.js", Src: "var g = require('gone');\nmodule.exports = function (x) { g.run(x); };\n"},
	}
	badManifest := []scanner.SourceFile{
		{Rel: "package.json", Src: `{"name":"bad"`},
		{Rel: "index.js", Src: "module.exports = function (x) { return x; };\n"},
	}
	requireCycle := []scanner.SourceFile{
		{Rel: "package.json", Src: `{"name":"cycle-root","version":"1.0.0","dependencies":{"ping":"^1.0.0","pong":"^1.0.0"}}`},
		{Rel: "index.js", Src: "var ping = require('ping');\nmodule.exports = function (x) { ping.hit(x); };\n"},
		{Rel: "node_modules/ping/package.json", Src: `{"name":"ping","version":"1.0.0","dependencies":{"pong":"^1.0.0"}}`},
		{Rel: "node_modules/ping/index.js", Src: "var pong = require('pong');\nmodule.exports = { hit: function (a) { return pong.back(a); } };\n"},
		{Rel: "node_modules/pong/package.json", Src: `{"name":"pong","version":"1.0.0","dependencies":{"ping":"^1.0.0"}}`},
		{Rel: "node_modules/pong/index.js", Src: "var ping = require('ping');\nmodule.exports = { back: function (b) { return b; } };\n"},
	}
	// A dependency whose main is a non-index file, exercising the
	// main-vs-index resolution axis through a real scan.
	mainNotIndex := []scanner.SourceFile{
		{Rel: "package.json", Src: `{"name":"main-root","version":"1.0.0","dependencies":{"entry":"^1.0.0"}}`},
		{Rel: "index.js", Src: "const { exec } = require('child_process');\nvar entry = require('entry');\nmodule.exports = function (input) { exec(entry.wrap(input)); };\n"},
		{Rel: "node_modules/entry/package.json", Src: `{"name":"entry","version":"1.0.0","main":"lib/start.js"}`},
		{Rel: "node_modules/entry/lib/start.js", Src: "module.exports = { wrap: function (s) { return 'go ' + s; } };\n"},
	}

	shadowed := dataset.TreeCases()[3] // tree-shadowed, vulnerable
	if shadowed.Name != "tree-shadowed" {
		t.Fatalf("fixture order changed: %s", shadowed.Name)
	}
	targets := []Target{
		treeTarget("bad-manifest", badManifest),
		treeTarget("main-not-index", mainNotIndex),
		treeTarget("missing-dep", missingDep),
		treeTarget("require-cycle", requireCycle),
		treeTarget("tree-shadowed", sourceFiles(shadowed.Files)),
	}

	journal := filepath.Join(t.TempDir(), "tree-sweep-journal")
	opts := scanner.Options{Workers: 2, Timeout: 30 * time.Second}
	_, stats, err := SuperviseGraphJSTargets(targets, opts, SuperviseOptions{Journal: journal})
	if err != nil {
		t.Fatalf("supervised tree sweep: %v", err)
	}
	if stats.Completed != len(targets) || stats.Quarantined != 0 || stats.Degraded != 0 {
		t.Fatalf("stats %+v, want %d complete", stats, len(targets))
	}

	entries, torn, err := sweepjournal.Load(journal)
	if err != nil || torn {
		t.Fatalf("journal: torn=%v err=%v", torn, err)
	}

	cases := []struct {
		name      string
		class     budget.Class
		findings  int
		errSubstr string
	}{
		{"missing-dep", budget.ClassResolve, 0, "gone"},
		{"bad-manifest", budget.ClassResolve, 0, "package.json"},
		{"require-cycle", budget.ClassNone, 0, ""},
		{"main-not-index", budget.ClassNone, 1, ""},
		{"tree-shadowed", budget.ClassNone, 1, ""},
	}
	for _, c := range cases {
		e, ok := entries[c.name]
		if !ok {
			t.Errorf("%s: no journal entry", c.name)
			continue
		}
		if e.State != sweepjournal.StateComplete {
			t.Errorf("%s: state %q, want complete", c.name, e.State)
		}
		if e.Class != string(c.class) {
			t.Errorf("%s: class %q, want %q", c.name, e.Class, c.class)
		}
		if len(e.Findings) != c.findings {
			t.Errorf("%s: %d findings journaled, want %d", c.name, len(e.Findings), c.findings)
		}
		// Deterministic failures and clean scans alike must terminate
		// in a single attempt at the full rung: the ladder never
		// retries a resolve error.
		if len(e.Attempts) != 1 || e.Rung != "full" {
			t.Errorf("%s: %d attempts at rung %q, want 1 at full", c.name, len(e.Attempts), e.Rung)
		}
		if c.errSubstr != "" && !strings.Contains(e.Attempts[0].Err, c.errSubstr) {
			t.Errorf("%s: attempt error %q does not mention %q", c.name, e.Attempts[0].Err, c.errSubstr)
		}
	}
}
