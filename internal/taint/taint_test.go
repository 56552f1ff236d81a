package taint

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/js/normalize"
	"repro/internal/mdg"
	"repro/internal/queries"
)

func analyze(t *testing.T, src string) *analysis.Result {
	t.Helper()
	prog, err := normalize.File(src, "test.js")
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	return analysis.Analyze(prog, analysis.DefaultOptions())
}

const execSrc = `
const { exec } = require('child_process');
function run(cmd) { exec('git ' + cmd); }
module.exports = run;
`

func TestDetectCommandInjection(t *testing.T) {
	e := NewEngineBudget(analyze(t, execSrc), queries.DefaultConfig(), nil)
	fs := e.Detect()
	if len(fs) != 1 || fs[0].CWE != queries.CWECommandInjection {
		t.Fatalf("findings = %v", fs)
	}
	if fs[0].SinkLine != 3 || fs[0].SinkName != "exec" || fs[0].Source != "cmd" {
		t.Errorf("finding metadata = %+v", fs[0])
	}
	if len(fs[0].Path) < 2 {
		t.Errorf("witness path too short: %v", fs[0].Path)
	}
}

func TestWitnessEndpoints(t *testing.T) {
	res := analyze(t, execSrc)
	e := NewEngineBudget(res, queries.DefaultConfig(), nil)
	if len(e.sources) != 1 {
		t.Fatalf("sources = %d", len(e.sources))
	}
	src := e.sources[0]
	fs := e.Detect()
	if len(fs) != 1 {
		t.Fatalf("findings = %v", fs)
	}
	path := fs[0].Path
	if mdg.Loc(path[0]) != src.Loc {
		t.Errorf("witness must start at the source: %v (source o%d)", path, src.Loc)
	}
	// Every step of the witness must be a real graph edge.
	for i := 1; i < len(path); i++ {
		found := false
		for _, edge := range res.Graph.Out(mdg.Loc(path[i-1])) {
			if edge.To == mdg.Loc(path[i]) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("witness step o%d -> o%d is not an edge", path[i-1], path[i])
		}
	}
}

func TestOverwriteKillsTaint(t *testing.T) {
	src := `
const { exec } = require('child_process');
function run(input) {
	var opts = {};
	opts.cmd = input;
	opts.cmd = 'git status';
	exec(opts.cmd);
}
module.exports = run;
`
	fs := NewEngineBudget(analyze(t, src), queries.DefaultConfig(), nil).Detect()
	for _, f := range fs {
		if f.CWE == queries.CWECommandInjection {
			t.Fatalf("overwritten taint still flagged: %v", fs)
		}
	}
}

func TestSanitizerBarrier(t *testing.T) {
	src := `
const { exec } = require('child_process');
function run(input) { exec(shellEscape(input)); }
module.exports = run;
`
	cfg := queries.DefaultConfig()
	cfg.Sanitizers = []string{"shellEscape"}
	fs := NewEngineBudget(analyze(t, src), cfg, nil).Detect()
	if len(fs) != 0 {
		t.Fatalf("sanitized flow flagged: %v", fs)
	}
}

func TestTruncationCounter(t *testing.T) {
	res := analyze(t, execSrc)
	cfg := queries.DefaultConfig()
	cfg.MaxHops = 1
	e := NewEngineBudget(res, cfg, nil)
	if e.Truncated == 0 {
		t.Error("hop bound 1 must truncate some propagation")
	}
	full := NewEngineBudget(res, queries.DefaultConfig(), nil)
	if full.Truncated != 0 {
		t.Errorf("default hop bound must not truncate: %d", full.Truncated)
	}
}

// TestReachesFrom: a source's taint reaches the source itself.
func TestReachesFrom(t *testing.T) {
	res := analyze(t, execSrc)
	e := NewEngineBudget(res, queries.DefaultConfig(), nil)
	src := e.sources[0]
	if bit, ok := e.rootOf[src.Loc]; !ok || !e.taintedBy(src.Loc, bit) {
		t.Error("a source must reach itself")
	}
	if len(e.facts) == 0 {
		t.Error("fixpoint created no states")
	}
}

func TestEmptyGraph(t *testing.T) {
	e := NewEngineBudget(analyze(t, "var x = 1;"), queries.DefaultConfig(), nil)
	if fs := e.Detect(); len(fs) != 0 {
		t.Fatalf("findings on trivial program: %v", fs)
	}
}
