package analysis

import (
	"testing"

	"repro/internal/mdg"
)

func callNode(res *Result, name string) *mdg.Node {
	for _, cl := range res.Calls {
		n := res.Graph.Node(cl)
		if n != nil && n.CallName == name {
			return n
		}
	}
	return nil
}

// TestJSONParseTaint: the canonical attacker-data-to-object flow.
func TestJSONParseTaint(t *testing.T) {
	src := `
const { exec } = require('child_process');
function run(body) {
	var config = JSON.parse(body);
	exec(config.cmd);
}
module.exports = run;
`
	res := analyzeSrc(t, src)
	g := res.Graph
	fn := res.Functions["run"]
	execCall := callNode(res, "exec")
	if execCall == nil {
		t.Fatal("missing exec call")
	}
	if !reachableByDep(g, fn.Params[0], execCall.Loc) {
		t.Fatal("JSON.parse must propagate taint into property reads")
	}
}

// TestObjectAssignMerge: assign copies source properties onto target.
func TestObjectAssignMerge(t *testing.T) {
	src := `
const { exec } = require('child_process');
function run(userOpts) {
	var opts = { cmd: 'git status' };
	Object.assign(opts, userOpts);
	exec(opts.cmd);
}
module.exports = run;
`
	res := analyzeSrc(t, src)
	fn := res.Functions["run"]
	execCall := callNode(res, "exec")
	if !reachableByDep(res.Graph, fn.Params[0], execCall.Loc) {
		t.Fatal("Object.assign must connect source object flows to the target")
	}
}

// TestObjectAssignNoFalseFlowWithoutSource: assigning a clean source
// does not taint.
func TestObjectAssignClean(t *testing.T) {
	src := `
const { exec } = require('child_process');
function run(user) {
	var opts = { cmd: 'git status' };
	Object.assign(opts, { verbose: true });
	exec(opts.cmd);
}
module.exports = run;
`
	res := analyzeSrc(t, src)
	fn := res.Functions["run"]
	execCall := callNode(res, "exec")
	if reachableByDep(res.Graph, fn.Params[0], execCall.Loc) {
		t.Fatal("clean Object.assign must not taint the sink")
	}
}

// TestArrayPushFlow: elements pushed into an array flow out of reads.
func TestArrayPushFlow(t *testing.T) {
	src := `
const { exec } = require('child_process');
function run(part) {
	var parts = [];
	parts.push('git');
	parts.push(part);
	exec(parts.join(' '));
}
module.exports = run;
`
	res := analyzeSrc(t, src)
	fn := res.Functions["run"]
	execCall := callNode(res, "exec")
	if !reachableByDep(res.Graph, fn.Params[0], execCall.Loc) {
		t.Fatal("pushed element must reach the join result")
	}
}

// TestObjectKeysDependency: keys of an attacker object are attacker
// data.
func TestObjectKeysDependency(t *testing.T) {
	src := `
function run(obj) {
	var ks = Object.keys(obj);
	eval(ks[0]);
}
module.exports = run;
`
	res := analyzeSrc(t, src)
	fn := res.Functions["run"]
	evalCall := callNode(res, "eval")
	if !reachableByDep(res.Graph, fn.Params[0], evalCall.Loc) {
		t.Fatal("Object.keys must depend on the object")
	}
}

// TestConcatFlow: concatenated arrays merge element flows.
func TestConcatFlow(t *testing.T) {
	src := `
const { exec } = require('child_process');
function run(extra) {
	var base = ['git', 'clone'];
	var all = base.concat(extra);
	exec(all[0]);
}
module.exports = run;
`
	res := analyzeSrc(t, src)
	fn := res.Functions["run"]
	execCall := callNode(res, "exec")
	if !reachableByDep(res.Graph, fn.Params[0], execCall.Loc) {
		t.Fatal("concat must merge flows")
	}
}

// TestObjectValuesFlowsPropValues: Object.values exposes the property
// values.
func TestObjectValuesFlows(t *testing.T) {
	src := `
const { exec } = require('child_process');
function run(cmdline) {
	var table = { main: cmdline };
	var vs = Object.values(table);
	exec(vs[0]);
}
module.exports = run;
`
	res := analyzeSrc(t, src)
	fn := res.Functions["run"]
	execCall := callNode(res, "exec")
	if !reachableByDep(res.Graph, fn.Params[0], execCall.Loc) {
		t.Fatal("Object.values must expose property values")
	}
}

// TestBuiltinsInLoopsConverge: built-in models must respect the
// fixpoint (site-keyed allocation).
func TestBuiltinsInLoopsConverge(t *testing.T) {
	src := `
function run(items) {
	var acc = [];
	for (var i = 0; i < 10; i++) {
		acc.push({ idx: i });
		acc = acc.concat(items);
	}
	return acc;
}
module.exports = run;
`
	res := analyzeSrc(t, src)
	if res.Graph.NumNodes() > 80 {
		t.Fatalf("graph too large: %d nodes", res.Graph.NumNodes())
	}
}
