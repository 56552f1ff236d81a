package scanner

import (
	"testing"

	"repro/internal/queries"
)

// Closure-join regressions: a branch or loop inside a nested function
// that assigns a variable of an enclosing function must join both
// paths into the enclosing binding, exactly as the same branch or loop
// written directly in the enclosing function does. Each probe ends in
// exec(x) with the tainted path on one side only.
var closureJoinProbes = []struct {
	name, src string
}{
	{"if-in-closure", `
const { exec } = require('child_process');
module.exports = function run(a, flag) {
	var x = 'ls';
	function set() {
		if (flag) { x = a; } else { x = 'pwd'; }
	}
	set();
	exec(x);
};
`},
	{"if-in-closure-swapped", `
const { exec } = require('child_process');
module.exports = function run(a, flag) {
	var x = 'ls';
	function set() {
		if (flag) { x = 'pwd'; } else { x = a; }
	}
	set();
	exec(x);
};
`},
	{"if-flat", `
const { exec } = require('child_process');
module.exports = function run(a, flag) {
	var x = 'ls';
	if (flag) { x = a; } else { x = 'pwd'; }
	exec(x);
};
`},
	{"while-in-closure", `
const { exec } = require('child_process');
module.exports = function run(a, n) {
	var x = a;
	function spin() {
		while (n > 0) { x = 'pwd'; n = n - 1; }
	}
	spin();
	exec(x);
};
`},
	{"while-flat", `
const { exec } = require('child_process');
module.exports = function run(a, n) {
	var x = a;
	while (n > 0) { x = 'pwd'; n = n - 1; }
	exec(x);
};
`},
}

func TestClosureJoinsKeepBothPaths(t *testing.T) {
	for _, p := range closureJoinProbes {
		t.Run(p.name, func(t *testing.T) {
			rep := ScanSource(p.src, "index.js", Options{})
			if rep.Err != nil {
				t.Fatal(rep.Err)
			}
			n := 0
			for _, f := range rep.Findings {
				if f.CWE == queries.CWECommandInjection {
					n++
				}
			}
			if n != 1 {
				t.Errorf("%d CWE-78 findings, want 1: %v", n, rep.Findings)
			}
		})
	}
}
