package scanner

import (
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/exports"
	"repro/internal/mdg"
)

// ambiguousRequire is a package whose require('./util') has no exact
// candidate and three basename matches.
var ambiguousRequire = []SourceFile{
	{Rel: "a/util.js", Src: "function fa(c) { return c; }\nmodule.exports = fa;\n"},
	{Rel: "b/util.js", Src: "function fb(c) { return c; }\nmodule.exports = fb;\n"},
	{Rel: "c/util.js", Src: "function fc(c) { return c; }\nmodule.exports = fc;\n"},
	{Rel: "index.js", Src: "var u = require('./util');\nfunction main(x) { require('child_process').exec(u(x)); }\nmodule.exports = main;\n"},
}

// TestAmbiguousRequireResolvesSortedFirst: the MDG build, the reach
// gate and the incremental partition resolve an ambiguous basename
// require to the same file — the sorted-first match — on every scan.
func TestAmbiguousRequireResolvesSortedFirst(t *testing.T) {
	var rels []string
	var progs []*core.Program
	var facts []*fileFacts
	st := &IncrementalState{}
	for _, f := range ambiguousRequire {
		fe, err := st.frontEnd(f.Rel, f.Src, nil)
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, f.Rel)
		progs = append(progs, fe.prog)
		facts = append(facts, extractFacts(fe.prog))
	}
	for i := 0; i < 100; i++ {
		// The MDG build links u(x) to the summary of the function the
		// require resolved to.
		res := analysis.AnalyzeModules(progs, analysis.DefaultOptions())
		var callees []mdg.Loc
		for _, ls := range res.CalleeLocs {
			callees = append(callees, ls...)
		}
		for _, q := range []string{"a/util.js:fa", "b/util.js:fb", "c/util.js:fc"} {
			if slices.Contains(callees, res.Functions[q].Loc) != (q == "a/util.js:fa") {
				t.Fatalf("scan %d: MDG build links u(x) to %v, want a/util.js:fa only", i, callees)
			}
		}
		if calls := exports.Analyze(progs, nil).Calls["index.js:main"]; !slices.Equal(calls, []string{"a/util.js:fa"}) {
			t.Fatalf("scan %d: gate resolves main's callee to %v, want a/util.js:fa", i, calls)
		}
		for _, comp := range partitionComponents(rels, facts) {
			if slices.Contains(comp, 3) && !slices.Equal(comp, []int{0, 3}) {
				t.Fatalf("scan %d: index.js partitioned with %v, want a/util.js only", i, comp)
			}
		}
	}
}
