// The paper's §5.5 case study: a prototype pollution inside a loop
// (npm set-value v3.0.0, CVE-2021-23440). The MDG's fixed-point summary
// keeps the graph finite and cyclic where loop unrolling would explode;
// this example prints the graph size for both this scanner and the
// ODGen-style baseline.
package main

import (
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/js/normalize"
	"repro/internal/odgen"
	"repro/internal/queries"
)

const setValue = `
function setValue(obj, prop, value) {
	var path = prop.split('.');
	var len = path.length;
	for (var i = 0; i < len; i++) {
		var p = path[i];
		if (i === len - 1) {
			obj[p] = value;
		}
		obj = obj[p];
	}
	return obj;
}
module.exports = setValue;
`

func main() {
	prog, err := normalize.File(setValue, "set-value.js")
	if err != nil {
		log.Fatal(err)
	}
	res := analysis.Analyze(prog, analysis.DefaultOptions())
	fmt.Printf("Graph.js MDG: %d nodes, %d edges (converged fixpoint, cyclic versions)\n",
		res.Graph.NumNodes(), res.Graph.NumEdges())

	lg := queries.Load(res)
	fs, err := queries.Detect(lg, queries.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range fs {
		fmt.Printf("  %s\n", f)
	}

	// The unrolling baseline on the same input.
	rep := odgen.Scan(setValue, "set-value.js", odgen.DefaultOptions())
	fmt.Printf("\nODGen-style baseline: %d ODG nodes, outcome: %s, findings: %d\n",
		rep.ODGNodes, rep.Failure, len(rep.Findings))
	fmt.Println("\n(§5.5: Graph.js's version edges and fixed-point summary detect the")
	fmt.Println("pollution quickly; ODGen's unrolled representation struggles.)")
}
