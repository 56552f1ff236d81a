package metrics

import (
	"repro/internal/cfg"
	"repro/internal/js/ast"
	"repro/internal/js/normalize"
	"repro/internal/js/parser"
	"repro/internal/scanner"
)

// SourceSize is the front-end share of Table 7's graph size. The paper
// counts "the AST and CFG nodes used to generate the final MDG", but
// the §3.2 MDG build reads neither, so no scan builds a CFG or counts
// AST nodes: CountSourceSize recomputes both from the sources. It
// re-parses every file, so it stays off the sweep path (SweepGraphJS);
// only Table 7 and graphjs -stats call it.
type SourceSize struct {
	ASTNodes, CFGNodes, CFGEdges int
}

// CountSourceSize parses and normalizes files the way a scan's front
// end does and counts the AST nodes and the nodes and edges of every
// function's CFG. A file that does not parse counts nothing, as it
// joins no scan's graph.
func CountSourceSize(files []scanner.SourceFile) SourceSize {
	var s SourceSize
	for _, f := range files {
		prog, err := parser.Parse(f.Src)
		if err != nil {
			continue
		}
		n, e := cfg.TotalSize(cfg.BuildAll(normalize.Normalize(prog, f.Rel)))
		s.ASTNodes += ast.Count(prog)
		s.CFGNodes += n
		s.CFGEdges += e
	}
	return s
}

// WithSourceSizes returns a copy of Graph.js rows whose TotalNodes and
// TotalEdges, the MDG the scan built, also count the AST and CFG of
// each row's package sources: Table 7's accounting.
func WithSourceSizes(rows []PackageResult) []PackageResult {
	out := append([]PackageResult(nil), rows...)
	for i := range out {
		s := CountSourceSize(packageSources(out[i].Package))
		out[i].TotalNodes += s.ASTNodes + s.CFGNodes
		out[i].TotalEdges += s.CFGEdges
	}
	return out
}
