package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataset"
)

// BenchmarkMDGBuild times the MDG build (§3.2, the Graph column of
// Table 6) alone: analysis.AnalyzeModules over every normalized
// GroundTruth(1) package, front end outside the timer. One op is one
// pass over the 840 packages, each graph released after it is counted
// as the scanner releases it after detection; nodes/op and edges/op
// are the graph sizes built per pass.
func BenchmarkMDGBuild(b *testing.B) {
	vulcan, secbench := dataset.GroundTruth(1)
	var pkgs [][]*core.Program
	for _, c := range []*dataset.Corpus{vulcan, secbench} {
		for _, p := range c.Packages {
			if progs := packageProgs(p); len(progs) > 0 {
				pkgs = append(pkgs, progs)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	nodes, edges := 0, 0
	for i := 0; i < b.N; i++ {
		nodes, edges = 0, 0
		for _, progs := range pkgs {
			res := analysis.AnalyzeModules(progs, analysis.DefaultOptions())
			nodes += res.Graph.NumNodes()
			edges += res.Graph.NumEdges()
			res.Graph.Release()
		}
	}
	b.ReportMetric(float64(nodes), "nodes/op")
	b.ReportMetric(float64(edges), "edges/op")
}
