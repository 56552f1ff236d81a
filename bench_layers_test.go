package repro_test

import (
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exports"
	"repro/internal/js/normalize"
	"repro/internal/js/parser"
	"repro/internal/scanner"
	"repro/internal/taint"
)

// layerPackage is one GroundTruth(1) package prepared for
// BenchmarkLayerAllocs: its files, their lowered programs, and its MDG.
type layerPackage struct {
	files []scanner.SourceFile
	progs []*core.Program
	res   *analysis.Result
}

// layerPackages prepares every GroundTruth(1) package the way a cold
// scan sees it: a one-file package's file is named after the package, a
// multi-file package's main file is index.js.
func layerPackages(b *testing.B) []layerPackage {
	vul, sec := dataset.GroundTruth(1)
	var out []layerPackage
	for _, c := range []*dataset.Corpus{vul, sec} {
		for _, p := range c.Packages {
			files := []scanner.SourceFile{{Rel: p.Name, Src: p.Source}}
			if len(p.Extra) > 0 {
				files[0].Rel = "index.js"
				for rel, src := range p.Extra {
					files = append(files, scanner.SourceFile{Rel: rel, Src: src})
				}
				sort.Slice(files, func(i, j int) bool { return files[i].Rel < files[j].Rel })
			}
			lp := layerPackage{files: files}
			for _, f := range files {
				tree, err := parser.Parse(f.Src)
				if err != nil {
					b.Fatalf("%s: %v", f.Rel, err)
				}
				lp.progs = append(lp.progs, normalize.Normalize(tree, f.Rel))
			}
			lp.res = analysis.AnalyzeModules(lp.progs, analysis.DefaultOptions())
			out = append(out, lp)
		}
	}
	return out
}

// BenchmarkLayerAllocs reports the bytes and allocations of each hot
// layer's call on one package, cycling over GroundTruth(1): the parse
// (lexer and parser) of its files, the export pass of the reach gate,
// the MDG build (its graph released as the scanner releases it after
// detection), and native detection (the engine's fixpoint and queries,
// its tables released as the scanner releases them). It
// shows what each layer allocates per scan; it is not a timing gate.
func BenchmarkLayerAllocs(b *testing.B) {
	pkgs := layerPackages(b)
	layers := []struct {
		name string
		run  func(p *layerPackage)
	}{
		{"parse", func(p *layerPackage) {
			for _, f := range p.files {
				if _, err := parser.ParseBudget(f.Src, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"export-pass", func(p *layerPackage) { exports.Analyze(p.progs, nil) }},
		{"mdg-build", func(p *layerPackage) {
			analysis.AnalyzeModules(p.progs, analysis.DefaultOptions()).Graph.Release()
		}},
		{"native-detection", func(p *layerPackage) {
			eng := taint.NewEngineBudget(p.res, nil, nil)
			eng.Detect()
			eng.Release()
		}},
	}
	for _, l := range layers {
		b.Run(l.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.run(&pkgs[i%len(pkgs)])
			}
		})
	}
}
