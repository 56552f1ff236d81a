package main

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/core"
	jsast "repro/internal/js/ast"
	"repro/internal/js/normalize"
	"repro/internal/js/parser"
	"repro/internal/queries"
	"repro/internal/reach"
	"repro/internal/scanner"
)

// span accumulates one layer's time and bytes allocated.
type span struct {
	dur   time.Duration
	bytes uint64
}

// layers replays the scanner's pipeline one layer at a time, calling
// each layer's public entry point from here and timing it from outside:
// lexer+parser, normalize, CFG, exports+reach gate, abstract
// interpretation (MDG build), detection with the default query engine
// (graph-database load, then the queries). Allocation is the MemStats
// delta around each call, so a layers value must be driven by one
// goroutine while nothing else allocates.
type layers struct {
	config *queries.Config

	spans   map[string]*span
	ops     int
	skipped int
	nodes   int
	edges   int
}

func newLayers() *layers {
	return &layers{config: queries.DefaultConfig(), spans: map[string]*span{}}
}

// timed runs f as layer name.
func (l *layers) timed(name string, f func()) {
	m0 := readMem()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	m1 := readMem()
	s := l.spans[name]
	if s == nil {
		s = &span{}
		l.spans[name] = s
	}
	s.dur += d
	s.bytes += m1.alloc - m0.alloc
}

// replay runs one package through every layer. single mirrors
// scanner.ScanSource (one file, normalized under the package name,
// analyzed with analysis.Analyze); otherwise it mirrors ScanFiles.
func (l *layers) replay(name string, files []scanner.SourceFile, single bool) error {
	l.ops++
	progs := make([]*core.Program, 0, len(files))
	for _, f := range files {
		src, file := f.Src, f.Rel
		if single {
			file = name
		}
		var perr error
		var prog *core.Program
		var tree *jsast.Program
		l.timed("parser", func() { tree, perr = parser.Parse(src) })
		if perr != nil {
			return fmt.Errorf("replay %s: parse %s: %w", name, f.Rel, perr)
		}
		l.timed("normalize", func() { prog = normalize.Normalize(tree, file) })
		l.timed("cfg", func() { cfg.BuildAll(prog) })
		progs = append(progs, prog)
	}
	var rr *reach.Result
	l.timed("reach", func() { rr = reach.Analyze(progs, l.config) })
	if rr.CanSkipDetection() {
		l.skipped++
		return nil
	}
	var res *analysis.Result
	l.timed("analysis", func() {
		if single {
			res = analysis.Analyze(progs[0], analysis.DefaultOptions())
		} else {
			res = analysis.AnalyzeModules(progs, analysis.DefaultOptions())
		}
	})
	l.nodes += res.Graph.NumNodes()
	l.edges += res.Graph.NumEdges()
	var lg *queries.LoadedGraph
	var derr error
	l.timed("detect.load", func() { lg = queries.Load(res) })
	l.timed("detect", func() { _, derr = queries.Detect(lg, l.config) })
	return derr
}

// report sets the per-layer metrics as means over every replayed op.
// detect covers the whole detection layer: the graph-database load
// (also reported alone as detect.load_ms) plus the queries.
func (l *layers) report(rec *Record) {
	n := float64(max(l.ops, 1))
	get := func(name string) span {
		if s := l.spans[name]; s != nil {
			return *s
		}
		return span{}
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 / n }
	kb := func(b uint64) float64 { return float64(b) / 1024 / n }
	rec.set("parser.ms", ms(get("parser").dur))
	rec.set("parser.alloc_kb", kb(get("parser").bytes))
	rec.set("normalize.ms", ms(get("normalize").dur))
	rec.set("normalize.alloc_kb", kb(get("normalize").bytes))
	rec.set("cfg.ms", ms(get("cfg").dur))
	rec.set("reach.ms", ms(get("reach").dur))
	rec.set("reach.alloc_kb", kb(get("reach").bytes))
	rec.set("reach.skip_ratio", float64(l.skipped)/n)
	rec.set("analysis.ms", ms(get("analysis").dur))
	rec.set("analysis.alloc_kb", kb(get("analysis").bytes))
	rec.set("analysis.mdg_nodes", float64(l.nodes)/n)
	rec.set("analysis.mdg_edges", float64(l.edges)/n)
	load, det := get("detect.load"), get("detect")
	rec.set("detect.ms", ms(load.dur+det.dur))
	rec.set("detect.load_ms", ms(load.dur))
	rec.set("detect.alloc_kb", kb(load.bytes+det.bytes))
	rec.note("layer_ops", l.ops)
}
