// Package repro_test hosts the benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (§5), plus
// substrate and ablation benchmarks. cmd/benchtables runs the same
// pipelines over the full corpora and prints the tables; the benchmarks
// here measure the underlying costs on stratified samples so
// `go test -bench=.` stays tractable.
package repro_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/graphdb"
	"repro/internal/js/normalize"
	"repro/internal/js/parser"
	"repro/internal/js/printer"
	"repro/internal/jsinterp"
	"repro/internal/metrics"
	"repro/internal/odgen"
	"repro/internal/poc"
	"repro/internal/queries"
	"repro/internal/scanner"
	"repro/internal/taint"
)

const gitResetSrc = `
const { exec } = require('child_process');
function git_reset(config, op, branch_name, url) {
	var options = config[op];
	options[branch_name] = url;
	options.cmd = 'git reset HEAD~';
	exec(options.cmd + options.commit);
}
module.exports = git_reset;
`

const setValueSrc = `
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

// sampleCorpus returns a stratified sample of the ground truth:
// every class is represented, bounded at n packages.
func sampleCorpus(n int) *dataset.Corpus {
	vul, sec := dataset.GroundTruth(42)
	all := append(append([]*dataset.Package{}, vul.Packages...), sec.Packages...)
	byClass := map[dataset.Class][]*dataset.Package{}
	for _, p := range all {
		byClass[p.Class] = append(byClass[p.Class], p)
	}
	out := &dataset.Corpus{Name: "sample"}
	for len(out.Packages) < n {
		added := false
		for _, ps := range byClass {
			if len(ps) > 0 {
				out.Packages = append(out.Packages, ps[0])
				byClass[keyOf(byClass, ps[0])] = ps[1:]
				added = true
				if len(out.Packages) == n {
					break
				}
			}
		}
		if !added {
			break
		}
	}
	return out
}

func keyOf(m map[dataset.Class][]*dataset.Package, p *dataset.Package) dataset.Class {
	return p.Class
}

// BenchmarkTable3 measures ground-truth corpus generation (Table 3's
// dataset build).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vul, sec := dataset.GroundTruth(int64(i))
		if vul.NumVulns()+sec.NumVulns() != 603 {
			b.Fatal("bad corpus")
		}
	}
}

// BenchmarkTable4GraphJS measures the Graph.js side of Table 4 on a
// stratified 40-package sample, on the paper's (query) engine.
func BenchmarkTable4GraphJS(b *testing.B) {
	c := sampleCorpus(40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := metrics.RunGraphJS(c, scanner.Options{Engine: scanner.EngineQuery})
		out := metrics.Evaluate("graphjs", rs, false)
		if out.Packages != len(c.Packages) {
			b.Fatal("bad run")
		}
	}
}

// BenchmarkTable4ODGen measures the baseline side of Table 4 on the
// same sample (timeouts included: they dominate its cost profile).
func BenchmarkTable4ODGen(b *testing.B) {
	c := sampleCorpus(40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := metrics.RunODGen(c, odgen.DefaultOptions())
		out := metrics.Evaluate("odgen", rs, true)
		if out.Packages != len(c.Packages) {
			b.Fatal("bad run")
		}
	}
}

// BenchmarkParallelSweep measures the bounded worker pool: the full
// ground-truth Graph.js sweep at 1, 2, 4 and GOMAXPROCS workers. The
// wall-clock ratio between workers=1 and workers=N is the tentpole
// speedup claim (≥2× expected on a ≥4-core machine; on a single core
// the pool degenerates to the sequential path and the ratio is ~1).
// The cpu/wall metric reports each run's own sum-of-CPU over
// wall-clock ratio.
func BenchmarkParallelSweep(b *testing.B) {
	vul, sec := dataset.GroundTruth(42)
	c := &dataset.Corpus{Name: "combined"}
	c.Packages = append(c.Packages, vul.Packages...)
	c.Packages = append(c.Packages, sec.Packages...)
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				sw := metrics.SweepGraphJS(c, scanner.Options{Workers: w})
				if len(sw.Results) != len(c.Packages) {
					b.Fatal("bad sweep")
				}
				speedup = sw.Speedup()
			}
			b.ReportMetric(speedup, "cpu/wall")
		})
	}
}

// BenchmarkFaultSweep sweeps the pathological crash corpus with both
// tools under a tight per-package budget and reports the resulting
// failure-class counts as metrics (snapshot: BENCH_faults.json). The
// counts are the fault-containment contract — a change that turns an
// "ok" or classified row into a hang or a process-killing panic shows
// up here before it shows up in a corpus run.
func BenchmarkFaultSweep(b *testing.B) {
	c := dataset.Pathological()
	for i := 0; i < b.N; i++ {
		gs := metrics.SweepGraphJS(c, scanner.Options{Timeout: 2 * time.Second})
		od := odgen.DefaultOptions()
		od.StepBudget = 20000
		od.Timeout = 2 * time.Second
		osw := metrics.SweepODGen(c, od)
		if len(gs.Results) != len(c.Packages) || len(osw.Results) != len(c.Packages) {
			b.Fatal("bad sweep")
		}
		gc := metrics.FailureCounts(gs.Results)
		oc := metrics.FailureCounts(osw.Results)
		for _, cl := range budget.Classes {
			b.ReportMetric(float64(gc[cl]), "graphjs-"+cl.String())
			b.ReportMetric(float64(oc[cl]), "odgen-"+cl.String())
		}
		b.ReportMetric(float64(gc[budget.ClassNone]), "graphjs-ok")
		b.ReportMetric(float64(oc[budget.ClassNone]), "odgen-ok")
	}
}

// BenchmarkFigure6 measures detection-set comparison (the Venn diagram)
// on a sample.
func BenchmarkFigure6(b *testing.B) {
	c := sampleCorpus(30)
	gjs := metrics.Evaluate("g", metrics.RunGraphJS(c, scanner.Options{}), false)
	odg := metrics.Evaluate("o", metrics.RunODGen(c, odgen.DefaultOptions()), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		onlyG, both, onlyO := metrics.Venn(gjs, odg)
		if onlyG+both+onlyO == 0 {
			b.Fatal("empty venn")
		}
	}
}

// BenchmarkTable5 measures the wild-corpus scan (Collected dataset) at
// a reduced size, on the paper's (query) engine.
func BenchmarkTable5(b *testing.B) {
	c := dataset.Collected(7, dataset.DefaultCollectedMix(40))
	cfg := queries.DefaultConfig()
	cfg.RequireAsCodeInjection = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, p := range c.Packages {
			rep := scanner.ScanSource(p.Source, p.Name, scanner.Options{Engine: scanner.EngineQuery, Config: cfg})
			total += len(rep.Findings)
		}
		if total == 0 {
			b.Fatal("no findings in wild corpus")
		}
	}
}

// BenchmarkFigure7 measures CDF computation over per-package timings.
func BenchmarkFigure7(b *testing.B) {
	c := sampleCorpus(30)
	rs := metrics.RunGraphJS(c, scanner.Options{})
	ths := make([]time.Duration, 60)
	for i := range ths {
		ths[i] = time.Duration(i+1) * time.Millisecond
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdf := metrics.CDF(rs, ths, time.Minute)
		if cdf[len(cdf)-1] == 0 {
			b.Fatal("bad cdf")
		}
	}
}

// BenchmarkTable6GraphPhase measures MDG construction alone (the
// "Graph" column of Table 6) on the running example.
func BenchmarkTable6GraphPhase(b *testing.B) {
	prog, err := normalize.File(gitResetSrc, "bench.js")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := analysis.Analyze(prog, analysis.DefaultOptions())
		if res.Graph.NumNodes() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkTable6TraversalPhase measures the query phase alone (the
// "Traversals" column of Table 6).
func BenchmarkTable6TraversalPhase(b *testing.B) {
	prog, err := normalize.File(gitResetSrc, "bench.js")
	if err != nil {
		b.Fatal(err)
	}
	res := analysis.Analyze(prog, analysis.DefaultOptions())
	lg := queries.Load(res)
	cfg := queries.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, err := queries.Detect(lg, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(fs) == 0 {
			b.Fatal("no findings")
		}
	}
}

// BenchmarkNativeVsQueryDetection compares the two detection backends
// on a pollution-heavy corpus (prototype pollution exercises the most
// expensive traversals: star-edge enumeration plus per-pair reach
// checks). Graph construction is excluded; each sub-benchmark measures
// only its backend's detection phase. The query backend gets its
// property graphs pre-loaded, while the native backend's cost includes
// its own fixpoint construction — that is the work it does instead of
// a graph load.
func BenchmarkNativeVsQueryDetection(b *testing.B) {
	g := dataset.NewGenForTest(7)
	cfg := queries.DefaultConfig()
	var results []*analysis.Result
	var graphs []*queries.LoadedGraph
	add := func(src, name string) {
		prog, err := normalize.File(src, name)
		if err != nil {
			b.Fatal(err)
		}
		res := analysis.Analyze(prog, analysis.DefaultOptions())
		results = append(results, res)
		graphs = append(graphs, queries.Load(res))
	}
	for i := 0; i < 12; i++ {
		for _, class := range []dataset.Class{dataset.ClassPlain, dataset.ClassLoopy} {
			p := dataset.RenderForTest(g, queries.CWEPrototypePollution, class)
			add(p.Source, p.Name)
		}
	}
	add(setValueSrc, "sv.js")

	b.Run("query", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			total := 0
			for _, lg := range graphs {
				fs, err := queries.Detect(lg, cfg)
				if err != nil {
					b.Fatal(err)
				}
				total += len(fs)
			}
			if total == 0 {
				b.Fatal("no findings")
			}
		}
	})
	b.Run("native", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			total := 0
			for _, res := range results {
				total += len(taint.NewEngine(res, cfg).Detect())
			}
			if total == 0 {
				b.Fatal("no findings")
			}
		}
	})
}

// BenchmarkTable7GraphSizes measures both tools' graph construction on
// the same loop-heavy input, the Table 7 size comparison driver.
func BenchmarkTable7GraphSizes(b *testing.B) {
	src := `
function build(n) {
	var acc = [];
	for (var i = 0; i < n; i++) {
		for (var j = 0; j < n; j++) {
			var cell = { row: i, col: j };
			acc.push(cell);
		}
	}
	return acc;
}
module.exports = build;
`
	b.Run("graphjs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep := scanner.ScanSource(src, "b.js", scanner.Options{})
			if rep.MDGNodes == 0 {
				b.Fatal("no graph")
			}
		}
	})
	b.Run("odgen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep := odgen.Scan(src, "b.js", odgen.DefaultOptions())
			if rep.ODGNodes == 0 {
				b.Fatal("no graph")
			}
		}
	})
}

// BenchmarkCaseStudyLoop is the §5.5 ablation: the fixed-point summary
// versus unrolling on the set-value pollution.
func BenchmarkCaseStudyLoop(b *testing.B) {
	b.Run("graphjs-fixpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep := scanner.ScanSource(setValueSrc, "sv.js", scanner.Options{})
			if len(rep.Findings) == 0 {
				b.Fatal("pollution not detected")
			}
		}
	})
	b.Run("odgen-unroll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep := odgen.Scan(setValueSrc, "sv.js", odgen.DefaultOptions())
			_ = rep
		}
	})
}

// BenchmarkParser measures the JavaScript parser substrate.
func BenchmarkParser(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(gitResetSrc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNormalize measures AST→Core lowering.
func BenchmarkNormalize(b *testing.B) {
	prog, err := parser.Parse(gitResetSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		normalize.Normalize(prog, "bench.js")
	}
}

// BenchmarkGraphDBQuery measures the embedded query engine on a
// var-length pattern.
func BenchmarkGraphDBQuery(b *testing.B) {
	db := graphdb.NewDB()
	var prev *graphdb.Node
	for i := 0; i < 200; i++ {
		n := db.CreateNode([]string{"Object"}, map[string]graphdb.Value{"i": int64(i)})
		if prev != nil {
			if _, err := db.CreateRel(prev.ID, n.ID, "D", nil); err != nil {
				b.Fatal(err)
			}
		}
		prev = n
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(`MATCH (a {i: 0})-[:D*1..16]->(c) RETURN c LIMIT 16`)
		if err != nil || len(res.Rows) == 0 {
			b.Fatalf("query failed: %v", err)
		}
	}
}

// BenchmarkAblationLoopIter sweeps the fixpoint iteration cap: the
// summary converges in a few iterations, so raising the cap must not
// change cost materially (unlike unrolling, where cost scales with it).
func BenchmarkAblationLoopIter(b *testing.B) {
	prog, err := normalize.File(setValueSrc, "sv.js")
	if err != nil {
		b.Fatal(err)
	}
	for _, iters := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("maxIter=%d", iters), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bud := budget.New(budget.Limits{})
				analysis.Analyze(prog, analysis.Options{MaxLoopIter: iters, Budget: bud})
				if err := bud.Err(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationUnroll sweeps the baseline's unroll limit: its cost
// grows with the limit (the object-explosion ablation).
func BenchmarkAblationUnroll(b *testing.B) {
	for _, unroll := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("unroll=%d", unroll), func(b *testing.B) {
			opts := odgen.DefaultOptions()
			opts.UnrollLimit = unroll
			for i := 0; i < b.N; i++ {
				rep := odgen.Scan(setValueSrc, "sv.js", opts)
				_ = rep
			}
		})
	}
}

// BenchmarkTaintSearch measures the TaintPath traversal on the
// git_reset MDG.
func BenchmarkTaintSearch(b *testing.B) {
	prog, err := normalize.File(gitResetSrc, "bench.js")
	if err != nil {
		b.Fatal(err)
	}
	res := analysis.Analyze(prog, analysis.DefaultOptions())
	lg := queries.Load(res)
	if len(res.Sources) == 0 {
		b.Fatal("no sources")
	}
	src := lg.ByLoc[res.Sources[0]]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reach := lg.TaintReach(src, 64)
		if len(reach) == 0 {
			b.Fatal("no reach")
		}
	}
}

// BenchmarkPrinter measures AST→source rendering.
func BenchmarkPrinter(b *testing.B) {
	prog, err := parser.Parse(gitResetSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if printer.Print(prog) == "" {
			b.Fatal("empty output")
		}
	}
}

// BenchmarkInterpreter measures concrete execution of the running
// example (the dynamic-confirmation substrate).
func BenchmarkInterpreter(b *testing.B) {
	prog, err := normalize.File(gitResetSrc, "bench.js")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in := jsinterp.New(100000)
		exports, err := in.RunModule(prog)
		if err != nil {
			b.Fatal(err)
		}
		cfgObj := in.NewObj()
		_, _ = in.CallFunction(exports, jsinterp.Undefined{},
			[]jsinterp.Value{cfgObj, jsinterp.String("reset"), jsinterp.String("main"), jsinterp.String("u")})
		if len(in.Sinks) == 0 {
			b.Fatal("no sink recorded")
		}
	}
}

// BenchmarkConfirm measures one full dynamic-confirmation run (the
// automated §5.3 workflow).
func BenchmarkConfirm(b *testing.B) {
	src := `
const { exec } = require('child_process');
function run(task) { exec('make ' + task); }
module.exports = run;
`
	for i := 0; i < b.N; i++ {
		v, err := poc.Confirm(map[string]string{"index.js": src}, "index.js", queries.CWECommandInjection)
		if err != nil || !v.Exploitable {
			b.Fatalf("confirm failed: %v %v", v, err)
		}
	}
}

// BenchmarkGraphDBSerialization measures JSON export+import round-trips.
func BenchmarkGraphDBSerialization(b *testing.B) {
	prog, err := normalize.File(gitResetSrc, "bench.js")
	if err != nil {
		b.Fatal(err)
	}
	res := analysis.Analyze(prog, analysis.DefaultOptions())
	lg := queries.Load(res)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := lg.DB.ExportJSON(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := graphdb.ImportJSON(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanPackageCached measures the compositionality win: an
// unchanged re-scan through a warm incremental state vs a cold scan of
// a multi-file package.
func BenchmarkScanPackageCached(b *testing.B) {
	dir := b.TempDir()
	files := map[string]string{
		"index.js":  "var run = require('./runner');\nfunction entry(x) { run('git ' + x); }\nmodule.exports = entry;\n",
		"runner.js": "const { exec } = require('child_process');\nfunction r(c) { exec(c); }\nmodule.exports = r;\n",
		"util.js":   "function id(v) { return v; }\nmodule.exports = id;\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep := scanner.ScanPackage(dir, scanner.Options{})
			if len(rep.Findings) == 0 {
				b.Fatal("no findings")
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		opts := scanner.Options{Incremental: scanner.NewIncrementalState()}
		scanner.ScanPackage(dir, opts) // warm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep := scanner.ScanPackage(dir, opts)
			if len(rep.Findings) == 0 {
				b.Fatal("no findings")
			}
		}
	})
}

// BenchmarkIncrementalRescan measures the incremental tentpole on one
// multi-file package: after editing a single independent file, a warm
// re-scan rebuilds only that file's MDG fragment while the
// require-linked pair (index+runner) is served whole from the fragment
// and detection caches. Reported metrics: cold-ms and warm-ms per
// re-scan plus their ratio (snapshot: BENCH_incremental.json).
func BenchmarkIncrementalRescan(b *testing.B) {
	base := []scanner.SourceFile{
		{Rel: "index.js", Src: "var run = require('./runner');\nfunction entry(x) { run('git ' + x); }\nmodule.exports = entry;\n"},
		{Rel: "runner.js", Src: "const { exec } = require('child_process');\nfunction r(c) { exec(c); }\nmodule.exports = r;\n"},
		{Rel: "util.js", Src: "function id(v) { return v; }\nmodule.exports = id;\n"},
	}
	edit := func(i int) []scanner.SourceFile {
		files := append([]scanner.SourceFile(nil), base...)
		files[2].Src = fmt.Sprintf("function id(v) { return v; }\nvar rev = %d;\nmodule.exports = id;\n", i)
		return files
	}
	st := scanner.NewIncrementalState()
	scanner.ScanFiles(base, "pkg", scanner.Options{Incremental: st}) // seed
	var coldNs, warmNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		files := edit(i)
		t0 := time.Now()
		cold := scanner.ScanFiles(files, "pkg", scanner.Options{})
		coldNs += time.Since(t0).Nanoseconds()
		t1 := time.Now()
		warm := scanner.ScanFiles(files, "pkg", scanner.Options{Incremental: st})
		warmNs += time.Since(t1).Nanoseconds()
		if len(cold.Findings) == 0 || len(warm.Findings) != len(cold.Findings) {
			b.Fatalf("finding mismatch: cold %d, warm %d", len(cold.Findings), len(warm.Findings))
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(coldNs)/n/1e6, "cold-ms")
	b.ReportMetric(float64(warmNs)/n/1e6, "warm-ms")
	if warmNs > 0 {
		b.ReportMetric(float64(coldNs)/float64(warmNs), "speedup")
	}
}

// BenchmarkResumeSweep measures the journal-resume win (snapshot:
// BENCH_resume.json): a supervised sweep is run cold (writing its
// journal), then re-run with -resume against the same journal. The
// resumed sweep satisfies every package from the journal, so its cost
// is hashing plus replay — the resume-ms/cold-ms gap is what a crashed
// sweep avoids paying again.
func BenchmarkResumeSweep(b *testing.B) {
	c := sampleCorpus(60)
	opts := scanner.Options{Workers: 4}
	dir := b.TempDir()
	var coldNs, resumeNs int64
	for i := 0; i < b.N; i++ {
		journal := filepath.Join(dir, fmt.Sprintf("sweep-%d", i))
		t0 := time.Now()
		_, _, err := metrics.SuperviseGraphJS(c, opts, metrics.SuperviseOptions{Journal: journal})
		coldNs += time.Since(t0).Nanoseconds()
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		_, stats, err := metrics.SuperviseGraphJS(c, opts,
			metrics.SuperviseOptions{Journal: journal, Resume: true})
		resumeNs += time.Since(t1).Nanoseconds()
		if err != nil {
			b.Fatal(err)
		}
		if stats.Resumed != len(c.Packages) {
			b.Fatalf("resumed %d of %d packages", stats.Resumed, len(c.Packages))
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(coldNs)/n/1e6, "cold-ms")
	b.ReportMetric(float64(resumeNs)/n/1e6, "resume-ms")
	if resumeNs > 0 {
		b.ReportMetric(float64(coldNs)/float64(resumeNs), "speedup")
	}
}

// BenchmarkIncrementalSweep measures the corpus-level re-analysis win
// (the acceptance criterion): a ground-truth sample is swept once to
// seed the per-package state pool, then each iteration edits ONE
// package and re-sweeps. The cold sweep re-analyzes all packages; the
// warm sweep re-analyzes only the edited one. The speedup metric is
// the cold/warm wall-clock ratio (expected well above the 2× bar).
func BenchmarkIncrementalSweep(b *testing.B) {
	c := sampleCorpus(60)
	pool := scanner.NewStatePool()
	opts := scanner.Options{Workers: 1}
	metrics.SweepGraphJSIncremental(c, opts, pool) // seed
	var coldNs, warmNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Single-file edit: one package's source changes per iteration.
		edited := &dataset.Corpus{Name: c.Name, Packages: append([]*dataset.Package(nil), c.Packages...)}
		p := *edited.Packages[i%len(edited.Packages)]
		p.Source += fmt.Sprintf("\nvar rev = %d;\n", i)
		edited.Packages[i%len(edited.Packages)] = &p

		t0 := time.Now()
		cold := metrics.SweepGraphJS(edited, opts)
		coldNs += time.Since(t0).Nanoseconds()
		t1 := time.Now()
		warm := metrics.SweepGraphJSIncremental(edited, opts, pool)
		warmNs += time.Since(t1).Nanoseconds()
		if len(cold.Results) != len(warm.Results) {
			b.Fatal("bad sweep")
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(coldNs)/n/1e6, "cold-ms")
	b.ReportMetric(float64(warmNs)/n/1e6, "warm-ms")
	if warmNs > 0 {
		b.ReportMetric(float64(coldNs)/float64(warmNs), "speedup")
	}
	stats := pool.Stats()
	b.ReportMetric(float64(stats.FragmentHits), "frag-hits")
	b.ReportMetric(float64(stats.FragmentMisses), "frag-rebuilds")
}

// BenchmarkReachGate sweeps the combined ground-truth corpus with the
// export-graph reachability gate on and off and reports the gate's
// precision counters (snapshot: BENCH_reach.json). The invariant the
// differential oracle enforces — identical finding sets either way —
// is re-checked here so a perf snapshot can never capture an unsound
// configuration.
func BenchmarkReachGate(b *testing.B) {
	vul, sec := dataset.GroundTruth(42)
	c := &dataset.Corpus{Name: "combined"}
	c.Packages = append(c.Packages, vul.Packages...)
	c.Packages = append(c.Packages, sec.Packages...)
	for _, gate := range []bool{true, false} {
		name := "gate=on"
		opts := scanner.Options{Workers: runtime.GOMAXPROCS(0)}
		if !gate {
			name = "gate=off"
			opts.NoReachGate = true
		}
		b.Run(name, func(b *testing.B) {
			var sw *metrics.Sweep
			for i := 0; i < b.N; i++ {
				sw = metrics.SweepGraphJS(c, opts)
				if len(sw.Results) != len(c.Packages) {
					b.Fatal("bad sweep")
				}
			}
			avg := metrics.EngineAverages(sw.Results)
			findings := 0
			for _, r := range sw.Results {
				findings += len(r.Findings)
			}
			b.ReportMetric(float64(findings), "findings")
			b.ReportMetric(float64(avg.FuncsPruned), "pruned")
			b.ReportMetric(avg.PrunedRate()*100, "pruned-pct")
			b.ReportMetric(float64(avg.SkippedByReach), "skipped")
			b.ReportMetric(float64(avg.ReachFallbacks), "fallbacks")
			b.ReportMetric(float64(avg.Exports), "exports")
			b.ReportMetric(float64(avg.MaxProvDepth), "prov-depth")
		})
	}
}
