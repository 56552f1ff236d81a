package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/scanner"
)

// sweepCorpus is a sweep workload's input: the corpus plus, for
// multi-file packages, their sorted file sets (for the layer replay).
type sweepCorpus struct {
	corpus *dataset.Corpus
	files  [][]scanner.SourceFile // nil entry = single-file package
}

// wildSize is the sweep-wild corpus size (DefaultCollectedMix scale).
const wildSize = 2000

// buildSweepCorpus generates the corpus of a sweep workload from seed.
// tiny keeps every tenth ground-truth package and a 200-package wild
// corpus, for tests.
func buildSweepCorpus(workload string, seed int64, tiny bool) *sweepCorpus {
	var pkgs []*dataset.Package
	switch workload {
	case "sweep-gt":
		vulcan, secbench := dataset.GroundTruth(seed)
		pkgs = append(append(pkgs, vulcan.Packages...), secbench.Packages...)
		if tiny {
			var keep []*dataset.Package
			for i := 0; i < len(pkgs); i += 10 {
				keep = append(keep, pkgs[i])
			}
			pkgs = keep
		}
	case "sweep-wild":
		n := wildSize
		if tiny {
			n = 200
		}
		pkgs = dataset.Collected(seed, dataset.DefaultCollectedMix(n)).Packages
	default:
		panic("perfbench: not a sweep workload: " + workload)
	}
	c := &sweepCorpus{corpus: &dataset.Corpus{Name: workload, Packages: pkgs},
		files: make([][]scanner.SourceFile, len(pkgs))}
	for i, p := range pkgs {
		if len(p.Extra) > 0 {
			c.files[i] = packageFiles(p)
		}
	}
	return c
}

// packageFiles renders a multi-file dataset package as the sorted file
// set scanner.ScanFiles expects, with the main file as index.js.
func packageFiles(p *dataset.Package) []scanner.SourceFile {
	files := []scanner.SourceFile{{Rel: "index.js", Src: p.Source}}
	for rel, src := range p.Extra {
		files = append(files, scanner.SourceFile{Rel: rel, Src: src})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Rel < files[j].Rel })
	return files
}

// check judges one package's result: the scan must end cleanly and
// agree with the package's annotations.
func check(r *metrics.PackageResult) error {
	if r.Err != nil || r.Failure != budget.ClassNone {
		return fmt.Errorf("%s: scan failed (%s): %v", r.Package.Name, r.Failure, r.Err)
	}
	return checkPackage(r.Package, r.Findings)
}

// opTime is a package scan's time as the scanner measures it (front
// end, MDG build and detection): the per-package time of the paper's
// Figure 7.
func opTime(r *metrics.PackageResult) time.Duration { return r.GraphTime + r.QueryTime }

// poolRun accumulates runs of the metrics sweep pool:
// metrics.SweepGraphJS over the whole corpus with default options
// (query engine, reach gate on), pass after pass. An op is one package
// scan; every op is judged, and the first pass is kept for accuracy and
// the finding digest.
type poolRun struct {
	stats     *opStats
	wall, cpu time.Duration // Σ Sweep.Wall, Σ Sweep.CPU
	workers   int
	first     []metrics.PackageResult
}

func newPoolRun(seed int64) *poolRun { return &poolRun{stats: newOpStats(seed)} }

// sweep runs whole passes over c until d has elapsed (at least one).
func (r *poolRun) sweep(c *sweepCorpus, workers int, d time.Duration) {
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		sw := metrics.SweepGraphJS(c.corpus, scanner.Options{Workers: workers})
		for i := range sw.Results {
			r.stats.record(opTime(&sw.Results[i]), check(&sw.Results[i]))
		}
		r.wall += sw.Wall
		r.cpu += sw.CPU
		r.workers = sw.Workers
		if r.first == nil {
			r.first = sw.Results
		}
	}
}

// utilization is the pool's Σ scan time / (wall × workers) over every
// pass, as metrics.Sweep accounts it.
func (r *poolRun) utilization() float64 {
	return ratio(float64(r.cpu), float64(r.wall)*float64(r.workers))
}

// reportPass reports recall and precision exactly as metrics.Evaluate
// computes them over one pass (every package once, in corpus order;
// a partial pass counts the packages it reached), and notes the pass's
// finding digest.
func reportPass(rec *Record, pass []metrics.PackageResult) {
	t := metrics.Evaluate("graphjs", pass, false).TotalCounts()
	rec.set("recall", t.Recall())
	rec.set("precision", t.Precision())
	rec.note("accuracy_counts", t)
	rec.note("first_pass_packages", len(pass))
	dig := newDigest(len(pass))
	for i := range pass {
		dig.put(i, pass[i].Package.Name, pass[i].Findings)
	}
	sum, n := dig.sum()
	rec.note("findings_digest", sum)
	rec.note("findings_digest_ops", n)
}

// sweepSetup generates the corpus and warms the process up with one
// pool pass over it, so the measured passes run at a steady heap size
// and any one-time work the scanner does on first use is paid here. It
// returns the set-up's time in seconds.
func sweepSetup(cfg runConfig) (*sweepCorpus, float64) {
	t0 := time.Now()
	c := buildSweepCorpus(cfg.workload, cfg.seed, cfg.tiny)
	metrics.SweepGraphJS(c.corpus, scanner.Options{Workers: cfg.workers})
	return c, time.Since(t0).Seconds()
}

// runSweep measures a sweep workload. Untraced, the run is cfg.rounds
// rounds, each a fresh set-up followed by its share of the measured
// time, in which the metrics pool sweeps the corpus with nproc workers;
// so the set-ups sample the machine across the run as the measured
// passes do. Traced, after one set-up, the first third is the same
// pool (pool utilization, runtime figures, and the untraced rate this
// run's tracing overhead is judged against) and the rest is a
// one-worker replay in which every op is a one-package pool sweep
// followed by a layer-by-layer replay of the same package.
func runSweep(cfg runConfig, rec *Record) error {
	rec.Meta.Workers = cfg.workers
	if !cfg.traced {
		run := newPoolRun(cfg.seed)
		var setup []float64
		mon := &monitor{}
		for r := 0; r < cfg.rounds; r++ {
			c, secs := sweepSetup(cfg)
			setup = append(setup, secs)
			if r == 0 {
				mon.setupDone()
				rec.note("corpus_packages", len(c.corpus.Packages))
			}
			mon.start(rssWindow)
			run.sweep(c, cfg.workers, cfg.duration/time.Duration(cfg.rounds))
			mon.stop()
		}
		rec.set("setup_s", median(setup))
		rec.note("setup_runs_s", setup)
		mon.report(rec)
		run.stats.latency(rec, run.wall)
		finishOps(rec, run.stats)
		reportPass(rec, run.first)
		return nil
	}

	c, secs := sweepSetup(cfg)
	rec.set("setup_s", secs)
	rec.note("corpus_packages", len(c.corpus.Packages))
	t0, m0 := time.Now(), readMem()
	pool := newPoolRun(cfg.seed)
	pool.sweep(c, cfg.workers, cfg.duration/3)
	m1 := readMem()
	opsA := pool.stats.attempted.Load()
	setRuntime(rec, m0, m1, opsA)
	rec.set("pool.utilization", pool.utilization())
	rec.set("trace.untraced_ops_per_s", float64(opsA)/pool.wall.Seconds())

	pkgs := c.corpus.Packages
	replay := newOpStats(cfg.seed)
	ly := newLayers()
	var first []metrics.PackageResult
	var scanNs time.Duration
	rest := cfg.duration - time.Since(t0)
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < rest; k++ {
		i := k % len(pkgs)
		sw := metrics.SweepGraphJS(&dataset.Corpus{Packages: pkgs[i : i+1]}, scanner.Options{Workers: 1})
		res := &sw.Results[0]
		replay.record(opTime(res), check(res))
		scanNs += opTime(res)
		if k < len(pkgs) {
			first = append(first, *res)
		}
		files, single := c.files[i], false
		if files == nil {
			files, single = []scanner.SourceFile{{Rel: pkgs[i].Name, Src: pkgs[i].Source}}, true
		}
		if err := ly.replay(pkgs[i].Name, files, single); err != nil {
			return err
		}
	}
	wallB := time.Since(start)
	opsB := replay.attempted.Load()
	ly.report(rec)
	rec.set("scanner.scan_ms", float64(scanNs)/1e6/float64(max(opsB, 1)))
	rec.set("trace.ops_per_s", float64(opsB)/wallB.Seconds())
	for _, name := range []string{"scanner.frontend_hit_ratio", "scanner.fragment_hit_ratio",
		"scanner.detect_hit_ratio", "scanner.rebuilds_per_op", "store.hit_ratio", "store.puts_per_op",
		"store.log_kb", "store.open_ms", "deptree.ms", "server.handler_ms", "server.overhead_ms",
		"server.wire_ms", "server.rejected"} {
		rec.set(name, 0) // cold flat scans: no incremental state, store, tree or server
	}

	finishOps(rec, pool.stats, replay)
	reportPass(rec, first)
	return nil
}
