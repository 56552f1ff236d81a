package metrics

import (
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/odgen"
	"repro/internal/scanner"
)

// Sweep is the outcome of scanning a whole corpus with one tool:
// per-package results in corpus order plus the aggregate timing that
// makes the parallel speedup measurable. Wall is the elapsed time of
// the sweep; CPU is the sum of the per-package analysis times, which
// is (approximately) what a single worker would have spent. Their
// ratio, Speedup, approaches the worker count when packages
// parallelize well.
type Sweep struct {
	Results []PackageResult
	Wall    time.Duration // elapsed wall-clock time for the whole sweep
	CPU     time.Duration // sum of per-package analysis times
	Workers int           // workers the pool actually used
}

// Speedup is the sum-of-CPU over wall-clock ratio (1.0 when sequential,
// → Workers under perfect scaling). Returns 0 when no time was
// recorded.
func (s *Sweep) Speedup() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.CPU) / float64(s.Wall)
}

// poolWorkers resolves a Workers option: 0 (or negative) means
// runtime.GOMAXPROCS(0), and the pool never spawns more workers than
// there are packages.
func poolWorkers(workers, packages int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > packages {
		workers = packages
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runCorpus is the shared per-package runner behind every corpus
// sweep: a bounded worker pool executing scan(i) for each package
// index. The sequential path is simply the Workers=1 instance of the
// same pool — there is no second code path. Results are written into
// an index-addressed slice, so the output order is the corpus package
// order no matter how the scheduler interleaves workers, and no two
// goroutines ever touch the same element.
func runCorpus(packages, workers int, scan func(i int) PackageResult) *Sweep {
	n := poolWorkers(workers, packages)
	sw := &Sweep{Results: make([]PackageResult, packages), Workers: n}
	start := time.Now()

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				sw.Results[i] = protect(i, scan)
			}
		}()
	}
	for i := 0; i < packages; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	sw.Wall = time.Since(start)
	for i := range sw.Results {
		r := &sw.Results[i]
		sw.CPU += r.GraphTime + r.QueryTime
	}
	return sw
}

// protect runs one package scan and converts a panic that escaped the
// scanner's own guards into a classified failure row, so one broken
// package cannot take down the worker — the pool keeps draining and
// every other package still gets its result.
func protect(i int, scan func(i int) PackageResult) (pr PackageResult) {
	defer func() {
		if r := recover(); r != nil {
			pr = PackageResult{
				Err:     &budget.PanicError{Phase: "sweep", Value: r, Stack: debug.Stack()},
				Failure: budget.ClassPanic,
			}
		}
	}()
	return scan(i)
}

// fillPackages restores the Package pointer on rows whose scan
// panicked before producing one (protect can only synthesize the
// error half of the row).
func fillPackages(sw *Sweep, c *dataset.Corpus) *Sweep {
	for i := range sw.Results {
		if sw.Results[i].Package == nil {
			sw.Results[i].Package = c.Packages[i]
		}
	}
	return sw
}

// FailureCounts tallies results per failure class (budget.ClassNone
// counts the clean runs).
func FailureCounts(results []PackageResult) map[budget.Class]int {
	m := map[budget.Class]int{}
	for i := range results {
		m[results[i].Failure]++
	}
	return m
}

// graphjsResult assembles one Graph.js scan report into a
// PackageResult row.
func graphjsResult(p *dataset.Package, rep *scanner.Report) PackageResult {
	return PackageResult{
		Package:           p,
		Findings:          rep.Findings,
		TimedOut:          rep.TimedOut,
		Err:               rep.Err,
		Failure:           rep.Failure,
		Incomplete:        rep.Incomplete,
		GraphTime:         rep.TotalTime() - rep.DetectTime(),
		QueryTime:         rep.DetectTime(),
		TotalNodes:        rep.TotalNodes(),
		TotalEdges:        rep.TotalEdges(),
		LoC:               rep.LoC,
		QueryEngineTime:   rep.PhaseTime(scanner.PhaseDetectQuery),
		NativeTime:        rep.PhaseTime(scanner.PhaseDetectNative),
		FuncsTotal:        rep.FuncsTotal,
		FuncsPruned:       rep.FuncsPruned,
		SkippedByReach:    rep.SkippedByReach,
		ExportCount:       rep.ExportCount,
		ReachFallback:     rep.ReachFallback,
		ProvenanceDepth:   rep.ProvenanceDepth,
		TruncatedSearches: rep.TruncatedSearches,
	}
}

// odgenResult assembles one baseline scan report into a PackageResult
// row.
func odgenResult(p *dataset.Package, rep *odgen.Report) PackageResult {
	return PackageResult{
		Package:    p,
		Findings:   rep.Findings,
		TimedOut:   rep.TimedOut,
		Err:        rep.Err,
		Failure:    rep.Failure,
		Incomplete: rep.Incomplete,
		GraphTime:  rep.GraphTime,
		QueryTime:  rep.QueryTime,
		TotalNodes: rep.ODGNodes,
		TotalEdges: rep.ODGEdges,
		LoC:        rep.LoC,
	}
}

// SweepGraphJS scans every package of a corpus with Graph.js on a
// bounded worker pool (opts.Workers goroutines; 0 = GOMAXPROCS) and
// returns per-package results in corpus order plus aggregate wall-clock
// vs CPU timing. Packages are independent and scanner.ScanSource is
// safe for concurrent use, so results are identical to a sequential
// sweep regardless of scheduling.
func SweepGraphJS(c *dataset.Corpus, opts scanner.Options) *Sweep {
	return fillPackages(runCorpus(len(c.Packages), opts.Workers, func(i int) PackageResult {
		p := c.Packages[i]
		return graphjsResult(p, scanPackage(p, opts))
	}), c)
}

// scanPackage scans one dataset package: single-file packages through
// ScanSource, multi-file packages (re-export templates with Extra
// modules) through ScanFiles with the main file as index.js.
func scanPackage(p *dataset.Package, opts scanner.Options) *scanner.Report {
	if len(p.Extra) == 0 {
		return scanner.ScanSource(p.Source, p.Name, opts)
	}
	files := packageFiles(p)
	return scanner.ScanFiles(files, p.Name, opts)
}

// packageFiles renders a multi-file package as a sorted SourceFile
// set (ScanFiles requires sorted Rel order).
func packageFiles(p *dataset.Package) []scanner.SourceFile {
	files := []scanner.SourceFile{{Rel: "index.js", Src: p.Source}}
	rels := make([]string, 0, len(p.Extra))
	for rel := range p.Extra {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		files = append(files, scanner.SourceFile{Rel: rel, Src: p.Extra[rel]})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Rel < files[j].Rel })
	return files
}

// packageContent is the content string hashed for journal resume keys;
// it covers every file of the package.
func packageContent(p *dataset.Package) string {
	if len(p.Extra) == 0 {
		return p.Source
	}
	var sb strings.Builder
	for _, f := range packageFiles(p) {
		sb.WriteString(f.Rel)
		sb.WriteByte(0)
		sb.WriteString(f.Src)
		sb.WriteByte(0)
	}
	return sb.String()
}

// SweepGraphJSIncremental is SweepGraphJS with per-package incremental
// states drawn from pool (each package name gets a dedicated
// scanner.IncrementalState). A first sweep over a corpus is all misses;
// re-sweeping after editing a few packages re-analyzes only those —
// pool.Stats() exposes the hit/miss/rebuild counters.
func SweepGraphJSIncremental(c *dataset.Corpus, opts scanner.Options, pool *scanner.StatePool) *Sweep {
	return fillPackages(runCorpus(len(c.Packages), opts.Workers, func(i int) PackageResult {
		p := c.Packages[i]
		o := opts
		o.Incremental = pool.Get(p.Name)
		return graphjsResult(p, scanPackage(p, o))
	}), c)
}

// SweepODGen scans every package of a corpus with the ODGen-style
// baseline on the same bounded worker pool as SweepGraphJS.
func SweepODGen(c *dataset.Corpus, opts odgen.Options) *Sweep {
	return fillPackages(runCorpus(len(c.Packages), opts.Workers, func(i int) PackageResult {
		p := c.Packages[i]
		return odgenResult(p, odgen.Scan(p.Source, p.Name, opts))
	}), c)
}

// RunGraphJS scans every package of a corpus with Graph.js and collects
// per-package results in corpus order. Parallelism is controlled by
// opts.Workers (0 = GOMAXPROCS); use SweepGraphJS to also get the
// aggregate sweep timing.
func RunGraphJS(c *dataset.Corpus, opts scanner.Options) []PackageResult {
	return SweepGraphJS(c, opts).Results
}

// RunODGen scans every package of a corpus with the ODGen-style
// baseline. Parallelism is controlled by opts.Workers (0 = GOMAXPROCS);
// use SweepODGen to also get the aggregate sweep timing.
func RunODGen(c *dataset.Corpus, opts odgen.Options) []PackageResult {
	return SweepODGen(c, opts).Results
}
