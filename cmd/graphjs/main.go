// Command graphjs is the Graph.js scanner CLI: it analyzes JavaScript
// files or npm-package directories and reports potential taint-style
// and prototype-pollution vulnerabilities.
//
// Usage:
//
//	graphjs [flags] <file.js | package-dir> ...
//
// Flags:
//
//	-config FILE    sink configuration (JSON); default: built-in sinks
//	-engine NAME    detection engine: native (default), query, or differential
//	-workers N      scan targets on N parallel workers (0 = GOMAXPROCS)
//	-timeout DUR    per-target analysis timeout (default 5m, as in §5.1)
//	-max-steps N    per-target abstract-step cap (0 = unlimited)
//	-max-nodes N    per-target MDG node cap (0 = unlimited)
//	-max-edges N    per-target MDG edge cap (0 = unlimited)
//	-require-sink   treat dynamic require() as a code-injection sink
//	-tree           scan package directories as dependency trees: resolve
//	                node_modules, analyze each package as its own MDG
//	                fragment, stitch, and link cross-package flows
//	-incremental    reuse MDG fragments across scans of repeated targets
//	-cache-dir DIR  persistent analysis store: cached fragments and results
//	                survive across invocations (implies -incremental)
//	-no-fsync       skip store/journal fsyncs (benchmarks only)
//	-sweep          supervised sweep: retry/degradation ladder per target
//	-journal DIR    with -sweep: record per-target outcomes in a journal
//	                directory (a crash-safe store, compacted after the sweep)
//	-resume         with -sweep -journal: skip targets whose entry matches
//	-requarantine   with -resume: re-scan quarantined targets
//	-dump-mdg       print the MDG in Graphviz DOT format and exit
//	-dump-core      print the normalized Core JavaScript and exit
//	-export-db      write the loaded property graph as JSON and exit
//	-trace          include source→sink witness paths in the report
//	-poc            emit proof-of-vulnerability skeletons (§5.3 workflow)
//	-confirm        dynamically confirm findings (instrumented interpreter)
//	-stats          print graph-size and timing statistics
//	-json           machine-readable findings output
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/js/normalize"
	"repro/internal/metrics"
	"repro/internal/poc"
	"repro/internal/queries"
	"repro/internal/scanner"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/sweepjournal"
)

func main() {
	configPath := flag.String("config", "", "sink configuration file (JSON)")
	engineName := flag.String("engine", "native", "detection engine: native, query (the paper's graph queries), or differential")
	workers := flag.Int("workers", 1, "parallel workers for multi-target scans (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-target analysis timeout")
	maxSteps := flag.Int("max-steps", 0, "per-target abstract-step cap (0 = unlimited)")
	maxNodes := flag.Int("max-nodes", 0, "per-target MDG node cap (0 = unlimited)")
	maxEdges := flag.Int("max-edges", 0, "per-target MDG edge cap (0 = unlimited)")
	requireSink := flag.Bool("require-sink", false, "treat dynamic require() as a code-injection sink")
	treeMode := flag.Bool("tree", false, "scan package directories as dependency trees: resolve node_modules, stitch per-package MDG fragments, and link cross-package flows")
	incremental := flag.Bool("incremental", false, "reuse MDG fragments and detection results across scans of repeated targets; -stats prints hit/miss/rebuild counters")
	cacheDir := flag.String("cache-dir", "", "persistent analysis store directory; cached work survives across invocations (implies -incremental)")
	noFsync := flag.Bool("no-fsync", false, "skip store/journal fsyncs (benchmarks only; a crash may lose cached work)")
	sweepMode := flag.Bool("sweep", false, "supervised sweep: retry failures down a degradation ladder until every target reaches a terminal state")
	journalPath := flag.String("journal", "", "with -sweep: record per-target outcomes in this journal directory as workers finish")
	resume := flag.Bool("resume", false, "with -sweep -journal: skip targets whose journal entry matches the current content and options")
	requarantine := flag.Bool("requarantine", false, "with -resume: re-scan quarantined targets instead of skipping them")
	dumpMDG := flag.Bool("dump-mdg", false, "print the MDG in DOT format")
	dumpCore := flag.Bool("dump-core", false, "print the normalized Core JavaScript")
	exportDB := flag.Bool("export-db", false, "write the loaded property graph as JSON")
	trace := flag.Bool("trace", false, "print source→sink witness paths")
	genPoC := flag.Bool("poc", false, "emit proof-of-vulnerability skeletons for findings")
	confirm := flag.Bool("confirm", false, "dynamically confirm findings in the instrumented interpreter")
	stats := flag.Bool("stats", false, "print size and timing statistics")
	asJSON := flag.Bool("json", false, "JSON output")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: graphjs [flags] <file.js | package-dir> ...")
		flag.Usage()
		os.Exit(2)
	}

	cfg := queries.DefaultConfig()
	if *configPath != "" {
		var err error
		cfg, err = queries.LoadConfig(*configPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	cfg.RequireAsCodeInjection = *requireSink

	engine, err := scanner.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Scans run on a bounded worker pool (ScanSource is safe for
	// concurrent use); reports are collected into an index-addressed
	// slice and printed in argument order, so -workers never reorders
	// or interleaves output. Dump modes and the confirmation/PoC
	// passes below stay on the main goroutine.
	targets := flag.Args()
	opts := scanner.Options{
		Config: cfg, Timeout: *timeout, Engine: engine,
		MaxSteps: *maxSteps, MaxNodes: *maxNodes, MaxEdges: *maxEdges,
		Tree: *treeMode,
	}
	var pool *scanner.StatePool
	if *incremental || *cacheDir != "" {
		// One incremental state per distinct target: a target repeated
		// on the command line (or re-scanned by an embedding caller) is
		// re-analyzed only where its files changed.
		pool = scanner.NewStatePool()
	}
	var st *store.Store
	if *cacheDir != "" {
		st, err = store.Open(*cacheDir, store.Options{NoFsync: *noFsync})
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphjs: open cache %s: %v\n", *cacheDir, err)
			os.Exit(1)
		}
		// Close syncs; deferred exits below go through finish.
		pool.AttachStore(st)
	}
	finish := func(code int) {
		if st != nil {
			if cerr := st.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "graphjs: close cache: %v\n", cerr)
				if code == 0 {
					code = 1
				}
			}
		}
		os.Exit(code)
	}
	if *sweepMode {
		if *dumpMDG || *dumpCore || *exportDB {
			fmt.Fprintln(os.Stderr, "graphjs: -sweep cannot be combined with dump modes")
			finish(2)
		}
		opts.Workers = *workers
		finish(runSweep(targets, opts, pool, metrics.SuperviseOptions{
			Journal:      *journalPath,
			Resume:       *resume,
			Requarantine: *requarantine,
			NoFsync:      *noFsync,
		}, *asJSON))
	}
	if *dumpMDG || *dumpCore || *exportDB {
		exit := 0
		for _, target := range targets {
			set, err := scanner.PackageFiles(target, opts.Tree)
			if err == nil {
				err = dump(set, *dumpMDG, *dumpCore, *exportDB)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit = 1
			}
		}
		finish(exit)
	}
	reports, sets, sizes := scanAll(targets, opts, *workers, pool, *stats)

	exit := 0
	for i, target := range targets {
		rep := reports[i]
		if rep.Err != nil {
			fmt.Fprintf(os.Stderr, "graphjs: %v\n", rep.Err)
			exit = 1
			continue
		}
		if *asJSON {
			printJSON(rep)
		} else {
			var size *metrics.SourceSize
			if *stats {
				size = &sizes[i]
			}
			printHuman(rep, size, *trace)
		}
		if *genPoC {
			for _, e := range poc.GenerateAll(rep.Findings, target) {
				fmt.Printf("\n// ---- PoC for %s ----\n%s", e.Finding, e.Script)
			}
		}
		if *confirm {
			confirmFindings(sets[i], rep)
		}
		if len(rep.Findings) > 0 {
			exit = 3 // findings present
		}
	}
	finish(exit)
}

// scanAll reads each target once and scans it on a bounded pool of
// workers goroutines (0 = GOMAXPROCS): reports[i] is the scan of
// sets[i], the file set read for targets[i], and, when stats is set,
// sizes[i] the -stats size of the same set. When pool is non-nil, each
// distinct target gets a persistent incremental state.
func scanAll(targets []string, opts scanner.Options, workers int, pool *scanner.StatePool, stats bool) ([]*scanner.Report, []scanner.FileSet, []metrics.SourceSize) {
	reports := make([]*scanner.Report, len(targets))
	sets := make([]scanner.FileSet, len(targets))
	sizes := make([]metrics.SourceSize, len(targets))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(targets) {
		workers = len(targets)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				set, err := scanner.PackageFiles(targets[i], opts.Tree)
				if err != nil {
					reports[i] = &scanner.Report{Name: targets[i], Err: err}
					continue
				}
				o := opts
				if pool != nil {
					o.Incremental = pool.Get(targets[i])
				}
				sets[i] = set
				reports[i] = set.Scan(o)
				if stats {
					sizes[i] = metrics.CountSourceSize(jsFiles(set))
				}
			}
		}()
	}
	for i := range targets {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return reports, sets, sizes
}

// confirmFindings drives the scanned file set in the instrumented
// interpreter, entering at its entry file, for each finding class and
// reports the dynamic verdicts (§5.3).
func confirmFindings(set scanner.FileSet, rep *scanner.Report) {
	files := jsFiles(set)
	if len(files) == 0 {
		return
	}
	sources := make(map[string]string, len(files))
	for _, f := range files {
		sources[f.Rel] = f.Src
	}
	target := entryFile(files)
	seen := map[queries.CWE]bool{}
	for _, f := range rep.Findings {
		if seen[f.CWE] {
			continue
		}
		seen[f.CWE] = true
		v, err := poc.Confirm(sources, target, f.CWE)
		switch {
		case err != nil:
			fmt.Printf("  confirm %s: error: %v\n", f.CWE, err)
		case v.Exploitable:
			fmt.Printf("  confirm %s: EXPLOITABLE — %s\n", f.CWE, v.Evidence)
		default:
			fmt.Printf("  confirm %s: not confirmed (likely true false positive)\n", f.CWE)
		}
	}
}

// runSweep is the -sweep mode: a supervised sweep over the CLI targets
// with the retry/degradation ladder, optionally journaled for -resume.
// Returns the process exit code.
func runSweep(targets []string, opts scanner.Options, pool *scanner.StatePool,
	sup metrics.SuperviseOptions, asJSON bool) int {

	// The journal keys entries by target name, so a target repeated on
	// the command line is swept once.
	seen := map[string]bool{}
	units := make([]metrics.Target, 0, len(targets))
	for _, target := range targets {
		if seen[target] {
			fmt.Fprintf(os.Stderr, "graphjs: duplicate target %s swept once\n", target)
			continue
		}
		seen[target] = true
		target := target
		// The resume hash covers exactly the file set the attempts scan:
		// under -tree, node_modules and package.json manifests too.
		u := metrics.Target{
			Name: target,
			Read: func() (scanner.FileSet, error) { return scanner.PackageFiles(target, opts.Tree) },
		}
		if pool != nil {
			u.State = func() *scanner.IncrementalState { return pool.Get(target) }
		}
		units = append(units, u)
	}

	sw, stats, err := metrics.SuperviseGraphJSTargets(units, opts, sup)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphjs: sweep: %v\n", err)
		return 1
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(stats.Entries)
	} else {
		for i := range stats.Entries {
			printEntry(&stats.Entries[i])
		}
		fmt.Printf("sweep: %d targets — %d complete, %d degraded, %d quarantined, %d resumed\n",
			len(units), stats.Completed, stats.Degraded, stats.Quarantined, stats.Resumed)
		ea := metrics.EngineAverages(sw.Results)
		if ea.FuncsTotal > 0 || ea.SkippedByReach > 0 {
			fmt.Printf("reach gate: %d/%d functions pruned (%.0f%%), %d targets skipped, %d fallback, %d exports, max provenance depth %d\n",
				ea.FuncsPruned, ea.FuncsTotal, 100*ea.PrunedRate(),
				ea.SkippedByReach, ea.ReachFallbacks, ea.Exports, ea.MaxProvDepth)
		}
		if stats.Torn {
			fmt.Println("(the resumed journal ended in a torn line — kill artifact, repaired)")
		}
	}
	for i := range sw.Results {
		if len(sw.Results[i].Findings) > 0 {
			return 3 // findings present
		}
	}
	return 0
}

// printEntry renders one terminal journal entry for human output.
func printEntry(e *sweepjournal.Entry) {
	fmt.Printf("%s: %s @%s", e.Package, e.State, e.Rung)
	if e.Class != "" {
		fmt.Printf(" [%s]", e.Class)
	}
	if e.Incomplete {
		fmt.Print(" (incomplete)")
	}
	fmt.Printf(" — %d findings, %d attempts\n", len(e.Findings), len(e.Attempts))
	for _, f := range e.Findings {
		fmt.Printf("  [%s] sink %s (%s:%d) from %s\n", f.CWE, f.SinkName, f.SinkFile, f.SinkLine, f.Source)
	}
}

// entryFile picks the module -confirm enters a package at: index.js
// when the package has one, else its first file. A file target is its
// own entry.
func entryFile(files []scanner.SourceFile) string {
	for _, f := range files {
		if f.Rel == "index.js" {
			return f.Rel
		}
	}
	return files[0].Rel
}

// jsFiles returns the files of set a scan parses: tree mode's
// package.json manifests feed the resolver only.
func jsFiles(set scanner.FileSet) []scanner.SourceFile {
	if !set.Tree {
		return set.Files
	}
	var files []scanner.SourceFile
	for _, f := range set.Files {
		if strings.HasSuffix(f.Rel, ".js") {
			files = append(files, f)
		}
	}
	return files
}

// printHuman renders one report; size, when non-nil, selects the
// -stats lines.
func printHuman(rep *scanner.Report, size *metrics.SourceSize, trace bool) {
	fmt.Printf("%s:\n", rep.Name)
	if rep.Failure == budget.ClassTimeout {
		fmt.Println("  analysis timed out")
	}
	if rep.Failure != "" {
		fmt.Printf("  failure class: %s\n", rep.Failure)
	}
	if rep.Incomplete {
		fmt.Println("  incomplete: findings below are the subset established before the budget tripped")
	}
	if len(rep.Findings) == 0 {
		fmt.Println("  no vulnerabilities found")
	}
	for _, f := range rep.Findings {
		fmt.Printf("  %s\n", f)
		if f.Provenance.Entry != "" {
			fmt.Printf("    via %s\n", f.Provenance)
		}
		if len(f.Provenance.DepPath) > 0 {
			fmt.Printf("    dependencies: %s\n", strings.Join(f.Provenance.DepPath, " -> "))
		}
		if trace && len(f.Path) > 0 {
			fmt.Printf("    witness path: %d nodes (ids %v)\n", len(f.Path), f.Path)
		}
	}
	if size != nil {
		fmt.Printf("  stats: %d LoC, %d AST nodes, %d CFG nodes, %d MDG nodes, %d MDG edges\n",
			rep.LoC, size.ASTNodes, size.CFGNodes, rep.MDGNodes, rep.MDGEdges)
		if rep.TreePackages > 0 {
			fmt.Printf("  tree: %d packages, node_modules depth %d\n", rep.TreePackages, rep.TreeDepth)
		}
		graph, traversal := budget.SplitTime(rep.Phases)
		fmt.Printf("  time: graph %s, traversals %s (engine %s)\n", graph, traversal, rep.Engine)
		for _, ph := range rep.Phases {
			fmt.Printf("  phase %s: %d steps, %d nodes, %d edges, %s\n",
				ph.Phase, ph.Steps, ph.Nodes, ph.Edges, ph.Dur.Round(time.Microsecond))
		}
		if rep.ExhaustedPhase != "" {
			fmt.Printf("  budget exhausted in phase: %s\n", rep.ExhaustedPhase)
		}
		if rep.FuncsTotal > 0 || rep.SkippedByReach {
			fmt.Printf("  reach: %d/%d functions pruned, skipped=%v, exports=%d, fallback=%v\n",
				rep.FuncsPruned, rep.FuncsTotal, rep.SkippedByReach, rep.ExportCount, rep.ReachFallback)
		}
		if rep.ProvenanceDepth > 0 {
			fmt.Printf("  provenance: deepest call-hop chain %d\n", rep.ProvenanceDepth)
		}
		if rep.TruncatedSearches > 0 {
			fmt.Printf("  truncated searches: %d (hop bound hit)\n", rep.TruncatedSearches)
		}
		if s := rep.IncrStats; s != nil {
			fmt.Printf("  incremental: front-end %d hit/%d miss, gate units %d hit/%d miss, fragments %d hit/%d rebuilt, detection %d hit/%d miss, evicted %d files/%d fragments\n",
				s.FrontEndHits, s.FrontEndMisses, s.GateHits, s.GateMisses, s.FragmentHits, s.Rebuilds(),
				s.DetectHits, s.DetectMisses, s.EvictedFiles, s.EvictedFragments)
		}
	}
}

// printJSON emits the shared wire rendering (server.ReportToJSON), so
// the CLI's -json output is byte-identical to the daemon's findings
// for the same scan.
func printJSON(rep *scanner.Report) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(server.ReportToJSON(rep))
}

// dump prints the requested dumps of the file set a scan of the target
// covers: the normalized Core of each file (under a "// file:" header
// when there are several), and the MDG or the loaded property graph of
// the package analyzed as one multi-module build. Like a scan, it skips
// a file that could not be read and then reports it.
func dump(set scanner.FileSet, mdgOut, coreOut, exportDB bool) error {
	files := jsFiles(set)
	progs := make([]*core.Program, 0, len(files))
	for _, f := range files {
		prog, err := normalize.File(f.Src, f.Rel)
		if err != nil {
			return fmt.Errorf("%s: %w", f.Rel, err)
		}
		progs = append(progs, prog)
		if coreOut {
			if len(files) > 1 {
				fmt.Printf("// file: %s\n", f.Rel)
			}
			fmt.Print(core.Print(prog.Body))
		}
	}
	if !mdgOut && !exportDB {
		return set.ReadErr
	}
	res := analysis.AnalyzeModules(progs, analysis.DefaultOptions())
	if mdgOut {
		fmt.Print(res.Graph.DOT())
	}
	if exportDB {
		lg := queries.Load(res)
		if err := lg.DB.ExportJSON(os.Stdout); err != nil {
			return err
		}
	}
	return set.ReadErr
}
