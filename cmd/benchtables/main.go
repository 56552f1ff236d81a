// Command benchtables regenerates every table and figure of the
// paper's evaluation (§5) on the synthetic corpora:
//
//	benchtables -table 3      dataset composition (Table 3)
//	benchtables -table 4      effectiveness vs baseline (Table 4)
//	benchtables -figure 6     detection Venn diagram (Figure 6)
//	benchtables -table 5      wild-corpus findings (Table 5)
//	benchtables -figure 7     analysis-time CDF (Figure 7)
//	benchtables -table 6      per-phase timing (Table 6)
//	benchtables -table 7      graph sizes by LoC (Table 7)
//	benchtables -sweep        worker-pool scaling (1/2/4/8 workers)
//	benchtables -faults       failure-class counts on the crash corpus
//	benchtables -all          everything
//
// Every Graph.js sweep here runs the query engine explicitly, not the
// scanner's native default: the paper's rows (Tables 4-7, the
// per-engine traversal timings) measure its graph-database detection.
//
// Corpus scans run on a bounded worker pool; -workers N bounds it
// (default GOMAXPROCS). Results are printed with the paper's reference
// values alongside the measured ones where applicable.
//
// With -journal P the ground-truth sweeps run supervised: each worker
// records its package's terminal outcome (after the retry/degradation
// ladder) in the journal directory P-graphjs / P-odgen as it finishes, and -resume skips packages already journaled under
// the same content hash and options. Resumed rows carry findings and
// classification but no timings, so timing tables reflect only the
// packages actually re-scanned.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/odgen"
	"repro/internal/poc"
	"repro/internal/queries"
	"repro/internal/scanner"
)

func main() {
	table := flag.Int("table", 0, "table number to regenerate (3-7)")
	figure := flag.Int("figure", 0, "figure number to regenerate (6 or 7)")
	all := flag.Bool("all", false, "regenerate everything")
	seed := flag.Int64("seed", 42, "corpus generation seed")
	collectedN := flag.Int("collected", 800, "size of the Collected-style corpus")
	workers := flag.Int("workers", 0, "worker-pool size for corpus sweeps (0 = GOMAXPROCS)")
	sweep := flag.Bool("sweep", false, "print worker-pool scaling (1/2/4/8 workers)")
	faults := flag.Bool("faults", false, "print failure-class counts on the crash corpus")
	provenance := flag.Bool("provenance", false, "print the reach-gate precision table (pruned %, gate-skip rate, provenance depth) gated vs ungated")
	journal := flag.String("journal", "", "supervise the ground-truth sweeps and journal outcomes to the directories P-graphjs / P-odgen")
	resume := flag.Bool("resume", false, "with -journal: skip packages whose journal entry matches")
	requarantine := flag.Bool("requarantine", false, "with -resume: re-scan quarantined packages")
	flag.Parse()

	r := newRunner(*seed, *collectedN)
	r.workers = *workers
	r.journal = *journal
	r.resume = *resume
	r.requarantine = *requarantine
	switch {
	case *sweep:
		r.sweepTable()
	case *faults:
		r.faultsTable()
	case *provenance:
		r.provenanceTable()
	case *all:
		r.table3()
		r.table4()
		r.figure6()
		r.table5()
		r.figure7()
		r.table6()
		r.table7()
		r.provenanceTable()
	case *table == 3:
		r.table3()
	case *table == 4:
		r.table4()
	case *table == 5:
		r.table5()
	case *table == 6:
		r.table6()
	case *table == 7:
		r.table7()
	case *figure == 6:
		r.figure6()
	case *figure == 7:
		r.figure7()
	default:
		flag.Usage()
		os.Exit(2)
	}
}

type runner struct {
	seed       int64
	collectedN int
	workers    int

	journal      string // journal path prefix ("" = unsupervised sweeps)
	resume       bool
	requarantine bool

	vulcan, secbench, combined *dataset.Corpus

	gjs, odg   []metrics.PackageResult
	gOut, oOut *metrics.Outcome
	ran        bool
}

func newRunner(seed int64, collectedN int) *runner {
	vul, sec := dataset.GroundTruth(seed)
	combined := &dataset.Corpus{Name: "combined"}
	combined.Packages = append(combined.Packages, vul.Packages...)
	combined.Packages = append(combined.Packages, sec.Packages...)
	return &runner{seed: seed, collectedN: collectedN, vulcan: vul, secbench: sec, combined: combined}
}

// superviseOpts derives the supervised-sweep options for one tool's
// journal (distinct directories per tool: the journal keys entries by
// package name, and both tools sweep the same corpus).
func (r *runner) superviseOpts(tool string) metrics.SuperviseOptions {
	return metrics.SuperviseOptions{
		Journal:      r.journal + "-" + tool,
		Resume:       r.resume,
		Requarantine: r.requarantine,
	}
}

func reportSupervised(tool string, stats *metrics.SuperviseStats, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: %s journal: %v\n", tool, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "  supervised: %d complete, %d degraded, %d quarantined, %d resumed\n",
		stats.Completed, stats.Degraded, stats.Quarantined, stats.Resumed)
}

// run executes both tools over the ground truth once (memoized). With
// -journal the sweeps run supervised: each worker records its
// package's terminal outcome in the tool's journal as it finishes, and
// -resume skips the packages already journaled.
func (r *runner) run() {
	if r.ran {
		return
	}
	fmt.Fprintf(os.Stderr, "scanning %d packages with Graph.js...\n", len(r.combined.Packages))
	var gs *metrics.Sweep
	if r.journal != "" {
		var stats *metrics.SuperviseStats
		var err error
		gs, stats, err = metrics.SuperviseGraphJS(r.combined, scanner.Options{Engine: scanner.EngineQuery, Workers: r.workers}, r.superviseOpts("graphjs"))
		reportSupervised("Graph.js", stats, err)
	} else {
		gs = metrics.SweepGraphJS(r.combined, scanner.Options{Engine: scanner.EngineQuery, Workers: r.workers})
	}
	r.gjs = gs.Results
	fmt.Fprintf(os.Stderr, "  %d workers: wall %s, cpu %s (%.2fx)\n",
		gs.Workers, gs.Wall.Round(time.Millisecond), gs.CPU.Round(time.Millisecond), gs.Speedup())
	fmt.Fprintf(os.Stderr, "scanning %d packages with the ODGen-style baseline...\n", len(r.combined.Packages))
	od := odgen.DefaultOptions()
	od.Workers = r.workers
	var osw *metrics.Sweep
	if r.journal != "" {
		var stats *metrics.SuperviseStats
		var err error
		osw, stats, err = metrics.SuperviseODGen(r.combined, od, r.superviseOpts("odgen"))
		reportSupervised("ODGen*", stats, err)
	} else {
		osw = metrics.SweepODGen(r.combined, od)
	}
	r.odg = osw.Results
	fmt.Fprintf(os.Stderr, "  %d workers: wall %s, cpu %s (%.2fx)\n",
		osw.Workers, osw.Wall.Round(time.Millisecond), osw.CPU.Round(time.Millisecond), osw.Speedup())
	r.gOut = metrics.Evaluate("Graph.js", r.gjs, false)
	r.oOut = metrics.Evaluate("ODGen*", r.odg, true)
	r.ran = true
}

// sweepTable measures the ground-truth Graph.js sweep at 1/2/4/8
// workers (the EXPERIMENTS.md scaling table) and cross-checks that
// every worker count reports the same findings.
func (r *runner) sweepTable() {
	fmt.Println("== Worker-pool scaling: Graph.js over the ground-truth corpus ==")
	var rows [][]string
	var baseline *metrics.Sweep
	for _, w := range []int{1, 2, 4, 8} {
		sw := metrics.SweepGraphJS(r.combined, scanner.Options{Engine: scanner.EngineQuery, Workers: w})
		if baseline == nil {
			baseline = sw
		}
		rows = append(rows, []string{
			fmt.Sprint(sw.Workers),
			metrics.FmtDur(sw.Wall),
			metrics.FmtDur(sw.CPU),
			fmt.Sprintf("%.2fx", sw.Speedup()),
			fmt.Sprintf("%.2fx", float64(baseline.Wall)/float64(sw.Wall)),
			fmt.Sprint(sameFindings(baseline.Results, sw.Results)),
		})
	}
	fmt.Print(metrics.Table(
		[]string{"workers", "wall", "sum-of-CPU", "cpu/wall", "vs 1 worker", "findings=seq"}, rows))
	fmt.Printf("(%d packages, GOMAXPROCS=%d)\n\n", len(r.combined.Packages), runtime.GOMAXPROCS(0))
}

// provenanceTable measures the export-graph reach gate on the
// ground-truth corpus: pruning and skip rates, fallback rate, export
// counts and finding-provenance depth, with the gate on and off —
// plus the soundness cross-check that both modes report identical
// findings (the differential oracle, rendered as a column).
func (r *runner) provenanceTable() {
	fmt.Println("== Reach-gate precision: export-graph gate over the ground-truth corpus ==")
	gated := metrics.SweepGraphJS(r.combined, scanner.Options{Engine: scanner.EngineQuery, Workers: r.workers})
	ungated := metrics.SweepGraphJS(r.combined, scanner.Options{Engine: scanner.EngineQuery, Workers: r.workers, NoReachGate: true})
	row := func(label string, sw *metrics.Sweep) []string {
		ea := metrics.EngineAverages(sw.Results)
		n := 0
		for _, pr := range sw.Results {
			n += len(pr.Findings)
		}
		return []string{
			label,
			metrics.FmtDur(sw.Wall),
			fmt.Sprintf("%d/%d", ea.FuncsPruned, ea.FuncsTotal),
			metrics.FmtPct(ea.PrunedRate()),
			fmt.Sprintf("%d/%d", ea.SkippedByReach, len(sw.Results)),
			fmt.Sprint(ea.ReachFallbacks),
			fmt.Sprint(ea.Exports),
			fmt.Sprint(ea.MaxProvDepth),
			fmt.Sprint(n),
		}
	}
	rows := [][]string{row("export-graph", gated), row("ungated", ungated)}
	fmt.Print(metrics.Table([]string{
		"gate", "wall", "pruned", "pruned-rate", "skipped", "fallback", "exports", "prov-depth", "findings",
	}, rows))
	fmt.Printf("findings identical gated vs ungated: %v\n\n", sameFindings(gated.Results, ungated.Results))
}

// faultsTable sweeps the pathological crash corpus with both tools
// under a tight per-package budget and reports how each run ended —
// the fault-containment counterpart of the effectiveness tables.
func (r *runner) faultsTable() {
	c := dataset.Pathological()
	fmt.Printf("== Failure classes: %d crash-corpus packages, 2s/package budget ==\n", len(c.Packages))
	gs := metrics.SweepGraphJS(c, scanner.Options{Engine: scanner.EngineQuery, Timeout: 2 * time.Second, Workers: r.workers})
	od := odgen.DefaultOptions()
	od.StepBudget = 20000
	od.Timeout = 2 * time.Second
	od.Workers = r.workers
	osw := metrics.SweepODGen(c, od)

	gc := metrics.FailureCounts(gs.Results)
	oc := metrics.FailureCounts(osw.Results)
	var rows [][]string
	for _, cl := range append([]budget.Class{budget.ClassNone}, budget.Classes...) {
		rows = append(rows, []string{cl.String(), fmt.Sprint(gc[cl]), fmt.Sprint(oc[cl])})
	}
	fmt.Print(metrics.Table([]string{"class", "Graph.js", "ODGen*"}, rows))
	var rows2 [][]string
	for i, p := range c.Packages {
		g, o := gs.Results[i], osw.Results[i]
		rows2 = append(rows2, []string{
			p.Name, g.Failure.String(), fmt.Sprint(len(g.Findings)),
			o.Failure.String(), fmt.Sprint(len(o.Findings)),
		})
	}
	fmt.Print(metrics.Table([]string{"package", "G.class", "G.findings", "O.class", "O.findings"}, rows2))
	fmt.Println("(every package terminates within its budget; budget-exceeded rows keep")
	fmt.Println(" the findings established before the budget tripped)")
	fmt.Println()
}

// sameFindings reports whether two sweeps produced identical
// finding-sets package by package.
func sameFindings(a, b []metrics.PackageResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Package != b[i].Package {
			return false
		}
		if scanner.DiffFindings(a[i].Findings, b[i].Findings) != nil {
			return false
		}
	}
	return true
}

func cweName(c queries.CWE) string {
	switch c {
	case queries.CWEPathTraversal:
		return "Path Traversal"
	case queries.CWECommandInjection:
		return "Command Injection"
	case queries.CWECodeInjection:
		return "Code Injection"
	case queries.CWEPrototypePollution:
		return "Prototype Pollution"
	}
	return string(c)
}

// table3 prints the dataset composition (Table 3).
func (r *runner) table3() {
	fmt.Println("== Table 3: reference datasets per vulnerability type ==")
	count := func(c *dataset.Corpus) map[queries.CWE]int {
		m := map[queries.CWE]int{}
		for _, p := range c.Packages {
			for _, a := range p.Annotated {
				m[a.CWE]++
			}
		}
		return m
	}
	vm, sm := count(r.vulcan), count(r.secbench)
	total := 0
	var rows [][]string
	for _, cwe := range queries.AllCWEs {
		t := vm[cwe] + sm[cwe]
		total += t
		rows = append(rows, []string{
			cweName(cwe), string(cwe),
			fmt.Sprint(vm[cwe]), fmt.Sprint(sm[cwe]), fmt.Sprint(t),
			fmt.Sprintf("%.1f%%", 100*float64(t)/603.0),
		})
	}
	rows = append(rows, []string{"Total", "", fmt.Sprint(r.vulcan.NumVulns()),
		fmt.Sprint(r.secbench.NumVulns()), fmt.Sprint(total), ""})
	fmt.Print(metrics.Table(
		[]string{"Vulnerability Type", "CWE", "VulcaN*", "SecBench*", "Total", "Distribution"}, rows))
	fmt.Println("(paper totals: 5+161=166, 87+82=169, 33+21=54, 94+120=214, total 603)")
	fmt.Println()
}

// table4 prints effectiveness and precision (Table 4).
func (r *runner) table4() {
	r.run()
	fmt.Println("== Table 4: effectiveness and precision (measured | paper) ==")
	paper := map[queries.CWE][2][3]float64{ // [tool][precision recall f1]
		queries.CWEPathTraversal:      {{0.84, 0.97, 0.90}, {1.00, 0.62, 0.77}},
		queries.CWECommandInjection:   {{0.95, 0.95, 0.95}, {0.71, 0.73, 0.72}},
		queries.CWECodeInjection:      {{0.78, 0.87, 0.82}, {0.66, 0.44, 0.53}},
		queries.CWEPrototypePollution: {{0.60, 0.59, 0.59}, {0.76, 0.20, 0.31}},
	}
	var rows [][]string
	for _, cwe := range queries.AllCWEs {
		g := r.gOut.PerCWE[cwe]
		o := r.oOut.PerCWE[cwe]
		pp := paper[cwe]
		rows = append(rows, []string{
			string(cwe), fmt.Sprint(g.Total),
			fmt.Sprint(g.TP), fmt.Sprint(g.FP), fmt.Sprint(g.TFP),
			metrics.FmtPct(g.Recall()), metrics.FmtPct(g.Precision()), metrics.FmtPct(g.F1()),
			fmt.Sprintf("(%.2f/%.2f)", pp[0][1], pp[0][0]),
			fmt.Sprint(o.TP), fmt.Sprint(o.FP), fmt.Sprint(o.TFP),
			metrics.FmtPct(o.Recall()), metrics.FmtPct(o.Precision()),
			fmt.Sprintf("(%.2f/%.2f)", pp[1][1], pp[1][0]),
		})
	}
	g, o := r.gOut.TotalCounts(), r.oOut.TotalCounts()
	rows = append(rows, []string{
		"Total", fmt.Sprint(g.Total),
		fmt.Sprint(g.TP), fmt.Sprint(g.FP), fmt.Sprint(g.TFP),
		metrics.FmtPct(g.Recall()), metrics.FmtPct(g.Precision()), metrics.FmtPct(g.F1()),
		"(0.82/0.78)",
		fmt.Sprint(o.TP), fmt.Sprint(o.FP), fmt.Sprint(o.TFP),
		metrics.FmtPct(o.Recall()), metrics.FmtPct(o.Precision()),
		"(0.50/0.64)",
	})
	fmt.Print(metrics.Table([]string{
		"CWE", "Total",
		"G.TP", "G.FP", "G.TFP", "G.Rec", "G.Prec", "G.F1", "G.paper(R/P)",
		"O.TP", "O.FP", "O.TFP", "O.Rec", "O.Prec", "O.paper(R/P)",
	}, rows))
	fmt.Println("(Graph.js per-CWE paper values are from Table 4; the ODGen per-CWE")
	fmt.Println(" values are reconstructed from the paper's prose where the table was")
	fmt.Println(" not fully machine-readable — totals 304 TP / 0.50 recall are exact.)")
	fmt.Println()
}

// figure6 prints the detection overlap (Figure 6).
func (r *runner) figure6() {
	r.run()
	onlyG, both, onlyO := metrics.Venn(r.gOut, r.oOut)
	fmt.Println("== Figure 6: Venn diagram of detected vulnerabilities ==")
	fmt.Printf("Graph.js only: %d   (paper: 207)\n", onlyG)
	fmt.Printf("both:          %d   (paper: 287)\n", both)
	fmt.Printf("baseline only: %d   (paper: 17)\n", onlyO)
	fmt.Println()
}

// table5 scans the Collected-style wild corpus (Table 5).
func (r *runner) table5() {
	fmt.Println("== Table 5: findings in the Collected-style corpus ==")
	c := dataset.Collected(r.seed+1, dataset.DefaultCollectedMix(r.collectedN))
	cfg := queries.DefaultConfig()
	cfg.RequireAsCodeInjection = true // the wild-scan configuration (§5.3)
	reported := map[queries.CWE]int{}
	exploitable := map[queries.CWE]int{}
	fp := map[queries.CWE]int{}
	confirmed := map[string]map[queries.CWE]bool{}
	// Scans run on the worker pool; the confirmation pass below stays
	// sequential because it shares the memoization maps.
	results := metrics.RunGraphJS(c, scanner.Options{Engine: scanner.EngineQuery, Config: cfg, Workers: r.workers})
	for i, p := range c.Packages {
		rep := results[i]
		for _, f := range rep.Findings {
			reported[f.CWE]++
			// Dynamic confirmation (the paper's expert check, §5.3):
			// drive the package in the instrumented interpreter and
			// observe whether the class oracle fires.
			if confirmed[p.Name] == nil {
				confirmed[p.Name] = map[queries.CWE]bool{}
			}
			ok, cached := confirmed[p.Name][f.CWE]
			if !cached {
				v, err := poc.Confirm(map[string]string{"index.js": p.Source}, "index.js", f.CWE)
				ok = err == nil && v.Exploitable
				confirmed[p.Name][f.CWE] = ok
			}
			if ok {
				exploitable[f.CWE]++
			} else {
				fp[f.CWE]++
			}
		}
	}
	var rows [][]string
	paper := map[queries.CWE][3]int{ // reported, exploitable, FP (of checked)
		queries.CWEPathTraversal:      {1223, 4, 21},
		queries.CWECommandInjection:   {384, 71, 91},
		queries.CWECodeInjection:      {701, 10, 191},
		queries.CWEPrototypePollution: {361, 16, 15},
	}
	for _, cwe := range queries.AllCWEs {
		pp := paper[cwe]
		rows = append(rows, []string{
			cweName(cwe), fmt.Sprint(reported[cwe]), fmt.Sprint(exploitable[cwe]),
			fmt.Sprint(fp[cwe]),
			fmt.Sprintf("(paper: %d/%d/%d)", pp[0], pp[1], pp[2]),
		})
	}
	fmt.Print(metrics.Table([]string{"Vulnerability", "Reported", "Exploitable*", "FP", "paper(Rep/Expl/FP)"}, rows))
	fmt.Println("(*Exploitable = dynamically confirmed by the instrumented interpreter)")
	fmt.Printf("(corpus: %d packages; paper used 32K real packages)\n\n", len(c.Packages))
}

// figure7 prints the analysis-time CDF (Figure 7).
func (r *runner) figure7() {
	r.run()
	fmt.Println("== Figure 7: CDF of total analysis time ==")
	// Thresholds as fractions of the timeout cap.
	maxT := maxTime(r.gjs)
	if m := maxTime(r.odg); m > maxT {
		maxT = m
	}
	cap := maxT * 10
	var ths []time.Duration
	for _, f := range []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2, 10} {
		ths = append(ths, time.Duration(float64(maxT)*f))
	}
	gc := metrics.CDF(r.gjs, ths, cap)
	oc := metrics.CDF(r.odg, ths, cap)
	var rows [][]string
	for i, th := range ths {
		rows = append(rows, []string{
			metrics.FmtDur(th),
			fmt.Sprintf("%.1f%%", gc[i]*100),
			fmt.Sprintf("%.1f%%", oc[i]*100),
		})
	}
	fmt.Print(metrics.Table([]string{"t <=", "Graph.js", "baseline"}, rows))
	fmt.Printf("completed: Graph.js %.1f%% (paper: 98.2%%), baseline %.1f%% (paper: 71.5%%)\n\n",
		100*float64(len(r.gjs)-r.gOut.TimedOut)/float64(len(r.gjs)),
		100*float64(len(r.odg)-r.oOut.TimedOut)/float64(len(r.odg)))
}

func maxTime(rs []metrics.PackageResult) time.Duration {
	var m time.Duration
	for _, r := range rs {
		if !r.TimedOut && r.GraphTime+r.QueryTime > m {
			m = r.GraphTime + r.QueryTime
		}
	}
	return m
}

// table6 prints per-phase average times (Table 6).
func (r *runner) table6() {
	r.run()
	fmt.Println("== Table 6: average time per analysis phase (non-timed-out) ==")
	g := metrics.PhaseAverages(r.gjs)
	o := metrics.PhaseAverages(r.odg)
	var rows [][]string
	for _, cwe := range queries.AllCWEs {
		gp, op := g[cwe], o[cwe]
		rows = append(rows, []string{
			string(cwe),
			metrics.FmtDur(gp[0]), metrics.FmtDur(gp[1]), metrics.FmtDur(gp[0] + gp[1]),
			metrics.FmtDur(op[0]), metrics.FmtDur(op[1]), metrics.FmtDur(op[0] + op[1]),
		})
	}
	fmt.Print(metrics.Table([]string{
		"CWE", "G.graph", "G.traversals", "G.total",
		"O.graph", "O.traversals", "O.total",
	}, rows))
	fmt.Println("(paper, seconds: Graph.js 2.10/2.44/4.61 total avg; ODGen 2.68/2.73/5.41;")
	fmt.Println(" ODGen's traversals faster for taint-style CWEs, far slower for CWE-1321)")
	fmt.Println()
}

// table7 prints graph sizes by LoC bucket (Table 7).
func (r *runner) table7() {
	r.run()
	fmt.Println("== Table 7: graph size by package LoC ==")
	bounds := []int{12, 16, 20, 24}
	gb := metrics.SizeBuckets(r.gjs, bounds)
	ob := metrics.SizeBuckets(r.odg, bounds)
	var rows [][]string
	for i := range gb {
		rows = append(rows, []string{
			gb[i].Label, fmt.Sprint(gb[i].Packages),
			fmt.Sprint(gb[i].Graphs), fmt.Sprintf("%.0f", gb[i].AvgNodes), fmt.Sprintf("%.0f", gb[i].AvgEdges),
			fmt.Sprint(ob[i].Graphs), fmt.Sprintf("%.0f", ob[i].AvgNodes), fmt.Sprintf("%.0f", ob[i].AvgEdges),
		})
	}
	fmt.Print(metrics.Table([]string{
		"LoC", "#", "G.graphs", "G.nodes", "G.edges", "O.graphs", "O.nodes", "O.edges",
	}, rows))
	var gN, oN, gE, oE float64
	n := 0
	for i := range r.gjs {
		if !r.odg[i].TimedOut {
			gN += float64(r.gjs[i].TotalNodes)
			gE += float64(r.gjs[i].TotalEdges)
			oN += float64(r.odg[i].TotalNodes)
			oE += float64(r.odg[i].TotalEdges)
			n++
		}
	}
	if oN > 0 && oE > 0 {
		fmt.Printf("avg over both-completed packages: nodes %.2fx, edges %.2fx (paper: 0.14x nodes, 0.42x edges)\n\n",
			gN/oN, gE/oE)
	}
}
