package metrics

import (
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/odgen"
	"repro/internal/queries"
	"repro/internal/scanner"
)

func mkPkg(name string, cwe queries.CWE, annLines, expLines []int) *dataset.Package {
	p := &dataset.Package{Name: name, CWE: cwe}
	for _, l := range annLines {
		a := dataset.Annotation{CWE: cwe, Line: l}
		p.Annotated = append(p.Annotated, a)
		p.Exploitable = append(p.Exploitable, a)
	}
	for _, l := range expLines {
		p.Exploitable = append(p.Exploitable, dataset.Annotation{CWE: cwe, Line: l})
	}
	return p
}

func TestEvaluateClassification(t *testing.T) {
	pkg := mkPkg("p1", queries.CWECommandInjection, []int{5}, []int{9})
	results := []PackageResult{{
		Package: pkg,
		Findings: []queries.Finding{
			{CWE: queries.CWECommandInjection, SinkLine: 5},  // TP
			{CWE: queries.CWECommandInjection, SinkLine: 9},  // FP, not TFP
			{CWE: queries.CWECommandInjection, SinkLine: 42}, // FP and TFP
		},
	}}
	out := Evaluate("tool", results, false)
	c := out.PerCWE[queries.CWECommandInjection]
	if c.Total != 1 || c.TP != 1 || c.FP != 2 || c.TFP != 1 {
		t.Fatalf("counts = %+v", c)
	}
	if c.Precision() != 0.5 {
		t.Errorf("precision = %v", c.Precision())
	}
	if c.Recall() != 1.0 {
		t.Errorf("recall = %v", c.Recall())
	}
}

func TestLenientMatching(t *testing.T) {
	pkg := mkPkg("p1", queries.CWECodeInjection, []int{5}, nil)
	results := []PackageResult{{
		Package:  pkg,
		Findings: []queries.Finding{{CWE: queries.CWECodeInjection, SinkLine: 99}},
	}}
	strict := Evaluate("t", results, false)
	if strict.PerCWE[queries.CWECodeInjection].TP != 0 {
		t.Fatal("strict must require line match")
	}
	lenient := Evaluate("t", results, true)
	if lenient.PerCWE[queries.CWECodeInjection].TP != 1 {
		t.Fatal("lenient must accept type-only match")
	}
}

func TestVenn(t *testing.T) {
	a := &Outcome{Detected: map[string]bool{"x": true, "y": true}}
	b := &Outcome{Detected: map[string]bool{"y": true, "z": true}}
	onlyA, both, onlyB := Venn(a, b)
	if onlyA != 1 || both != 1 || onlyB != 1 {
		t.Fatalf("venn = %d/%d/%d", onlyA, both, onlyB)
	}
}

func TestF1(t *testing.T) {
	c := Counts{Total: 10, TP: 8, TFP: 2}
	p, r := c.Precision(), c.Recall()
	want := 2 * p * r / (p + r)
	if c.F1() != want {
		t.Fatalf("f1 = %v, want %v", c.F1(), want)
	}
	var zero Counts
	if zero.F1() != 0 || zero.Precision() != 0 || zero.Recall() != 0 {
		t.Fatal("zero counts must not divide by zero")
	}
}

func TestCDF(t *testing.T) {
	mk := func(ms int, timedOut bool) PackageResult {
		return PackageResult{GraphTime: time.Duration(ms) * time.Millisecond, TimedOut: timedOut,
			Package: &dataset.Package{}}
	}
	results := []PackageResult{mk(1, false), mk(5, false), mk(50, false), mk(1, true)}
	cdf := CDF(results, []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, time.Second}, time.Minute)
	if cdf[0] != 0.25 || cdf[1] != 0.5 || cdf[2] != 0.75 {
		t.Fatalf("cdf = %v", cdf)
	}
}

func TestSizeBuckets(t *testing.T) {
	results := []PackageResult{
		{LoC: 10, TotalNodes: 100, TotalEdges: 200, Package: &dataset.Package{}},
		{LoC: 10, TotalNodes: 300, TotalEdges: 400, Package: &dataset.Package{}},
		{LoC: 500, TotalNodes: 1000, TotalEdges: 1, Package: &dataset.Package{}},
		{LoC: 500, TimedOut: true, Package: &dataset.Package{}},
	}
	buckets := SizeBuckets(results, []int{100})
	if len(buckets) != 2 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	if buckets[0].Packages != 2 || buckets[0].AvgNodes != 200 {
		t.Fatalf("bucket0 = %+v", buckets[0])
	}
	if buckets[1].Packages != 2 || buckets[1].Graphs != 1 {
		t.Fatalf("bucket1 = %+v", buckets[1])
	}
}

func TestTableRendering(t *testing.T) {
	s := Table([]string{"a", "bbbb"}, [][]string{{"xxx", "y"}})
	if s == "" || len(s) < 10 {
		t.Fatalf("table = %q", s)
	}
}

// TestHeadlineReproduction is the RQ1 shape check (Table 4 + Figure 6):
// on the full ground-truth corpus, Graph.js must beat the baseline on
// recall overall, roughly double it on code injection, roughly triple
// it on prototype pollution, and the baseline's misses must be
// timeout-dominated; the detected sets must overlap as in Figure 6.
func TestHeadlineReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus run")
	}
	vul, sec := dataset.GroundTruth(42)
	combined := &dataset.Corpus{Name: "combined",
		Packages: append(append([]*dataset.Package{}, vul.Packages...), sec.Packages...)}

	gjs := RunGraphJS(combined, scanner.Options{})
	odg := SweepODGen(combined, odgen.DefaultOptions()).Results

	gOut := Evaluate("graphjs", gjs, false)
	oOut := Evaluate("odgen", odg, true)

	gTotal, oTotal := gOut.TotalCounts(), oOut.TotalCounts()

	if gTotal.Recall() < 0.75 {
		t.Errorf("graphjs recall = %.2f, want >= 0.75 (paper: 0.82)", gTotal.Recall())
	}
	if oTotal.Recall() > 0.60 {
		t.Errorf("baseline recall = %.2f, want <= 0.60 (paper: 0.50)", oTotal.Recall())
	}
	if gTotal.Recall() < oTotal.Recall()*1.4 {
		t.Errorf("graphjs should find ~1.6x: %.2f vs %.2f", gTotal.Recall(), oTotal.Recall())
	}

	gPP := gOut.PerCWE[queries.CWEPrototypePollution]
	oPP := oOut.PerCWE[queries.CWEPrototypePollution]
	if oPP.TP == 0 || gPP.TP < oPP.TP*2 {
		t.Errorf("pollution TP: graphjs %d vs baseline %d, want >= 2x", gPP.TP, oPP.TP)
	}
	gCI := gOut.PerCWE[queries.CWECodeInjection]
	oCI := oOut.PerCWE[queries.CWECodeInjection]
	if oCI.TP == 0 || gCI.TP < oCI.TP*3/2 {
		t.Errorf("code injection TP: graphjs %d vs baseline %d, want ~2x", gCI.TP, oCI.TP)
	}

	// Precision: Graph.js higher (paper: 0.78 vs 0.64).
	if gTotal.Precision() < 0.70 || gTotal.Precision() > 0.88 {
		t.Errorf("graphjs precision = %.2f, want ~0.78", gTotal.Precision())
	}
	if gTotal.Precision() <= oTotal.Precision() {
		t.Errorf("precision: graphjs %.2f must exceed baseline %.2f", gTotal.Precision(), oTotal.Precision())
	}

	// Figure 6 shape: the overlap dominates the baseline's set.
	onlyG, both, onlyO := Venn(gOut, oOut)
	if both == 0 || onlyG == 0 {
		t.Fatalf("venn = %d/%d/%d", onlyG, both, onlyO)
	}
	if float64(both)/float64(both+onlyO) < 0.85 {
		t.Errorf("graphjs should subsume ~94%% of baseline detections: both=%d onlyO=%d", both, onlyO)
	}

	// Timeout dominance: the baseline times out on a large fraction
	// (paper: 28.5% of packages).
	frac := float64(oOut.TimedOut) / float64(oOut.Packages)
	if frac < 0.15 || frac > 0.45 {
		t.Errorf("baseline timeout fraction = %.2f, want ~0.28", frac)
	}
	if gOut.TimedOut != 0 {
		t.Errorf("graphjs timed out on %d packages", gOut.TimedOut)
	}

	// Graph sizes: MDGs smaller on average over the packages both
	// tools completed (Table 7; the paper compares generated graphs).
	var gN, oN float64
	var gCnt, oCnt int
	gjs = WithSourceSizes(gjs)
	for i := range gjs {
		if !odg[i].TimedOut {
			gN += float64(gjs[i].TotalNodes)
			gCnt++
		}
	}
	for i := range odg {
		if !odg[i].TimedOut {
			oN += float64(odg[i].TotalNodes)
			oCnt++
		}
	}
	gAvg, oAvg := gN/float64(gCnt), oN/float64(oCnt)
	if gAvg >= oAvg {
		t.Errorf("avg nodes: graphjs %.0f should be < baseline %.0f", gAvg, oAvg)
	}
}

func TestPhaseAverages(t *testing.T) {
	mk := func(cwe queries.CWE, g, q int, timedOut bool) PackageResult {
		return PackageResult{
			Package:   &dataset.Package{CWE: cwe},
			GraphTime: time.Duration(g) * time.Millisecond,
			QueryTime: time.Duration(q) * time.Millisecond,
			TimedOut:  timedOut,
		}
	}
	results := []PackageResult{
		mk(queries.CWECommandInjection, 10, 2, false),
		mk(queries.CWECommandInjection, 20, 4, false),
		mk(queries.CWECommandInjection, 99, 99, true), // excluded
		mk(queries.CWECodeInjection, 6, 6, false),
	}
	avg := PhaseAverages(results)
	ci := avg[queries.CWECommandInjection]
	if ci[0] != 15*time.Millisecond || ci[1] != 3*time.Millisecond {
		t.Fatalf("avg = %v", ci)
	}
	if _, ok := avg[queries.CWEPathTraversal]; ok {
		t.Fatal("empty class should be absent")
	}
}

func TestEngineAverages(t *testing.T) {
	results := []PackageResult{
		{QueryEngineTime: 10 * time.Millisecond, NativeTime: 2 * time.Millisecond, FuncsPruned: 3},
		{QueryEngineTime: 20 * time.Millisecond, NativeTime: 4 * time.Millisecond, TruncatedSearches: 1},
		{SkippedByReach: true, FuncsPruned: 5},
		{TimedOut: true, QueryEngineTime: time.Hour}, // excluded from averages
	}
	avg := EngineAverages(results)
	if avg.QueryEngine != 15*time.Millisecond || avg.Native != 3*time.Millisecond {
		t.Fatalf("averages = %+v", avg)
	}
	if avg.Packages != 2 || avg.SkippedByReach != 1 {
		t.Errorf("counts = %+v", avg)
	}
	if avg.FuncsPruned != 8 || avg.Truncated != 1 {
		t.Errorf("totals = %+v", avg)
	}
}

// TestEngineColumnsRecorded checks the harness copies the per-engine
// timing columns off the scanner report in differential mode.
func TestEngineColumnsRecorded(t *testing.T) {
	vul, _ := dataset.GroundTruth(42)
	small := &dataset.Corpus{Name: "small", Packages: vul.Packages[:4]}
	results := RunGraphJS(small, scanner.Options{Engine: scanner.EngineDifferential})
	avg := EngineAverages(results)
	if avg.Packages == 0 && avg.SkippedByReach == 0 {
		t.Fatal("no packages classified")
	}
	if avg.Packages > 0 && (avg.QueryEngine == 0 || avg.Native == 0) {
		t.Errorf("differential run must record both backend timings: %+v", avg)
	}
}

func TestFormatters(t *testing.T) {
	if FmtPct(0.8211) != "0.82" {
		t.Errorf("FmtPct = %q", FmtPct(0.8211))
	}
	if FmtDur(1500*time.Microsecond) != "1.50ms" {
		t.Errorf("FmtDur = %q", FmtDur(1500*time.Microsecond))
	}
}

func TestRunBothToolsSmallCorpus(t *testing.T) {
	vul, _ := dataset.GroundTruth(42)
	small := &dataset.Corpus{Name: "small", Packages: vul.Packages[:6]}
	g := RunGraphJS(small, scanner.Options{})
	o := SweepODGen(small, odgen.DefaultOptions()).Results
	if len(g) != 6 || len(o) != 6 {
		t.Fatalf("results: %d/%d", len(g), len(o))
	}
	for i := range g {
		if g[i].Package != small.Packages[i] || o[i].Package != small.Packages[i] {
			t.Fatal("package attribution broken")
		}
		if g[i].LoC == 0 {
			t.Fatal("LoC not recorded")
		}
	}
}

func TestOutcomeTotals(t *testing.T) {
	out := &Outcome{PerCWE: map[queries.CWE]*Counts{
		queries.CWECommandInjection: {Total: 5, TP: 4, FP: 2, TFP: 1},
		queries.CWECodeInjection:    {Total: 3, TP: 1, FP: 1, TFP: 1},
	}}
	tot := out.TotalCounts()
	if tot.Total != 8 || tot.TP != 5 || tot.FP != 3 || tot.TFP != 2 {
		t.Fatalf("totals = %+v", tot)
	}
}
