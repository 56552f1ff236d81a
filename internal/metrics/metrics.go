// Package metrics computes the evaluation measures of §5: true
// positives, false positives, *true* false positives (findings that do
// not correspond to any exploitable sink, annotated or not), precision,
// recall, F1, timing breakdowns and CDFs — and renders them as the
// paper's tables.
package metrics

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/queries"
)

// Counts aggregates the classification outcome for one CWE class.
type Counts struct {
	Total int // annotated vulnerabilities
	TP    int // annotated vulnerabilities found
	FP    int // findings not matching any annotation
	TFP   int // findings not matching any exploitable sink
}

// Precision is TP/(TP+TFP) (§5.2: computed with TFP, not FP).
func (c Counts) Precision() float64 {
	if c.TP+c.TFP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.TFP)
}

// Recall is TP/Total.
func (c Counts) Recall() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.Total)
}

// F1 is the harmonic mean of precision and recall.
func (c Counts) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func (c *Counts) add(o Counts) {
	c.Total += o.Total
	c.TP += o.TP
	c.FP += o.FP
	c.TFP += o.TFP
}

// Outcome is the per-CWE and total classification of one tool's run
// over a corpus.
type Outcome struct {
	Tool   string
	PerCWE map[queries.CWE]*Counts
	// Detected records which annotated vulnerabilities were found,
	// keyed by package name and annotation index (Venn diagram input).
	Detected map[string]bool
	// TimedOut counts packages whose analysis ran out of its budget
	// (PackageResult.OutOfBudget).
	TimedOut int
	Packages int
}

// TotalCounts sums all classes.
func (o *Outcome) TotalCounts() Counts {
	var t Counts
	for _, cwe := range queries.AllCWEs {
		if c := o.PerCWE[cwe]; c != nil {
			t.add(*c)
		}
	}
	return t
}

// PackageResult is one tool's result on one package.
type PackageResult struct {
	Package  *dataset.Package
	Findings []queries.Finding
	// Err is the scan error, if any (differential-engine mismatches
	// surface here rather than being silently dropped).
	Err error
	// Failure classifies why the scan ended early (budget.ClassNone on
	// a clean run); Incomplete marks results whose Findings are the
	// subset established before a budget tripped.
	Failure    budget.Class
	Incomplete bool
	// Phases is the tool's per-phase record, copied from either
	// tool's report: the row's only timing source. Table 6 and
	// Figure 7 read it through budget.SplitTime.
	Phases []budget.PhaseUsage
	// GraphTime and QueryTime are budget.SplitTime(Phases), kept as
	// fields because perfbench's opTime (perfbench/sweep.go) reads
	// them.
	GraphTime time.Duration
	QueryTime time.Duration
	// Size metrics for Table 7. A Graph.js row's sizes are its MDG's
	// until WithSourceSizes adds the AST and CFG; a baseline row's are
	// its whole ODG's.
	TotalNodes int
	TotalEdges int
	LoC        int
	// Export-graph gate counters: function totals and pruning, the
	// resolved API-surface size, whether the gate fell back to the
	// every-function attack model, and the deepest call-hop provenance
	// chain attached to a finding.
	FuncsTotal        int
	FuncsPruned       int
	SkippedByReach    bool
	ExportCount       int
	ReachFallback     bool
	ProvenanceDepth   int
	TruncatedSearches int
}

// OutOfBudget reports whether the scan ran out of its budget: the
// wall-clock deadline or a step/size cap. The baseline models the
// paper's analysis timeout as a step budget, so both classes are the
// "timed out" of Tables 6 and 7 and Figure 7.
func (r *PackageResult) OutOfBudget() bool {
	return r.Failure == budget.ClassTimeout || r.Failure == budget.ClassBudget
}

// vulnKey identifies one annotated vulnerability.
func vulnKey(pkg string, a dataset.Annotation) string {
	return fmt.Sprintf("%s/%s/%d", pkg, a.CWE, a.Line)
}

// matches reports whether finding f matches annotation a. Lenient
// matching accepts a type-only match (the paper grants it to ODGen:
// "a report is also considered a true positive if it only correctly
// detects the vulnerability type").
func matches(f queries.Finding, a dataset.Annotation, lenient bool) bool {
	if f.CWE != a.CWE {
		return false
	}
	return lenient || f.SinkLine == a.Line
}

// Evaluate classifies one tool's results against the ground truth.
func Evaluate(tool string, results []PackageResult, lenient bool) *Outcome {
	out := &Outcome{
		Tool:     tool,
		PerCWE:   map[queries.CWE]*Counts{},
		Detected: map[string]bool{},
	}
	for _, cwe := range queries.AllCWEs {
		out.PerCWE[cwe] = &Counts{}
	}
	for _, r := range results {
		out.Packages++
		if r.OutOfBudget() {
			out.TimedOut++
		}
		for _, a := range r.Package.Annotated {
			out.PerCWE[a.CWE].Total++
			for _, f := range r.Findings {
				if matches(f, a, lenient) {
					out.PerCWE[a.CWE].TP++
					out.Detected[vulnKey(r.Package.Name, a)] = true
					break
				}
			}
		}
		for _, f := range r.Findings {
			c := out.PerCWE[f.CWE]
			if c == nil {
				c = &Counts{}
				out.PerCWE[f.CWE] = c
			}
			if !matchesAny(f, r.Package.Annotated, lenient) {
				c.FP++
				if !matchesAny(f, r.Package.Exploitable, lenient) {
					c.TFP++
				}
			}
		}
	}
	return out
}

func matchesAny(f queries.Finding, as []dataset.Annotation, lenient bool) bool {
	for _, a := range as {
		if matches(f, a, lenient) {
			return true
		}
	}
	return false
}

// Venn computes the Figure 6 overlap between two outcomes: vulns found
// only by a, by both, and only by b.
func Venn(a, b *Outcome) (onlyA, both, onlyB int) {
	for k := range a.Detected {
		if b.Detected[k] {
			both++
		} else {
			onlyA++
		}
	}
	for k := range b.Detected {
		if !a.Detected[k] {
			onlyB++
		}
	}
	return
}

// ---------------------------------------------------------------------------
// Timing
// ---------------------------------------------------------------------------

// CDF returns, for each threshold, the fraction of packages whose total
// analysis time is below it (Figure 7).
func CDF(results []PackageResult, thresholds []time.Duration, timeoutCap time.Duration) []float64 {
	out := make([]float64, len(thresholds))
	if len(results) == 0 {
		return out
	}
	for i, th := range thresholds {
		n := 0
		for _, r := range results {
			graph, traversal := budget.SplitTime(r.Phases)
			t := graph + traversal
			if r.OutOfBudget() {
				t = timeoutCap
			}
			if t <= th {
				n++
			}
		}
		out[i] = float64(n) / float64(len(results))
	}
	return out
}

// PhaseAverages computes per-CWE average graph-construction and
// traversal times over packages that did not run out of their budget
// (Table 6). A package contributes to the row of its primary class.
func PhaseAverages(results []PackageResult) map[queries.CWE][2]time.Duration {
	sums := map[queries.CWE][2]time.Duration{}
	counts := map[queries.CWE]int{}
	for _, r := range results {
		if r.OutOfBudget() || r.Package.CWE == "" {
			continue
		}
		graph, traversal := budget.SplitTime(r.Phases)
		s := sums[r.Package.CWE]
		s[0] += graph
		s[1] += traversal
		sums[r.Package.CWE] = s
		counts[r.Package.CWE]++
	}
	out := map[queries.CWE][2]time.Duration{}
	for cwe, s := range sums {
		n := counts[cwe]
		if n > 0 {
			out[cwe] = [2]time.Duration{s[0] / time.Duration(n), s[1] / time.Duration(n)}
		}
	}
	return out
}

// EngineAverage totals the reach gate's counters over a run.
type EngineAverage struct {
	SkippedByReach int // packages the reach gate skipped entirely
	FuncsTotal     int // total functions defined across the run
	FuncsPruned    int // total functions pruned across the run
	Exports        int // total resolved API-surface entries
	ReachFallbacks int // packages scanned under the fallback attack model
	MaxProvDepth   int // deepest finding provenance chain seen
	Truncated      int // total hop-bound-truncated searches
}

// PrunedRate is the fraction of defined functions the gate pruned.
func (e EngineAverage) PrunedRate() float64 {
	if e.FuncsTotal == 0 {
		return 0
	}
	return float64(e.FuncsPruned) / float64(e.FuncsTotal)
}

// EngineAverages sums the reach-gate counters recorded by RunGraphJS.
func EngineAverages(results []PackageResult) EngineAverage {
	var out EngineAverage
	for _, r := range results {
		out.FuncsTotal += r.FuncsTotal
		out.FuncsPruned += r.FuncsPruned
		out.Exports += r.ExportCount
		out.Truncated += r.TruncatedSearches
		if r.ReachFallback {
			out.ReachFallbacks++
		}
		if r.ProvenanceDepth > out.MaxProvDepth {
			out.MaxProvDepth = r.ProvenanceDepth
		}
		if r.SkippedByReach {
			out.SkippedByReach++
		}
	}
	return out
}

// SizeBucket is one LoC bucket row of Table 7.
type SizeBucket struct {
	Label    string
	MaxLoC   int
	Packages int
	Graphs   int // graphs produced before timing out
	AvgNodes float64
	AvgEdges float64
}

// SizeBuckets groups packages by LoC and averages graph sizes (Table 7).
func SizeBuckets(results []PackageResult, bounds []int) []SizeBucket {
	buckets := make([]SizeBucket, len(bounds)+1)
	for i, b := range bounds {
		buckets[i].MaxLoC = b
		if i == 0 {
			buckets[i].Label = fmt.Sprintf("<=%d", b)
		} else {
			buckets[i].Label = fmt.Sprintf("%d-%d", bounds[i-1]+1, b)
		}
	}
	buckets[len(bounds)].MaxLoC = 1 << 30
	buckets[len(bounds)].Label = fmt.Sprintf(">%d", bounds[len(bounds)-1])

	sumN := make([]float64, len(buckets))
	sumE := make([]float64, len(buckets))
	for _, r := range results {
		bi := len(buckets) - 1
		for i := range bounds {
			if r.LoC <= bounds[i] {
				bi = i
				break
			}
		}
		buckets[bi].Packages++
		if !r.OutOfBudget() {
			buckets[bi].Graphs++
			sumN[bi] += float64(r.TotalNodes)
			sumE[bi] += float64(r.TotalEdges)
		}
	}
	for i := range buckets {
		if buckets[i].Graphs > 0 {
			buckets[i].AvgNodes = sumN[i] / float64(buckets[i].Graphs)
			buckets[i].AvgEdges = sumE[i] / float64(buckets[i].Graphs)
		}
	}
	return buckets
}

// ---------------------------------------------------------------------------
// Table rendering
// ---------------------------------------------------------------------------

// Table renders rows of columns with padded alignment.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteString("\n")
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}

// FmtPct renders a ratio as 0.82-style.
func FmtPct(f float64) string { return fmt.Sprintf("%.2f", f) }

// FmtDur renders a duration in milliseconds with 2 decimals.
func FmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000.0)
}
