// Package scanner is Graph.js proper: the end-to-end pipeline that
// takes JavaScript sources (npm-package style), parses and normalizes
// them, builds the MDG, loads it into the embedded graph database, and
// runs the vulnerability queries (paper §4, "Implementation").
package scanner

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/queries"
	"repro/internal/reach"
	"repro/internal/taint"
)

// Engine selects the detection backend.
type Engine string

// Detection backends. The query engine loads the MDG into the graph
// database and runs the Table 2 queries; the native engine computes
// taint facts with one dataflow fixpoint directly on the MDG;
// differential mode runs both and fails loudly when their finding
// sets disagree; fallback mode runs the native engine and retries on
// the query engine when the native backend fails (and vice versa is
// unnecessary: the query engine retrying on native would re-run the
// same MDG, so one direction suffices).
const (
	EngineQuery        Engine = "query"
	EngineNative       Engine = "native"
	EngineDifferential Engine = "differential"
	EngineFallback     Engine = "fallback"
)

// ParseEngine validates an engine name ("" means the default, query).
func ParseEngine(s string) (Engine, error) {
	switch Engine(s) {
	case "", EngineQuery:
		return EngineQuery, nil
	case EngineNative:
		return EngineNative, nil
	case EngineDifferential:
		return EngineDifferential, nil
	case EngineFallback:
		return EngineFallback, nil
	}
	return "", fmt.Errorf("scanner: unknown engine %q (want query, native, differential, or fallback)", s)
}

// Options tunes a scan.
type Options struct {
	// Config is the sink configuration (DefaultConfig when nil).
	Config *queries.Config
	// Engine selects the detection backend ("" = EngineQuery).
	Engine Engine
	// Analysis options forwarded to the MDG builder.
	Analysis analysis.Options
	// Timeout aborts the scan (0 = no timeout), enforced by a shared
	// budget checked cooperatively in every pipeline phase.
	Timeout time.Duration
	// Context, when set, cancels the scan cooperatively: the budget
	// polls ctx.Done() at the same checkpoints as the deadline and the
	// scan unwinds with budget.ClassCanceled. The server threads each
	// request's context here so a disconnected client frees its run
	// slot mid-scan. Canceled results are never cached.
	Context context.Context
	// MaxSteps, MaxNodes and MaxEdges cap the scan's total abstract
	// steps and MDG size (0 = unlimited). Unlike Timeout, hitting a
	// cap still runs detection over the partial graph, so the report
	// carries the findings established so far (marked Incomplete).
	MaxSteps int
	MaxNodes int
	MaxEdges int
	// Incremental, when set, reuses the per-file front end, MDG
	// fragments and detection results across scans of the same
	// package: only the require-components touched by changed files
	// are re-analyzed (see IncrementalState). The state must be
	// dedicated to one logical package; use a StatePool for corpus
	// sweeps. Without it a scan runs against a throwaway state.
	Incremental *IncrementalState
	// NoReachGate disables the call-graph reachability pre-pass that
	// skips graph construction for packages whose reachable code
	// cannot produce a finding.
	NoReachGate bool
	// ReachGateOnly stops the scan after the reachability pre-pass:
	// the cheapest-possible triage, used as the floor rung of the sweep
	// supervisor's degradation ladder. A package the gate can prove
	// finding-free completes cleanly; anything else returns an
	// Incomplete report with no findings. Nothing past the front end
	// is cached on this path.
	ReachGateOnly bool
	// FaultLabel overrides the budget label used for deterministic
	// fault injection and diagnostics (default: the scan name). Sweep
	// supervisors label attempts "name#attempt" so injection plans can
	// distinguish first attempts from retries.
	FaultLabel string
	// Workers bounds the worker pool for multi-package sweeps
	// (metrics.SweepGraphJS, graphjs -workers). 0 means
	// runtime.GOMAXPROCS(0); 1 forces a sequential sweep. A single
	// ScanSource/ScanFile/ScanPackage call ignores it.
	Workers int
	// Tree treats the input as a dependency tree: node_modules
	// packages are resolved (internal/deptree), analyzed as separate
	// MDG fragments, stitched, and cross-package require edges are
	// linked so taint flows into real dependency code. package.json
	// files in the input feed the resolver. See ScanTreeDir.
	Tree bool
}

func (o Options) limits() budget.Limits {
	return budget.Limits{
		Timeout:  o.Timeout,
		MaxSteps: o.MaxSteps,
		MaxNodes: o.MaxNodes,
		MaxEdges: o.MaxEdges,
	}
}

// Report is the outcome of scanning one file or package.
type Report struct {
	Name     string
	Findings []queries.Finding
	TimedOut bool
	Err      error

	// Failure classifies why the scan ended early (budget.ClassNone
	// on a clean run): parse error, wall-clock timeout, a step/size
	// cap, a recovered engine panic, or a query-evaluation error.
	// TimedOut is the legacy boolean view of the timeout class.
	Failure budget.Class
	// Incomplete marks reports whose Findings are a sound subset
	// computed before a budget tripped.
	Incomplete bool
	// FellBack records that the fallback engine's primary backend
	// failed and Findings came from the secondary; FallbackErr keeps
	// the primary backend's error for diagnostics.
	FellBack    bool
	FallbackErr error

	// Engine records the backend that produced Findings.
	Engine Engine

	// Reachability pre-pass results: how many functions the package
	// defines, how many are unreachable from its exported API, and
	// whether detection was skipped outright because reachable code
	// cannot produce a finding.
	FuncsTotal     int
	FuncsPruned    int
	SkippedByReach bool

	// Export-graph gate precision counters: resolved API-surface
	// entries, whether the gate ran the every-function fallback attack
	// model, and the deepest call-hop chain attached to any finding's
	// provenance.
	ExportCount     int
	ReachFallback   bool
	ProvenanceDepth int

	// TruncatedSearches counts taint searches cut short by the
	// MaxHops bound (silent under-approximation made observable).
	TruncatedSearches int

	// Phases records per-phase budget consumption (cooperative steps,
	// graph nodes/edges charged, wall time) in pipeline order, and
	// ExhaustedPhase names the phase the first budget failure tripped
	// in ("" when the budget held) — so callers see *which* phase
	// starved, not just that one did. The rows are the report's only
	// timing record (Table 6): they cover the pipeline contiguously
	// from the front end through detection, cold or warm, so
	// TotalTime and DetectTime are sums over them. A re-entered phase
	// (detection per fragment) accumulates into one row.
	Phases         []budget.PhaseUsage
	ExhaustedPhase string

	// Size metrics (Table 7). ASTNodes/CFGNodes are included to match
	// the paper's accounting ("we included the AST and CFG nodes used
	// to generate the final MDG"). On an incremental scan MDGNodes and
	// MDGEdges are summed over the package's fragments, which can
	// slightly exceed a cold combined graph when several components
	// share lazily created global nodes.
	LoC       int
	ASTNodes  int
	CFGNodes  int
	CFGEdges  int
	MDGNodes  int
	MDGEdges  int
	CoreStmts int

	// IncrStats snapshots the incremental state's cumulative
	// hit/miss/rebuild counters after an incremental scan (nil on cold
	// scans).
	IncrStats *IncrementalStats

	// Tree-mode shape: how many packages the dependency tree resolved
	// to and the deepest node_modules nesting level (0 = root only).
	TreePackages int
	TreeDepth    int
}

// TotalNodes returns the node count as Table 7 reports it.
func (r *Report) TotalNodes() int { return r.ASTNodes + r.CFGNodes + r.MDGNodes }

// TotalEdges returns the edge count as Table 7 reports it.
func (r *Report) TotalEdges() int { return r.CFGEdges + r.MDGEdges }

// Detection phase names: each backend runs under its own phase.
const (
	PhaseDetectNative = "detect-native"
	PhaseDetectQuery  = "detect-query"
)

// PhaseTime sums the wall time of the named phase rows.
func (r *Report) PhaseTime(names ...string) time.Duration {
	var d time.Duration
	for _, u := range r.Phases {
		for _, n := range names {
			if u.Phase == n {
				d += u.Dur
			}
		}
	}
	return d
}

// DetectTime returns the time spent in detection backends (the query
// engine's time includes the database load).
func (r *Report) DetectTime() time.Duration {
	return r.PhaseTime(PhaseDetectNative, PhaseDetectQuery)
}

// TotalTime returns the end-to-end analysis time: every phase row,
// front end through detection. TotalTime - DetectTime is the graph
// construction time of Table 6.
func (r *Report) TotalTime() time.Duration {
	var d time.Duration
	for _, u := range r.Phases {
		d += u.Dur
	}
	return d
}

// testHookNative, when set, runs at the start of native detection.
// Tests use it to inject engine panics or burn the scan's budget; it
// must only be set by sequential tests.
var testHookNative func(name string, b *budget.Budget)

// newBudget builds the scan budget and labels it for fault injection
// and phase-stamped diagnostics.
func newBudget(opts Options, name string) *budget.Budget {
	b := budget.New(opts.limits()).WithContext(opts.Context)
	if opts.FaultLabel != "" {
		b.SetLabel(opts.FaultLabel)
	} else {
		b.SetLabel(name)
	}
	return b
}

// recordPhases closes the budget's phase log onto the report.
func recordPhases(rep *Report, b *budget.Budget) {
	rep.Phases = b.PhaseUsages()
	rep.ExhaustedPhase = b.ExhaustedPhase()
}

// setFailure records a terminal phase error, classifying it with def
// when the error carries no budget class of its own. Budget classes
// (timeout, cap) are classified outcomes rather than errors, so they
// leave rep.Err nil.
func setFailure(rep *Report, err error, def budget.Class) {
	class := budget.ClassOf(err)
	if class == budget.ClassNone {
		class = def
	}
	rep.Failure = class
	switch class {
	case budget.ClassTimeout:
		rep.TimedOut = true
	case budget.ClassBudget:
		rep.Incomplete = true
	case budget.ClassCanceled:
		// The client is gone; whatever was computed is a best-effort
		// subset, and like timeout/cap this is a classified outcome,
		// not an error.
		rep.Incomplete = true
	default:
		rep.Err = err
	}
}

// gateSkips runs the export-graph reachability gate and reports
// whether the whole detection pipeline can be skipped for this
// package. Under NoReachGate the gate still runs — its result feeds
// finding provenance and the precision counters, and keeping it in
// both modes makes gated and ungated reports byte-identical wherever
// they overlap — but it never skips.
func gateSkips(rep *Report, progs []*core.Program, cfgq *queries.Config, opts Options, b *budget.Budget) (*reach.Result, bool) {
	rr := reach.AnalyzeBudget(progs, cfgq, b)
	rep.FuncsTotal = rr.TotalFuncs
	rep.FuncsPruned = rr.PrunedFuncs
	rep.ExportCount = rr.ExportCount
	rep.ReachFallback = rr.Fallback
	if !opts.NoReachGate && rr.CanSkipDetection() {
		rep.SkippedByReach = true
		return rr, true
	}
	return rr, false
}

// gateCanceled reports whether the request was canceled while the
// reach gate ran, classifying the report if so. The gate absorbs
// budget trips by degrading to the keep-everything fallback — its skip
// answer stays sound — so the skip early-return is the one place a
// latched cancellation would never be re-observed by a later phase
// guard, misreporting a canceled scan as a clean completion that
// journals would record and callers would trust.
func gateCanceled(rep *Report, b *budget.Budget) bool {
	b.CheckDeadline()
	if budget.ClassOf(b.Err()) != budget.ClassCanceled {
		return false
	}
	rep.Failure = budget.ClassCanceled
	rep.Incomplete = true
	rep.SkippedByReach = false
	return true
}

// annotateProvenance attaches call-path provenance to every finding:
// how its sink line is reachable from the exported API. Findings the
// gate cannot place (or any finding when the gate itself failed) get
// the explicit "(unresolved)" marker rather than silence.
func annotateProvenance(rep *Report, rr *reach.Result) {
	for i := range rep.Findings {
		f := &rep.Findings[i]
		if rr == nil || rr.Exports == nil {
			f.Provenance = queries.Provenance{Entry: "(unresolved)", Fallback: true}
			continue
		}
		entry, hops, ok := rr.Exports.PathTo(f.SinkFile, f.SinkLine)
		if !ok {
			f.Provenance = queries.Provenance{Entry: "(unresolved)", Fallback: rr.Fallback}
			continue
		}
		f.Provenance = queries.Provenance{Entry: entry, Hops: hops, Fallback: rr.Fallback}
		if len(hops) > rep.ProvenanceDepth {
			rep.ProvenanceDepth = len(hops)
		}
	}
}

// detectNative runs the native taint engine inside a panic guard and
// returns its findings. Truncation stats are recorded on the report
// even when the engine fails.
func detectNative(rep *Report, res *analysis.Result, cfgq *queries.Config, b *budget.Budget) ([]queries.Finding, error) {
	var fs []queries.Finding
	b.BeginPhase(PhaseDetectNative)
	err := budget.Guard(PhaseDetectNative, func() error {
		if testHookNative != nil {
			testHookNative(rep.Name, b)
		}
		eng := taint.NewEngineBudget(res, cfgq, b)
		fs = eng.Detect()
		rep.TruncatedSearches += eng.Truncated
		if eng.Incomplete {
			rep.Incomplete = true
		}
		return nil
	})
	return fs, err
}

// detectQuery loads the MDG into the graph database and runs the
// Table 2 queries inside a panic guard. The load is part of the
// detect-query phase.
func detectQuery(rep *Report, res *analysis.Result, cfgq *queries.Config, b *budget.Budget) ([]queries.Finding, error) {
	var fs []queries.Finding
	b.BeginPhase(PhaseDetectQuery)
	err := budget.Guard(PhaseDetectQuery, func() error {
		lg := queries.LoadBudget(res, b)
		out, derr := queries.Detect(lg, cfgq)
		if derr != nil {
			return derr
		}
		fs = out
		rep.TruncatedSearches += lg.Truncated
		if b.Exceeded() {
			rep.Incomplete = true
		}
		return nil
	})
	return fs, err
}

// detectInto runs the selected backend and records findings and
// failure state on rep. The pipeline calls it once per detection unit
// with a scratch report (see mergeScratch).
func detectInto(rep *Report, res *analysis.Result, cfgq *queries.Config, engine Engine, b *budget.Budget) {
	switch engine {
	case EngineNative:
		fs, err := detectNative(rep, res, cfgq, b)
		if err != nil {
			setFailure(rep, err, budget.ClassQuery)
			return
		}
		rep.Findings = fs

	case EngineDifferential:
		qf, qErr := detectQuery(rep, res, cfgq, b)
		if qErr != nil {
			setFailure(rep, qErr, budget.ClassQuery)
			return
		}
		nf, nErr := detectNative(rep, res, cfgq, b)
		if nErr != nil {
			setFailure(rep, nErr, budget.ClassQuery)
			return
		}
		rep.Findings = qf
		if b.Exceeded() {
			// Both backends were cut short; their partial finding sets
			// are not comparable.
			return
		}
		if err := DiffFindings(qf, nf); err != nil {
			rep.Err = fmt.Errorf("scanner: differential mismatch on %s: %w", rep.Name, err)
			rep.Failure = budget.ClassQuery
		}

	case EngineFallback:
		fs, err := detectNative(rep, res, cfgq, b)
		if err == nil {
			rep.Findings = fs
			return
		}
		switch budget.ClassOf(err) {
		case budget.ClassTimeout, budget.ClassCanceled:
			// The wall clock is shared by every retry; it ran out (or the
			// client is gone), so the fallback would be dead on arrival.
			setFailure(rep, err, budget.ClassQuery)
			return
		case budget.ClassBudget:
			// A step/node/edge cap tripped. The caps measure *engine*
			// effort, so an exhausted native budget says nothing about
			// what the query backend needs — retry it on a fresh, smaller
			// allowance (under the same wall clock) instead of inheriting
			// a budget that would trip on its first step.
			b = b.Derive(halfCaps(b.Limits()))
			rep.Incomplete = true
		}
		rep.FellBack = true
		rep.FallbackErr = err
		qf, qErr := detectQuery(rep, res, cfgq, b)
		if qErr != nil {
			setFailure(rep, qErr, budget.ClassQuery)
			return
		}
		rep.Findings = qf

	default: // EngineQuery
		fs, err := detectQuery(rep, res, cfgq, b)
		if err != nil {
			setFailure(rep, err, budget.ClassQuery)
			return
		}
		rep.Findings = fs
	}
}

// halfCaps halves each finite step/node/edge cap (never below 1) and
// keeps the wall clock, sizing a retry's fresh allowance.
func halfCaps(l budget.Limits) budget.Limits {
	half := func(n int) int {
		if n <= 0 {
			return n
		}
		if n/2 < 1 {
			return 1
		}
		return n / 2
	}
	return budget.Limits{Timeout: l.Timeout, MaxSteps: half(l.MaxSteps),
		MaxNodes: half(l.MaxNodes), MaxEdges: half(l.MaxEdges)}
}

// DiffFindings compares the finding sets of the two backends on the
// identity (CWE, sink name, sink file, sink line, source), ignoring
// witness paths (the backends report different but equally valid
// witnesses). A non-nil error describes every discrepancy.
func DiffFindings(query, native []queries.Finding) error {
	key := func(f queries.Finding) string {
		return fmt.Sprintf("%s %s %s:%d (source %s)", f.CWE, f.SinkName, f.SinkFile, f.SinkLine, f.Source)
	}
	count := func(fs []queries.Finding) map[string]int {
		m := map[string]int{}
		for _, f := range fs {
			m[key(f)]++
		}
		return m
	}
	qm, nm := count(query), count(native)
	var diffs []string
	for k, c := range qm {
		if nm[k] != c {
			diffs = append(diffs, fmt.Sprintf("query=%d native=%d: %s", c, nm[k], k))
		}
	}
	for k, c := range nm {
		if _, ok := qm[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("query=0 native=%d: %s", c, k))
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	return fmt.Errorf("finding sets differ (%d discrepancies):\n  %s",
		len(diffs), strings.Join(diffs, "\n  "))
}

// ScanSource scans one JavaScript source text: a one-file package
// whose file is named name (Options.Tree does not apply).
//
// ScanSource, like every entry point, is safe for concurrent use by
// multiple goroutines, which is what makes parallel corpus sweeps
// (metrics.SweepGraphJS) sound: every pipeline stage — parser,
// normalizer, CFG builder, abstract interpreter, reach gate, and all
// detection backends — allocates its state per call, the shared
// opts.Config is read-only after construction, and opts.Incremental
// (when set) serializes the scans that share it.
func ScanSource(src, name string, opts Options) *Report {
	opts.Tree = false
	return scanFiles([]SourceFile{{Rel: name, Src: src}}, name, opts, nil)
}

// ScanFile scans one JavaScript file.
func ScanFile(path string, opts Options) *Report {
	data, err := os.ReadFile(path)
	if err != nil {
		return &Report{Name: path, Err: fmt.Errorf("scanner: %w", err)}
	}
	return ScanSource(string(data), path, opts)
}

// SourceFile is one file of an in-memory package: Rel is the
// package-relative path used for require resolution, Src the source
// text.
type SourceFile struct {
	Rel string
	Src string
}

// ScanPackage scans every .js file under dir (skipping node_modules and
// test directories, like the artifact does) as one multi-module
// package: a single combined MDG is built so that require('./sibling')
// flows connect across files, then the vulnerability queries run once
// over the whole graph.
func ScanPackage(dir string, opts Options) *Report {
	var paths []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			base := filepath.Base(path)
			if base == "node_modules" || base == "test" || base == "tests" || base == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".js") && !strings.HasSuffix(path, ".min.js") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return &Report{Name: dir, Err: fmt.Errorf("scanner: %w", err)}
	}
	sort.Strings(paths)

	var files []SourceFile
	var readErr error
	for _, f := range paths {
		data, rdErr := os.ReadFile(f)
		if rdErr != nil {
			if readErr == nil {
				readErr = fmt.Errorf("scanner: %w", rdErr)
			}
			continue
		}
		rel, relErr := filepath.Rel(dir, f)
		if relErr != nil {
			rel = f
		}
		files = append(files, SourceFile{Rel: rel, Src: string(data)})
	}
	return scanFiles(files, dir, opts, readErr)
}

// ScanFiles scans an in-memory file set as one multi-module package,
// exactly like ScanPackage does for a directory: files are assumed to
// be in sorted Rel order (require resolution and site allocation
// depend on file order). The mutation-equivalence harness uses it to
// scan synthetic packages without touching the filesystem.
func ScanFiles(files []SourceFile, name string, opts Options) *Report {
	return scanFiles(files, name, opts, nil)
}

// scanFiles hands a package to the scan pipeline: the caller's
// incremental state, or a throwaway one for a cold scan. preErr is a
// pre-existing non-fatal error (e.g. an unreadable file) recorded on
// the report.
func scanFiles(files []SourceFile, name string, opts Options, preErr error) *Report {
	st := opts.Incremental
	if st == nil {
		st = &IncrementalState{}
	}
	return st.scan(files, name, opts, preErr)
}
