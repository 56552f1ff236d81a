package metrics

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/odgen"
	"repro/internal/queries"
	"repro/internal/scanner"
	"repro/internal/store"
	"repro/internal/sweepjournal"
)

// Sweep supervisor: resumable corpus sweeps with a retry/degradation
// ladder.
//
// A plain sweep (SweepGraphJS) runs every package once at full
// fidelity and reports whatever happened. The supervisor wraps the
// same worker pool with two robustness layers:
//
//   - A crash-safe journal: each worker puts the package's terminal
//     outcome into the journal's store directory as it finishes, so a
//     sweep killed mid-corpus loses at most the packages in flight, and
//     a resume skips every package whose journal entry still matches
//     its content hash and options fingerprint.
//
//   - A degradation ladder: failures are retried according to their
//     class. Transient classes (engine-panic, query-error) get one
//     retry on the same engine after a deterministically jittered
//     backoff; budget classes (timeout, budget-exceeded) descend to
//     progressively cheaper configurations — reduced caps, and finally
//     a reach-gate-only triage floor — each attempt on a fresh budget.
//     Every package therefore terminates in exactly one of three
//     states: complete, degraded (with the rung that produced the
//     result), or quarantined (later resumed sweeps skip it unless
//     told to requarantine).
//
// Journals carry no timestamps and attempt labels are deterministic
// ("name#attempt"), so with a fixed fault plan a supervised sweep is a
// pure function of (corpus, options) — the property the chaos harness
// leans on to assert that kill-and-resume reproduces an uninterrupted
// sweep exactly.

// SuperviseOptions configures a supervised sweep.
type SuperviseOptions struct {
	// Journal, when non-empty, is the journal's store directory
	// (created if absent): one terminal Entry per package is put as
	// workers finish, and the store is compacted after a sweep that
	// put records and hit no journal error.
	Journal string
	// Resume reads Journal first and skips packages whose entry
	// matches the current content hash and options fingerprint.
	Resume bool
	// Requarantine re-scans quarantined packages on resume instead of
	// skipping them.
	Requarantine bool
	// Backoff is the base delay before a transient retry (0 = retry
	// immediately). The actual delay is jittered deterministically from
	// the package name so parallel retries do not stampede in lockstep.
	Backoff time.Duration
	// NoFsync disables the journal's per-put group-commit fsync
	// (benchmarks; a kill may then lose acknowledged entries, which
	// resume re-scans).
	NoFsync bool
}

// ErrJournalOpen marks a supervised sweep that could not open the
// journal directory it was given: another writer holds it, or the path
// is not a directory (a journal file from an older format, say).
var ErrJournalOpen = errors.New("cannot open sweep journal")

// SuperviseStats summarizes how a supervised sweep terminated.
type SuperviseStats struct {
	Resumed     int  // packages satisfied from the journal
	Completed   int  // full-fidelity terminal results
	Degraded    int  // results produced by a lower ladder rung
	Quarantined int  // packages that failed every rung
	Canceled    int  // packages abandoned because the request context died
	Torn        bool // the journal's log ended in a torn record
	// Entries holds each package's terminal journal entry in corpus
	// order (resumed packages keep their prior entry), so callers can
	// report per-package states without re-loading the journal.
	Entries []sweepjournal.Entry
}

func (s *SuperviseStats) tally(state string) {
	switch state {
	case sweepjournal.StateComplete:
		s.Completed++
	case sweepjournal.StateDegraded:
		s.Degraded++
	case sweepjournal.StateQuarantined:
		s.Quarantined++
	case sweepjournal.StateCanceled:
		s.Canceled++
	}
}

// rung is one step of the degradation ladder.
type rung struct {
	Name string
	// Factor scales the step/node/edge caps (1 = the caller's own).
	Factor float64
	// Floor marks the reach-gate-only triage rung.
	Floor bool
}

// defaultLadder returns the Graph.js ladder: full fidelity, two
// cap-halving rungs, then the reach-gate triage floor.
func defaultLadder() []rung {
	return []rung{
		{Name: "full", Factor: 1},
		{Name: "half", Factor: 0.5},
		{Name: "quarter", Factor: 0.25},
		{Name: "reach-gate", Floor: true},
	}
}

func ladderNames(ladder []rung) []string {
	names := make([]string, len(ladder))
	for i, r := range ladder {
		names[i] = r.Name
	}
	return names
}

// Degraded-rung default caps, used when the caller's base options are
// unlimited: an unlimited budget cannot be halved, so the half rung
// lands on these and the quarter rung on half of them.
const (
	degradedSteps = 400000
	degradedNodes = 100000
	degradedEdges = 200000
)

// scaleCap sizes one cap for a degraded rung.
func scaleCap(base, unlimitedDefault int, factor float64) int {
	src := base
	if src <= 0 {
		src = 2 * unlimitedDefault
	}
	n := int(float64(src) * factor)
	if n < 1 {
		n = 1
	}
	return n
}

// jitterDelay derives the deterministic backoff before a transient
// retry: base plus a [0,base) fraction keyed on the package name, so
// two supervised runs back off identically but different packages
// spread out.
func jitterDelay(base time.Duration, pkg string, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", pkg, attempt)
	frac := float64(h.Sum64()>>11) / float64(1<<53)
	return base + time.Duration(frac*float64(base))
}

// journalFindings flattens detection findings for persistence (witness
// paths are run-local graph-node IDs and are dropped).
func journalFindings(fs []queries.Finding) []sweepjournal.Finding {
	out := make([]sweepjournal.Finding, len(fs))
	for i, f := range fs {
		out[i] = sweepjournal.Finding{
			CWE:      string(f.CWE),
			SinkName: f.SinkName,
			SinkLine: f.SinkLine,
			SinkFile: f.SinkFile,
			Source:   f.Source,
		}
	}
	return out
}

// findingsFromJournal restores persisted findings (without witness
// paths) for a resumed package's result row.
func findingsFromJournal(fs []sweepjournal.Finding) []queries.Finding {
	if len(fs) == 0 {
		return nil
	}
	out := make([]queries.Finding, len(fs))
	for i, f := range fs {
		out[i] = queries.Finding{
			CWE:      queries.CWE(f.CWE),
			SinkName: f.SinkName,
			SinkLine: f.SinkLine,
			SinkFile: f.SinkFile,
			Source:   f.Source,
		}
	}
	return out
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// resultFromEntry synthesizes the sweep row for a package satisfied
// from the journal. Witness paths and timings are not persisted, so
// the row carries findings, classification and flags only.
func resultFromEntry(e sweepjournal.Entry) PackageResult {
	return PackageResult{
		Findings:   findingsFromJournal(e.Findings),
		Failure:    budget.Class(e.Class),
		Incomplete: e.Incomplete,
	}
}

// runLadder drives one package through the degradation ladder. run
// executes a single attempt and returns the row plus the engine label
// for the attempt history.
func runLadder(pkg, hash, fp string, ladder []rung, backoff time.Duration,
	run func(r rung, attempt int) (PackageResult, string)) (PackageResult, sweepjournal.Entry) {

	entry := sweepjournal.Entry{Package: pkg, Hash: hash, Opts: fp}
	attempt, transientRetries, ri := 0, 0, 0
	for {
		r := ladder[ri]
		res, engine := runAttempt(run, r, attempt)
		attempt++
		entry.Attempts = append(entry.Attempts, sweepjournal.Attempt{
			Rung:     r.Name,
			Engine:   engine,
			Class:    string(res.Failure),
			Err:      errString(res.Err),
			Findings: len(res.Findings),
		})

		terminal := func(state string) (PackageResult, sweepjournal.Entry) {
			entry.State = state
			entry.Rung = r.Name
			entry.Class = string(res.Failure)
			entry.Incomplete = res.Incomplete
			entry.Findings = journalFindings(res.Findings)
			return res, entry
		}

		switch res.Failure {
		case budget.ClassNone, budget.ClassParse, budget.ClassResolve:
			// A clean result — or a deterministic content error no rung
			// can fix (a parse error, or a dependency tree whose
			// node_modules layout is missing or broken). Full fidelity
			// at the top rung is complete;
			// anything lower is a degraded (but terminal) answer.
			if ri == 0 {
				return terminal(sweepjournal.StateComplete)
			}
			return terminal(sweepjournal.StateDegraded)

		case budget.ClassCanceled:
			// The request driving this sweep is gone. No rung can help —
			// every remaining attempt would cancel at its first budget
			// checkpoint — so journal the package as retryable: resume
			// re-scans canceled entries unconditionally, and the result is
			// never mistaken for a verdict about the package.
			return terminal(sweepjournal.StateCanceled)

		case budget.ClassPanic, budget.ClassQuery:
			// Transient: one retry on the same engine, after a
			// deterministic jittered backoff. A second transient
			// death is a real bug, not bad luck — quarantine.
			if transientRetries == 0 {
				transientRetries++
				time.Sleep(jitterDelay(backoff, pkg, attempt))
				continue
			}
			return terminal(sweepjournal.StateQuarantined)

		default: // ClassTimeout, ClassBudget
			// The package outgrew this rung's allowance; descend. Each
			// rung gets a fresh budget (fresh wall clock, smaller caps).
			if ri+1 < len(ladder) {
				ri++
				continue
			}
			return terminal(sweepjournal.StateQuarantined)
		}
	}
}

// runAttempt executes one ladder attempt with its own panic fence: a
// crash that escapes the scanner's per-phase guards (or the scan
// harness itself) still comes back as a classified transient row, so
// the ladder keeps control and the package still reaches a terminal
// journal state.
func runAttempt(run func(r rung, attempt int) (PackageResult, string),
	r rung, attempt int) (pr PackageResult, engine string) {
	defer func() {
		if rec := recover(); rec != nil {
			pr = PackageResult{
				Err:     &budget.PanicError{Phase: "supervisor", Value: rec, Stack: debug.Stack()},
				Failure: budget.ClassPanic,
			}
		}
	}()
	return run(r, attempt)
}

// graphjsFingerprint is the resume-relevant slice of scanner.Options:
// anything that changes what a scan computes must be in here, so a
// journal written under different options never satisfies a resume.
// Engine is the resolved engine, so "" and its default name agree.
type graphjsFingerprint struct {
	Engine      string
	Timeout     time.Duration
	MaxSteps    int
	MaxNodes    int
	MaxEdges    int
	NoReachGate bool
	Ladder      []string
}

// graphjsFingerprintOf fingerprints opts for a sweep over ladder.
func graphjsFingerprintOf(opts scanner.Options, ladder []rung) string {
	engine := string(opts.Engine)
	if eng, err := scanner.ParseEngine(engine); err == nil {
		engine = string(eng)
	}
	return sweepjournal.Fingerprint(graphjsFingerprint{
		Engine:      engine,
		Timeout:     opts.Timeout,
		MaxSteps:    opts.MaxSteps,
		MaxNodes:    opts.MaxNodes,
		MaxEdges:    opts.MaxEdges,
		NoReachGate: opts.NoReachGate,
		Ladder:      ladderNames(ladder),
	})
}

// graphjsAttempt runs one ladder attempt of a Graph.js scan of set:
// rung options, a deterministic fault label, and the engine the scan
// ran as the attempt's label.
func graphjsAttempt(set scanner.FileSet, name string, opts scanner.Options, r rung, attempt int) (PackageResult, string) {
	o := rungScanOptions(opts, r)
	o.FaultLabel = fmt.Sprintf("%s#%d", name, attempt)
	rep := set.Scan(o)
	return graphjsResult(nil, rep), string(rep.Engine)
}

// rungScanOptions derives the scanner options for one ladder rung.
func rungScanOptions(base scanner.Options, r rung) scanner.Options {
	o := base
	if r.Floor {
		o.ReachGateOnly = true
		return o
	}
	if r.Factor < 1 {
		o.MaxSteps = scaleCap(base.MaxSteps, degradedSteps, r.Factor)
		o.MaxNodes = scaleCap(base.MaxNodes, degradedNodes, r.Factor)
		o.MaxEdges = scaleCap(base.MaxEdges, degradedEdges, r.Factor)
	}
	return o
}

// SuperviseGraphJS runs a supervised Graph.js sweep: SweepGraphJS's
// worker pool, plus the journal and the degradation ladder. The
// returned Sweep has one row per corpus package in corpus order
// (resumed packages included); stats counts how packages terminated.
func SuperviseGraphJS(c *dataset.Corpus, opts scanner.Options, sup SuperviseOptions) (*Sweep, *SuperviseStats, error) {
	ladder := defaultLadder()
	fp := graphjsFingerprintOf(opts, ladder)
	return supervisePackages(c, opts.Workers, fp, ladder, sup,
		func(p *dataset.Package, files []scanner.SourceFile, r rung, attempt int) (PackageResult, string) {
			set := scanner.FileSet{Path: p.Name, Files: files, Tree: opts.Tree}
			return graphjsAttempt(set, p.Name, opts, r, attempt)
		})
}

// Target is one named scan unit of a supervised CLI or daemon sweep: a
// file or package directory. The supervisor reads it once, through
// Read, and every ladder rung scans those bytes.
type Target struct {
	Name string
	// Read returns the target's file set (scanner.PackageFiles);
	// resume compares its content hash against the journaled one.
	Read func() (scanner.FileSet, error)
	// State, when non-nil, returns the warm state the target's
	// attempts scan with.
	State func() *scanner.IncrementalState
}

// SuperviseGraphJSTargets is SuperviseGraphJS for filesystem targets
// instead of an in-memory corpus: the graphjs CLI's -sweep mode and the
// daemon's /v1/sweep. The ladder, fingerprint and journal semantics
// are identical, so a CLI journal and a corpus journal are
// interchangeable formats. Rows carry no dataset package.
func SuperviseGraphJSTargets(targets []Target, opts scanner.Options, sup SuperviseOptions) (*Sweep, *SuperviseStats, error) {
	ladder := defaultLadder()
	fp := graphjsFingerprintOf(opts, ladder)
	return supervise(len(targets), opts.Workers, fp, ladder, sup, func(i int) sweepUnit {
		t := targets[i]
		set, err := t.Read()
		if err != nil {
			// An unreadable target hashes its error text (an empty Rel
			// names no file a read returns), so it resumes only while
			// it fails the same way.
			rep := &scanner.Report{Name: t.Name, Err: err}
			return sweepUnit{name: t.Name, hash: scanner.ContentHash([]scanner.SourceFile{{Src: err.Error()}}),
				run: func(rung, int) (PackageResult, string) { return graphjsResult(nil, rep), "" }}
		}
		o := opts
		if t.State != nil {
			o.Incremental = t.State()
		}
		return sweepUnit{name: t.Name, hash: scanner.ContentHash(set.Files),
			run: func(r rung, attempt int) (PackageResult, string) {
				return graphjsAttempt(set, t.Name, o, r, attempt)
			}}
	})
}

// odgenFingerprint is the resume-relevant slice of odgen.Options.
type odgenFingerprint struct {
	UnrollLimit int
	CallDepth   int
	StepBudget  int
	Timeout     time.Duration
	Ladder      []string
}

// odgenLadder degrades the baseline's unroll bound and step budget;
// ODGen has no reach gate, so its floor is the cheapest config that
// still runs (single unrolling, minimal step budget).
func odgenLadder() []rung {
	return []rung{
		{Name: "full", Factor: 1},
		{Name: "half", Factor: 0.5},
		{Name: "minimal", Factor: 0.1},
	}
}

// rungODGenOptions derives the baseline options for one ladder rung:
// both the unroll bound and the step budget shrink with the rung.
func rungODGenOptions(base odgen.Options, r rung) odgen.Options {
	o := base
	if o.StepBudget <= 0 {
		o.StepBudget = odgen.DefaultOptions().StepBudget
	}
	if o.UnrollLimit <= 0 {
		o.UnrollLimit = odgen.DefaultOptions().UnrollLimit
	}
	if r.Factor < 1 {
		o.StepBudget = scaleCap(o.StepBudget, 0, r.Factor)
		o.UnrollLimit = scaleCap(o.UnrollLimit, 0, r.Factor)
	}
	return o
}

// SuperviseODGen is SuperviseGraphJS for the ODGen-style baseline.
func SuperviseODGen(c *dataset.Corpus, opts odgen.Options, sup SuperviseOptions) (*Sweep, *SuperviseStats, error) {
	ladder := odgenLadder()
	fp := sweepjournal.Fingerprint(odgenFingerprint{
		UnrollLimit: opts.UnrollLimit,
		CallDepth:   opts.CallDepth,
		StepBudget:  opts.StepBudget,
		Timeout:     opts.Timeout,
		Ladder:      ladderNames(ladder),
	})
	return supervisePackages(c, opts.Workers, fp, ladder, sup,
		func(p *dataset.Package, _ []scanner.SourceFile, r rung, attempt int) (PackageResult, string) {
			o := rungODGenOptions(opts, r)
			return odgenResult(p, odgen.Scan(p.Source, p.Name, o)), "odgen"
		})
}

// sweepUnit is one package of a supervised sweep, read once: its
// journal name, the content hash of the bytes its attempts scan, and
// one ladder attempt on those bytes.
type sweepUnit struct {
	name string
	hash string
	run  func(r rung, attempt int) (PackageResult, string)
}

// supervisePackages supervises an in-memory corpus: each package's file
// set is its sources, hashed once and handed to every attempt. Rows get
// their package back after the sweep.
func supervisePackages(c *dataset.Corpus, workers int, fp string, ladder []rung, sup SuperviseOptions,
	run func(p *dataset.Package, files []scanner.SourceFile, r rung, attempt int) (PackageResult, string)) (*Sweep, *SuperviseStats, error) {

	sw, stats, err := supervise(len(c.Packages), workers, fp, ladder, sup, func(i int) sweepUnit {
		p := c.Packages[i]
		files := packageSources(p)
		return sweepUnit{name: p.Name, hash: scanner.ContentHash(files),
			run: func(r rung, attempt int) (PackageResult, string) { return run(p, files, r, attempt) }}
	})
	if sw != nil {
		fillPackages(sw, c)
	}
	return sw, stats, err
}

// supervise is the shared supervised-sweep body over n units: resume
// filter, worker pool, ladder, journal puts, terminal-state
// accounting. unit reads unit i; it runs once per unit, on a worker.
func supervise(n, workers int, fp string, ladder []rung, sup SuperviseOptions,
	unit func(i int) sweepUnit) (*Sweep, *SuperviseStats, error) {

	stats := &SuperviseStats{Entries: make([]sweepjournal.Entry, n)}
	prior := map[string]sweepjournal.Entry{}
	var journal *store.Store
	if sup.Journal != "" {
		// The constant fault label keeps disk-fault plans armed for the
		// analysis store ("store") away from journals.
		js, err := store.Open(sup.Journal, store.Options{NoFsync: sup.NoFsync, FaultLabel: "journal"})
		if err != nil {
			return nil, nil, fmt.Errorf("%w %s: %w", ErrJournalOpen, sup.Journal, err)
		}
		journal = js
		stats.Torn = js.Stats().TruncatedBytes > 0
		if sup.Resume {
			prior = sweepjournal.Entries(js)
		}
	}

	var mu sync.Mutex // stats counters + first journal error
	var journalErr error
	sw := runCorpus(n, workers, func(i int) PackageResult {
		u := unit(i)
		// Canceled entries never satisfy a resume: they record that a
		// client went away, not anything about the package.
		if e, ok := prior[u.name]; ok && e.Matches(u.hash, fp) && e.State != sweepjournal.StateCanceled {
			quarantined := e.State == sweepjournal.StateQuarantined
			if !quarantined || !sup.Requarantine {
				stats.Entries[i] = e
				mu.Lock()
				stats.Resumed++
				stats.tally(e.State)
				mu.Unlock()
				return resultFromEntry(e)
			}
		}
		res, entry := runLadder(u.name, u.hash, fp, ladder, sup.Backoff, u.run)
		perr := sweepjournal.Put(journal, entry)
		stats.Entries[i] = entry
		mu.Lock()
		stats.tally(entry.State)
		if perr != nil && journalErr == nil {
			journalErr = perr
		}
		mu.Unlock()
		return res
	})

	if journal != nil {
		// Compaction keeps one record per package however many sweeps
		// the journal has seen. It only runs on a healthy sweep that put
		// something: after a failed put the log is left exactly as the
		// failure left it, and a sweep satisfied entirely from the
		// journal has nothing to fold.
		if journalErr == nil && journal.Stats().Puts > 0 {
			journalErr = journal.Compact()
		}
		if cerr := journal.Close(); cerr != nil && journalErr == nil {
			journalErr = cerr
		}
	}
	return sw, stats, journalErr
}
