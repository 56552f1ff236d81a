package server

import (
	"repro/internal/budget"
	"repro/internal/scanner"
	"repro/internal/sweepjournal"
)

// This file defines the wire types of the graphjsd HTTP/JSON API.
// Every shape here is documented (with examples) in docs/API.md; the
// curl examples there are replayed against a live test server by
// TestAPIDocCurlExamples, so the doc and these structs cannot drift
// apart silently. cmd/graphjs reuses FindingJSON/ReportJSON for its
// -json output, which is what makes the CLI and the daemon
// byte-identical on the same scan.

// FindingJSON is the wire rendering of one queries.Finding: the sink
// identity plus the call-path provenance the reach gate attached
// (entry export, hop chain, and whether the every-function fallback
// attack model was in effect).
type FindingJSON struct {
	CWE    string `json:"cwe"`
	Sink   string `json:"sink"`
	File   string `json:"file,omitempty"`
	Line   int    `json:"line"`
	Source string `json:"source"`
	// Call-path provenance: the API entry (or fallback marker) and the
	// hop chain from it down to the sink's function.
	Entry    string   `json:"entry,omitempty"`
	Hops     []string `json:"hops,omitempty"`
	Fallback bool     `json:"reachFallback,omitempty"`
	// DepPath is the dependency-tree package chain the call path
	// crosses (tree scans only): root package first, each hop labeled
	// "name@version (node_modules dir)".
	DepPath []string `json:"depPath,omitempty"`
}

// ReportJSON is the wire rendering of a scan outcome shared by the
// graphjs CLI (-json) and the daemon's /v1/scan response: name,
// failure taxonomy, and the findings list. TimedOut is derived from
// the failure class (failure == "timeout") and kept for existing
// clients.
type ReportJSON struct {
	Name       string        `json:"name"`
	TimedOut   bool          `json:"timedOut"`
	Failure    string        `json:"failure,omitempty"`
	Incomplete bool          `json:"incomplete,omitempty"`
	Findings   []FindingJSON `json:"findings"`
}

// ReportToJSON flattens a scanner report into its wire rendering.
func ReportToJSON(rep *scanner.Report) ReportJSON {
	out := ReportJSON{
		Name: rep.Name, TimedOut: rep.Failure == budget.ClassTimeout, Failure: string(rep.Failure),
		Incomplete: rep.Incomplete, Findings: []FindingJSON{},
	}
	for _, f := range rep.Findings {
		out.Findings = append(out.Findings, FindingJSON{
			CWE: string(f.CWE), Sink: f.SinkName, File: f.SinkFile,
			Line: f.SinkLine, Source: f.Source,
			Entry: f.Provenance.Entry, Hops: f.Provenance.Hops,
			Fallback: f.Provenance.Fallback, DepPath: f.Provenance.DepPath,
		})
	}
	return out
}

// SourceFileJSON is one file of an uploaded package file set. Rel is
// the package-relative path used for require('./x') resolution.
type SourceFileJSON struct {
	Rel string `json:"rel"`
	Src string `json:"src"`
}

// ScanRequest is the body of POST /v1/scan: either Source (one inline
// file) or Files (a package file set), plus per-request engine and
// budget knobs. Every knob is optional; zero values mean the server's
// defaults, and requested budgets are clamped to the server's
// ceilings (the response records the effective values).
type ScanRequest struct {
	// Name identifies the logical package. Re-submissions under the
	// same name share warm incremental state (the process-wide
	// StatePool), so an edited package re-analyzes only the changed
	// require-components. Empty means an anonymous one-shot scan with
	// no warm state.
	Name string `json:"name,omitempty"`
	// Source is a single inline JavaScript source text. Mutually
	// exclusive with Files.
	Source string `json:"source,omitempty"`
	// Files is a package file set; it is scanned as one multi-module
	// package (require('./sibling') flows connect across files).
	Files []SourceFileJSON `json:"files,omitempty"`

	// Engine selects the detection backend (native, query,
	// differential; "" = the server default).
	Engine string `json:"engine,omitempty"`
	// TimeoutMs requests a wall-clock budget in milliseconds, clamped
	// to the server's ceiling (0 = server default).
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// MaxSteps/MaxNodes/MaxEdges request cooperative step and MDG size
	// caps, clamped to the server's ceilings (0 = server default).
	MaxSteps int `json:"maxSteps,omitempty"`
	MaxNodes int `json:"maxNodes,omitempty"`
	MaxEdges int `json:"maxEdges,omitempty"`
	// NoReachGate disables the export-graph reachability skip gate for
	// this request (the gate still runs for provenance).
	NoReachGate bool `json:"noReachGate,omitempty"`
	// Cold forces a stateless scan even when Name is set: the warm
	// incremental state is neither consulted nor updated.
	Cold bool `json:"cold,omitempty"`
	// Tree scans Files as a dependency tree: node_modules packages are
	// resolved, analyzed as separate MDG fragments, stitched, and
	// cross-package require flows are linked. Include package.json
	// manifests in Files — the resolver reads them. Requires Files
	// (not Source). With Name set, per-package fragments stay warm, so
	// re-submitting the tree after editing one dependency re-analyzes
	// only that package.
	Tree bool `json:"tree,omitempty"`
}

// PhaseJSON is one per-phase budget-usage row of a scan response.
type PhaseJSON struct {
	Phase string  `json:"phase"`
	Steps int     `json:"steps"`
	Nodes int     `json:"nodes"`
	Edges int     `json:"edges"`
	Ms    float64 `json:"ms"`
}

// IncrStatsJSON mirrors scanner.IncrementalStats on the wire: the
// warm-state cache traffic of the request's StatePool entry.
type IncrStatsJSON struct {
	FrontEndHits     int `json:"frontEndHits"`
	FrontEndMisses   int `json:"frontEndMisses"`
	FragmentHits     int `json:"fragmentHits"`
	FragmentRebuilds int `json:"fragmentRebuilds"`
	DetectHits       int `json:"detectHits"`
	DetectMisses     int `json:"detectMisses"`
	EvictedFiles     int `json:"evictedFiles"`
	EvictedFragments int `json:"evictedFragments"`
	// Persistent-store traffic (zero unless the daemon runs with
	// -cache-dir): decoded cache hits served from disk, misses, records
	// written, and the degrade-to-cold counters — entries quarantined
	// as undecodable and writes that failed (both are speed loss only,
	// never finding loss).
	StoreHits        int `json:"storeHits,omitempty"`
	StoreMisses      int `json:"storeMisses,omitempty"`
	StorePuts        int `json:"storePuts,omitempty"`
	StoreQuarantined int `json:"storeQuarantined,omitempty"`
	StoreErrors      int `json:"storeErrors,omitempty"`
}

func incrStatsJSON(s *scanner.IncrementalStats) *IncrStatsJSON {
	if s == nil {
		return nil
	}
	return &IncrStatsJSON{
		FrontEndHits: s.FrontEndHits, FrontEndMisses: s.FrontEndMisses,
		FragmentHits: s.FragmentHits, FragmentRebuilds: s.Rebuilds(),
		DetectHits: s.DetectHits, DetectMisses: s.DetectMisses,
		EvictedFiles: s.EvictedFiles, EvictedFragments: s.EvictedFragments,
		StoreHits: s.StoreHits, StoreMisses: s.StoreMisses, StorePuts: s.StorePuts,
		StoreQuarantined: s.StoreQuarantined, StoreErrors: s.StoreErrors,
	}
}

// ScanStatsJSON is the size/timing block of a scan response.
type ScanStatsJSON struct {
	LoC      int     `json:"loc"`
	MDGNodes int     `json:"mdgNodes"`
	MDGEdges int     `json:"mdgEdges"`
	GraphMs  float64 `json:"graphMs"`
	DetectMs float64 `json:"detectMs"`
	// Export-graph gate counters.
	FuncsTotal      int  `json:"funcsTotal"`
	FuncsPruned     int  `json:"funcsPruned"`
	SkippedByReach  bool `json:"skippedByReach,omitempty"`
	ExportCount     int  `json:"exportCount"`
	ReachFallback   bool `json:"reachFallback,omitempty"`
	ProvenanceDepth int  `json:"provenanceDepth,omitempty"`
	// Dependency-tree shape (tree scans only): resolved package count
	// and deepest node_modules nesting level.
	TreePackages int `json:"treePackages,omitempty"`
	TreeDepth    int `json:"treeDepth,omitempty"`
}

// EffectiveJSON records the budget/engine values the scan actually ran
// under, after server-side clamping to the configured ceilings.
type EffectiveJSON struct {
	Engine    string `json:"engine"`
	TimeoutMs int    `json:"timeoutMs"`
	MaxSteps  int    `json:"maxSteps,omitempty"`
	MaxNodes  int    `json:"maxNodes,omitempty"`
	MaxEdges  int    `json:"maxEdges,omitempty"`
	// Warm reports whether the scan used (and updated) the shared
	// incremental StatePool.
	Warm bool `json:"warm"`
}

// ScanResponse is the body of a successful POST /v1/scan: the shared
// report rendering plus phase accounting, size stats, the effective
// (clamped) knobs, and the warm-state counters when the scan was
// incremental.
type ScanResponse struct {
	ReportJSON
	Engine         string         `json:"engine"`
	Effective      EffectiveJSON  `json:"effective"`
	Stats          ScanStatsJSON  `json:"stats"`
	Phases         []PhaseJSON    `json:"phases,omitempty"`
	ExhaustedPhase string         `json:"exhaustedPhase,omitempty"`
	Incremental    *IncrStatsJSON `json:"incremental,omitempty"`
	Truncated      int            `json:"truncatedSearches,omitempty"`
	ScanError      string         `json:"scanError,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: a corpus directory on
// the server's filesystem whose immediate children (package
// directories and .js files) become sweep targets, driven through the
// supervised retry/degradation ladder, optionally journal-backed.
type SweepRequest struct {
	// Path is the corpus directory on the server's disk.
	Path string `json:"path"`
	// Journal, when non-empty, records per-target terminal outcomes in
	// this journal directory on the server's disk (a crash-safe store,
	// created if absent and compacted after the sweep). One sweep at a
	// time may write a journal.
	Journal string `json:"journal,omitempty"`
	// Resume skips targets whose journal entry matches their current
	// content hash and options fingerprint.
	Resume bool `json:"resume,omitempty"`
	// Requarantine re-scans quarantined targets on resume.
	Requarantine bool `json:"requarantine,omitempty"`

	// Engine and budget knobs, clamped exactly like ScanRequest's.
	Engine      string `json:"engine,omitempty"`
	TimeoutMs   int    `json:"timeoutMs,omitempty"`
	MaxSteps    int    `json:"maxSteps,omitempty"`
	MaxNodes    int    `json:"maxNodes,omitempty"`
	MaxEdges    int    `json:"maxEdges,omitempty"`
	NoReachGate bool   `json:"noReachGate,omitempty"`
	// Cold disables warm incremental state for the sweep's scans.
	Cold bool `json:"cold,omitempty"`
}

// SweepResponse is the body of a successful POST /v1/sweep.
type SweepResponse struct {
	Path    string `json:"path"`
	Targets int    `json:"targets"`
	// Terminal-state tallies (see internal/sweepjournal). Canceled
	// counts targets abandoned because the request context died
	// mid-sweep; their journal entries are retryable (a resumed sweep
	// re-scans them).
	Completed   int     `json:"completed"`
	Degraded    int     `json:"degraded"`
	Quarantined int     `json:"quarantined"`
	Canceled    int     `json:"canceled,omitempty"`
	Resumed     int     `json:"resumed"`
	Torn        bool    `json:"torn,omitempty"`
	Findings    int     `json:"findings"`
	WallMs      float64 `json:"wallMs"`
	// Entries holds each target's terminal journal entry in target
	// order (resumed targets keep their prior entry).
	Entries []sweepjournal.Entry `json:"entries"`
}

// StatusResponse is the body of GET /v1/status: a liveness snapshot of
// the worker pool and warm state.
type StatusResponse struct {
	UptimeMs float64 `json:"uptimeMs"`
	Workers  int     `json:"workers"`
	// Running is the number of scans currently holding a worker slot;
	// Queued counts admitted requests waiting for one. Their sum is
	// bounded by Workers+QueueDepth — anything beyond is shed with 429.
	Running  int  `json:"running"`
	Queued   int  `json:"queued"`
	Draining bool `json:"draining"`
	// Health is the server's explicit state-machine state: "healthy",
	// "degraded" (cold scans only — the store reported corruption or
	// write errors, or the StatePool hit its byte ceiling), or
	// "draining". HealthReason names the signal that forced the last
	// degraded transition.
	Health       string `json:"health"`
	HealthReason string `json:"healthReason,omitempty"`
	// Scans/Sweeps/Rejected are lifetime request counters. Canceled
	// counts requests whose client disconnected before their scan
	// finished (answered 499; the freed slot re-admits waiting work).
	Scans    int64 `json:"scans"`
	Sweeps   int64 `json:"sweeps"`
	Rejected int64 `json:"rejected"`
	Canceled int64 `json:"canceled"`
	// StatePackages is the number of packages with warm incremental
	// state resident in the process-wide StatePool.
	StatePackages int `json:"statePackages"`
	// StateEvictedStates/StateEvictedBytes count LRU evictions from the
	// StatePool since start (non-zero only when -state-max-entries or
	// -state-max-bytes bounds the pool).
	StateEvictedStates int64 `json:"stateEvictedStates"`
	StateEvictedBytes  int64 `json:"stateEvictedBytes"`
	// Store is the persistent on-disk cache snapshot; absent unless the
	// daemon was started with -cache-dir.
	Store *StoreJSON `json:"store,omitempty"`
}

// StoreJSON is the wire snapshot of the persistent store backing
// -cache-dir (see internal/store.Stats).
type StoreJSON struct {
	Dir      string `json:"dir"`
	ReadOnly bool   `json:"readOnly,omitempty"`
	// Entries/Bytes describe the live index; Bytes is the log size on
	// disk including superseded records (compaction reclaims it).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Lifetime traffic counters for this process.
	Puts int64 `json:"puts"`
	Gets int64 `json:"gets"`
	Hits int64 `json:"hits"`
	// Quarantined counts records dropped for failing CRC or decode
	// checks; TruncatedBytes counts torn-tail bytes repaired at open.
	// Both degrade the affected keys to cold — findings never change.
	Quarantined    int64 `json:"quarantined"`
	TruncatedBytes int64 `json:"truncatedBytes"`
	WriteErrors    int64 `json:"writeErrors"`
	Compactions    int64 `json:"compactions"`
}

// MetricsResponse is the body of GET /v1/metrics: everything in
// StatusResponse plus failure-class counts and the StatePool's
// aggregate hit/miss/rebuild counters.
type MetricsResponse struct {
	StatusResponse
	// Failures counts terminal scan outcomes per failure class; the
	// "ok" key counts clean scans.
	Failures map[string]int64 `json:"failures"`
	// StatePool aggregates the incremental counters over every
	// package's warm state.
	StatePool IncrStatsJSON `json:"statePool"`
	// HealthTransitions counts state-machine transitions since start,
	// keyed "from->to" (e.g. "healthy->degraded").
	HealthTransitions map[string]int64 `json:"healthTransitions"`
	// Breakers snapshots the per-content-hash offender ledger.
	Breakers BreakersJSON `json:"breakers"`
}

// BreakersJSON is the circuit-breaker snapshot in /v1/metrics.
type BreakersJSON struct {
	// Offender ledger: content hashes currently tracked, hashes
	// currently quarantined (open), lifetime quarantine trips, requests
	// shed with the cached quarantined verdict, and hashes recovered
	// through a half-open probe.
	OffenderTracked   int   `json:"offenderTracked"`
	OffenderOpen      int   `json:"offenderOpen"`
	OffenderTrips     int64 `json:"offenderTrips"`
	OffenderShed      int64 `json:"offenderShed"`
	OffenderRecovered int64 `json:"offenderRecovered"`
}

// HealthResponse is the body of GET /healthz: pure liveness. It
// answers 200 whenever the process can serve HTTP at all — degraded
// and draining states included — so orchestrators restart the process
// only when it is truly wedged.
type HealthResponse struct {
	Status   string  `json:"status"` // always "ok" when the handler runs
	Health   string  `json:"health"`
	UptimeMs float64 `json:"uptimeMs"`
}

// ReadyResponse is the body of GET /readyz: readiness for new work.
// Ready is false (and the status 503) only while draining; a degraded
// server still serves scans (cold only) and stays ready.
type ReadyResponse struct {
	Ready  bool   `json:"ready"`
	Health string `json:"health"`
	// Reason names the signal behind a degraded state ("" when healthy).
	Reason string `json:"reason,omitempty"`
}

// ErrorJSON is the error envelope every non-2xx response carries.
type ErrorJSON struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// Error codes used in the envelope.
const (
	CodeBadRequest   = "bad_request" // malformed body or invalid knob (400)
	CodeNotFound     = "not_found"   // unknown route (404)
	CodeMethod       = "method_not_allowed"
	CodeOverloaded   = "overloaded"    // admission control shed the request (429)
	CodeShuttingDown = "shutting_down" // server is draining (503)
	CodeInternal     = "internal"      // recovered panic or I/O failure (500)
	// CodePayloadTooLarge: the request body exceeded the 16 MiB bound
	// (413, structured JSON instead of the stdlib plain-text error).
	CodePayloadTooLarge = "payload_too_large"
	// CodeQuarantined: the offender ledger has circuit-broken this exact
	// content after repeated panics/timeouts; the cached verdict is
	// served with Retry-After until a half-open probe clears it (429).
	CodeQuarantined = "quarantined"
	// CodeCanceled: the client went away before the scan finished (499,
	// the de-facto client-closed-request status). Mostly diagnostic —
	// the client that would read it is gone.
	CodeCanceled = "canceled"
)

// StatusClientClosedRequest is the de-facto (nginx) status for a
// request whose client disconnected before the response was ready.
const StatusClientClosedRequest = 499
