package server

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/budget"
	"repro/internal/metrics"
	"repro/internal/scanner"
)

// handleSweep is POST /v1/sweep: enumerate the corpus directory's
// targets, then drive them through the supervised retry/degradation
// ladder (internal/metrics supervisor) — journal-backed and resumable
// when the request names a journal. The whole sweep runs under one
// admission token; its internal worker pool is the server's Workers,
// so a sweep temporarily owns the pool width it was admitted into
// (documented in docs/OPERATIONS.md).
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "path is required")
		return
	}
	if req.Resume && req.Journal == "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "resume requires a journal")
		return
	}
	if req.CompactJournal {
		if req.Journal == "" {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "compactJournal requires a journal")
			return
		}
		if s.opts.Store == nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				"compactJournal requires a daemon started with -cache-dir")
			return
		}
	}
	opts, _, err := s.scanOptions(req.Engine, req.TimeoutMs, req.MaxSteps,
		req.MaxNodes, req.MaxEdges, req.NoReachGate)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	targets, err := sweepTargets(req.Path, s.sweepState(req.Cold))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	if len(targets) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("no scan targets under %s", req.Path))
		return
	}

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	// A sweep can legitimately outlive any server-level WriteTimeout;
	// lift the connection's write deadline for this response instead of
	// weakening the timeout for every other route.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})

	opts.Workers = s.opts.Workers
	// A disconnected sweep client cancels the whole ladder: each
	// in-flight target finishes as canceled (journaled retryable, so a
	// resume re-scans it) and no further targets start.
	opts.Context = r.Context()
	start := time.Now()
	var sw *metrics.Sweep
	var stats *metrics.SuperviseStats
	gerr := budget.Guard("serve-sweep", func() error {
		var serr error
		sw, stats, serr = metrics.SuperviseGraphJSTargets(targets, opts, metrics.SuperviseOptions{
			JournalPath:    req.Journal,
			Resume:         req.Resume,
			Requarantine:   req.Requarantine,
			Store:          s.opts.Store,
			CompactJournal: req.CompactJournal,
			NoFsync:        s.opts.NoFsync,
		})
		return serr
	})
	s.sweeps.Add(1)
	if gerr != nil {
		s.recordFailure(budget.ClassOf(gerr))
		writeError(w, http.StatusInternalServerError, CodeInternal,
			fmt.Sprintf("sweep %s: %v", req.Path, gerr))
		return
	}

	resp := SweepResponse{
		Path:        req.Path,
		Targets:     len(targets),
		Completed:   stats.Completed,
		Degraded:    stats.Degraded,
		Quarantined: stats.Quarantined,
		Canceled:    stats.Canceled,
		Resumed:     stats.Resumed,
		Torn:        stats.Torn,
		WallMs:      float64(time.Since(start).Microseconds()) / 1000,
		Entries:     stats.Entries,
	}
	for i := range sw.Results {
		s.recordFailure(sw.Results[i].Failure)
		resp.Findings += len(sw.Results[i].Findings)
	}
	s.observeHealth()
	writeJSON(w, http.StatusOK, resp)
}

// sweepState resolves the warm-state pool a sweep's scans draw from
// (nil disables incremental reuse for the sweep; degraded mode forces
// cold sweeps like it forces cold scans).
func (s *Server) sweepState(cold bool) *scanner.StatePool {
	if cold || s.degraded() {
		return nil
	}
	return s.pool
}

// sweepTargets enumerates a corpus directory the way the graphjs CLI
// treats its arguments: every immediate child directory is one package
// target, every immediate *.js child (minus .min.js) one file target,
// in sorted name order. Each target hashes its current on-disk content
// for journal resume and scans with the pool's warm state when pool is
// non-nil.
func sweepTargets(dir string, pool *scanner.StatePool) ([]metrics.Target, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("sweep path: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, ".") {
			continue
		}
		if !e.IsDir() && (!strings.HasSuffix(name, ".js") || strings.HasSuffix(name, ".min.js")) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)

	targets := make([]metrics.Target, 0, len(names))
	for _, name := range names {
		path := filepath.Join(dir, name)
		targets = append(targets, metrics.Target{
			Name: name,
			Hash: func() string { return metrics.HashTarget(path) },
			Scan: func(o scanner.Options) *scanner.Report {
				if pool != nil {
					o.Incremental = pool.Get(path)
				}
				return scanTargetPath(path, o)
			},
		})
	}
	return targets, nil
}

// scanTargetPath scans one filesystem target (file or package dir).
func scanTargetPath(path string, opts scanner.Options) *scanner.Report {
	info, err := os.Stat(path)
	if err != nil {
		return &scanner.Report{Name: path, Err: err}
	}
	if info.IsDir() {
		return scanner.ScanPackage(path, opts)
	}
	return scanner.ScanFile(path, opts)
}

// handleStatus is GET /v1/status.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, s.status())
}

// handleMetrics is GET /v1/metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	resp := MetricsResponse{StatusResponse: s.status(), Failures: map[string]int64{}}
	s.mu.Lock()
	for k, v := range s.failures {
		resp.Failures[k] = v
	}
	s.mu.Unlock()
	_, _, resp.HealthTransitions = s.healthSnapshot()
	s.offenders.snapshot(&resp.Breakers)
	if s.pool != nil {
		ps := s.pool.Stats()
		resp.StatePool = IncrStatsJSON{
			FrontEndHits: ps.FrontEndHits, FrontEndMisses: ps.FrontEndMisses,
			FragmentHits: ps.FragmentHits, FragmentRebuilds: ps.Rebuilds(),
			DetectHits: ps.DetectHits, DetectMisses: ps.DetectMisses,
			EvictedFiles: ps.EvictedFiles, EvictedFragments: ps.EvictedFragments,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// status assembles the shared status snapshot.
func (s *Server) status() StatusResponse {
	s.observeHealth()
	health, healthReason, _ := s.healthSnapshot()
	running := len(s.slots)
	admitted := len(s.queue)
	queued := admitted - running
	if queued < 0 {
		queued = 0
	}
	st := StatusResponse{
		UptimeMs:     float64(time.Since(s.start).Microseconds()) / 1000,
		Workers:      cap(s.slots),
		Running:      running,
		Queued:       queued,
		Draining:     s.Draining(),
		Health:       health,
		HealthReason: healthReason,
		Scans:        s.scans.Load(),
		Sweeps:       s.sweeps.Load(),
		Rejected:     s.rejected.Load(),
		Canceled:     s.canceled.Load(),
	}
	if s.pool != nil {
		st.StatePackages = s.pool.Len()
		st.StateEvictedStates, st.StateEvictedBytes = s.pool.Evictions()
	}
	if s.opts.Store != nil {
		ss := s.opts.Store.Stats()
		st.Store = &StoreJSON{
			Dir: s.opts.Store.Dir(), ReadOnly: s.opts.Store.ReadOnly(),
			Entries: ss.Entries, Bytes: ss.Bytes,
			Puts: ss.Puts, Gets: ss.Gets, Hits: ss.Hits,
			Quarantined: ss.Quarantined, TruncatedBytes: ss.TruncatedBytes,
			WriteErrors: ss.WriteErrors, Compactions: ss.Compactions,
		}
	}
	return st
}
