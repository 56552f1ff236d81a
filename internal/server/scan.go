package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/budget"
	"repro/internal/scanner"
)

// maxBodyBytes bounds request bodies (source uploads included): 16 MiB
// is far beyond any real npm package main, and keeps a misbehaving
// client from ballooning the daemon's heap before the scan even runs.
const maxBodyBytes = 16 << 20

// handleScan is POST /v1/scan: decode, clamp knobs to the server's
// ceilings, admit through the worker pool, scan behind a panic fence,
// respond.
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req ScanRequest
	if !decodeBody(w, r, &req) {
		return
	}
	files, name, errMsg := req.files()
	if errMsg != "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, errMsg)
		return
	}
	if req.Tree && req.Source != "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "tree scans require files (a package tree), not source")
		return
	}
	opts, eff, err := s.scanOptions(req.Engine, req.TimeoutMs, req.MaxSteps,
		req.MaxNodes, req.MaxEdges, req.NoReachGate)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	opts.Tree = req.Tree
	// Thread the request context into the scan's budget: a client that
	// disconnects or times out cancels its scan at the next budget
	// checkpoint, freeing the run slot for a client that is still
	// listening. Canceled results are classified, never cached.
	opts.Context = r.Context()

	// Offender breaker: content the daemon has repeatedly died on is
	// answered from the ledger instead of burning another run slot.
	hash := scanner.ContentHash(files)
	if dec := s.offenders.admit(hash); dec.quarantined {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(dec.retryAfter.Seconds()+0.999)))
		writeError(w, http.StatusTooManyRequests, CodeQuarantined,
			fmt.Sprintf("content quarantined after repeated %s failures; retry later", dec.lastClass))
		return
	}

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	// The scanner's phases are individually Guard-fenced, but the
	// handler fences the whole call too: a panic in glue code must
	// become a structured 500, never a dead daemon.
	var rep *scanner.Report
	gerr := budget.Guard("serve-scan", func() error {
		if testHookScanning != nil {
			testHookScanning(name, r.Context())
		}
		// The request's own name, not the "inline" display name: an
		// anonymous scan is one-shot and shares no warm state.
		st := s.state(req.Name, req.Cold)
		eff.Warm = st != nil
		opts.Incremental = st
		rep = scanner.ScanFiles(files, name, opts)
		return nil
	})
	s.scans.Add(1)
	// A request that asked for less than the server's default timeout
	// can time out on innocent content; only full-allowance timeouts
	// strike the offender ledger.
	strikeEligible := !(req.TimeoutMs > 0 &&
		time.Duration(req.TimeoutMs)*time.Millisecond < s.opts.DefaultTimeout)
	if gerr != nil {
		s.offenders.record(hash, budget.ClassOf(gerr), strikeEligible)
		s.recordFailure(budget.ClassPanic)
		s.observeHealth()
		writeError(w, http.StatusInternalServerError, CodeInternal,
			fmt.Sprintf("scan %s: %v", name, gerr))
		return
	}
	s.offenders.record(hash, rep.Failure, strikeEligible)
	s.recordFailure(rep.Failure)
	s.observeHealth()
	if rep.Failure == budget.ClassCanceled {
		// Nobody is reading this body, but the status line makes the
		// outcome visible in access logs and to tests.
		s.canceled.Add(1)
		writeError(w, StatusClientClosedRequest, CodeCanceled,
			fmt.Sprintf("scan %s canceled by client disconnect", name))
		return
	}
	writeJSON(w, http.StatusOK, scanResponse(rep, eff))
}

// files normalizes the request's source/files forms into the sorted
// SourceFile set ScanFiles expects, returning a non-empty errMsg on an
// invalid combination.
func (r *ScanRequest) files() (files []scanner.SourceFile, name string, errMsg string) {
	name = r.Name
	if name == "" {
		name = "inline"
	}
	switch {
	case r.Source != "" && len(r.Files) > 0:
		return nil, "", "source and files are mutually exclusive"
	case r.Source != "":
		return []scanner.SourceFile{{Rel: "index.js", Src: r.Source}}, name, ""
	case len(r.Files) > 0:
		seen := map[string]bool{}
		for _, f := range r.Files {
			if f.Rel == "" {
				return nil, "", "every file needs a rel path"
			}
			if seen[f.Rel] {
				return nil, "", fmt.Sprintf("duplicate file %q", f.Rel)
			}
			seen[f.Rel] = true
			files = append(files, scanner.SourceFile{Rel: f.Rel, Src: f.Src})
		}
		// ScanFiles requires sorted Rel order (require resolution and
		// site allocation depend on file order).
		sort.Slice(files, func(i, j int) bool { return files[i].Rel < files[j].Rel })
		return files, name, ""
	default:
		return nil, "", "one of source or files is required"
	}
}

// scanOptions clamps per-request knobs to the server's ceilings and
// returns the scanner options plus the effective values echoed in the
// response. An unknown engine name is a 400-level error.
func (s *Server) scanOptions(engine string, timeoutMs, steps, nodes, edges int,
	noReachGate bool) (scanner.Options, EffectiveJSON, error) {

	o := s.opts
	eng := o.Engine
	if engine != "" {
		parsed, err := scanner.ParseEngine(engine)
		if err != nil {
			return scanner.Options{}, EffectiveJSON{}, err
		}
		eng = parsed
	}
	timeout := o.DefaultTimeout
	if timeoutMs > 0 {
		timeout = time.Duration(timeoutMs) * time.Millisecond
		if timeout > o.MaxTimeout {
			timeout = o.MaxTimeout
		}
	}
	clamp := func(req, def, max int) int {
		v := def
		if req > 0 {
			v = req
		}
		if max > 0 && (v <= 0 || v > max) {
			v = max
		}
		return v
	}
	opts := scanner.Options{
		Config:      o.Config,
		Engine:      eng,
		Timeout:     timeout,
		MaxSteps:    clamp(steps, o.DefaultSteps, o.MaxSteps),
		MaxNodes:    clamp(nodes, o.DefaultNodes, o.MaxNodes),
		MaxEdges:    clamp(edges, o.DefaultEdges, o.MaxEdges),
		NoReachGate: noReachGate,
	}
	eff := EffectiveJSON{
		Engine:    string(eng),
		TimeoutMs: int(timeout / time.Millisecond),
		MaxSteps:  opts.MaxSteps,
		MaxNodes:  opts.MaxNodes,
		MaxEdges:  opts.MaxEdges,
	}
	return opts, eff, nil
}

// scanResponse renders a scan report onto the wire.
func scanResponse(rep *scanner.Report, eff EffectiveJSON) ScanResponse {
	resp := ScanResponse{
		ReportJSON:     ReportToJSON(rep),
		Engine:         string(rep.Engine),
		Effective:      eff,
		ExhaustedPhase: rep.ExhaustedPhase,
		Incremental:    incrStatsJSON(rep.IncrStats),
		Truncated:      rep.TruncatedSearches,
		Stats: ScanStatsJSON{
			LoC: rep.LoC, MDGNodes: rep.MDGNodes, MDGEdges: rep.MDGEdges,
			GraphMs:    float64((rep.TotalTime() - rep.DetectTime()).Microseconds()) / 1000,
			DetectMs:   float64(rep.DetectTime().Microseconds()) / 1000,
			FuncsTotal: rep.FuncsTotal, FuncsPruned: rep.FuncsPruned,
			SkippedByReach: rep.SkippedByReach, ExportCount: rep.ExportCount,
			ReachFallback: rep.ReachFallback, ProvenanceDepth: rep.ProvenanceDepth,
			TreePackages: rep.TreePackages, TreeDepth: rep.TreeDepth,
		},
	}
	if rep.Err != nil {
		resp.ScanError = rep.Err.Error()
	}
	for _, ph := range rep.Phases {
		resp.Phases = append(resp.Phases, PhaseJSON{
			Phase: ph.Phase, Steps: ph.Steps, Nodes: ph.Nodes, Edges: ph.Edges,
			Ms: float64(ph.Dur.Microseconds()) / 1000,
		})
	}
	return resp
}

// decodeBody decodes a JSON request body with a size bound and strict
// field checking (an unknown knob is a client bug worth failing, not
// silently ignoring), answering 400 — or a structured 413 when the
// body exceeds the size bound — itself on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("decode body: %v", err))
		return false
	}
	return true
}
