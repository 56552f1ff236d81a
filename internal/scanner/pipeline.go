package scanner

// The scan pipeline. Every entry point — ScanSource, ScanPackage,
// ScanFiles and FileSet.Scan, cold or warm, flat or tree —
// runs the same stages, each written once below inside one phase and
// one panic guard:
//
//  1. front end: parse and normalize every file (tree mode first
//     resolves the node_modules layout);
//  2. partition: split the package into separately analyzed fragments;
//  3. reach gate: the export-graph pre-pass, which may prove the
//     package finding-free (or, under ReachGateOnly, end the scan);
//  4. analysis: build each fragment's MDG, or fetch it from the state
//     or its store;
//  5. detection: run the selected backend;
//  6. finish: classify a tail timeout or cancellation, close the phase
//     log, attach provenance, evict stale fragment keys.
//
// Only two choices vary, and both follow from the inputs:
//
//   - Partition. Tree mode partitions by deptree package. A retained
//     state (NewIncrementalState, StatePool) partitions by require-
//     component, so an edit re-runs the gate's export pass and the
//     analysis only for the component it touches. A throwaway
//     state — a cold scan — gates and analyzes the whole package as
//     one unit: it keeps nothing, so it never hashes files, extracts
//     facts, encodes fragments or writes the store. Tree mode gates
//     the whole package as one unit too.
//   - Detection. Fragments are detected (and their results cached) one
//     by one, except in tree mode, which stitches the package
//     fragments, links the cross-package boundaries and detects once.
//
// A retained state also keeps a record of its last clean scan
// (lastScan): a re-scan whose parsed programs, options and config are
// the record's skips the partition and the gate's analysis, and in
// tree mode the stitch, link and detection too.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/deptree"
	"repro/internal/exports"
	"repro/internal/js/normalize"
	"repro/internal/js/parser"
	"repro/internal/queries"
	"repro/internal/reach"
	"repro/internal/store"
)

// scanRun carries one scan through the pipeline stages.
type scanRun struct {
	st   *IncrementalState
	opts Options
	cfgq *queries.Config
	b    *budget.Budget
	rep  *Report

	// tree is the resolved dependency tree (tree mode only).
	tree *deptree.Tree
	// units are the parsed files, in package order.
	units []fileUnit
	// rr is the reach gate's result, kept for finding provenance.
	rr *reach.Result
	// treeKey covers what the deptree resolver reads besides the
	// parsed programs (tree mode on a retained state only).
	treeKey [sha256.Size]byte
	// rec is the state's record of its last clean scan when this scan
	// reuses it (reused), or else the record this scan fills in and
	// installs if it ends clean; nil on a throwaway state.
	rec    *lastScan
	reused bool
	// fp fingerprints the sink config for detection store keys.
	fp configFP
	// aopts are the analysis options every fragment is built with;
	// callerNoFallback is the caller's NoExportFallback, since the
	// script-mode fallback is decided package-wide after analysis.
	aopts            analysis.Options
	callerNoFallback bool
	comps            []component
	// lives are the fragments joining detection, in stitch order.
	lives []liveFrag
	// aborted records that a step/node/edge cap tripped mid-analysis:
	// detection runs over the partial graph, nothing partial is cached,
	// and no stale key is evicted.
	aborted bool
}

// fileUnit is one parsed file of the package.
type fileUnit struct {
	rel string
	fe  *frontEndEntry
}

// component is one fragment to analyze: its files in package order,
// the deptree package it is (tree mode), and its cache key ("" on a
// throwaway state, which caches nothing).
type component struct {
	units []fileUnit
	pkg   *deptree.Package
	key   string
}

// liveFrag is one fragment in this scan.
type liveFrag struct {
	// fe is the fragment's entry: cached, or encoded for the stitch;
	// nil for a throwaway flat build, which keeps nothing.
	fe *fragEntry
	// res is the analysis result when the fragment was built this scan
	// (possibly partially) and its graph is still live; nil when it
	// was fetched from the cache.
	res *analysis.Result
	pkg *deptree.Package
	// hasReal records a real export in the fragment, the input of the
	// package-wide export fallback.
	hasReal bool
	// stored marks fe as living in the state's fragment cache, so its
	// detection results are cacheable too.
	stored bool
}

// scan runs the pipeline against st. A retained state's lock is held
// end to end, so concurrent scans of the same state serialize.
func (st *IncrementalState) scan(files []SourceFile, name string, opts Options, preErr error) *Report {
	st.mu.Lock()
	defer st.mu.Unlock()

	rep := &Report{Name: name, Err: preErr}
	engine, err := ParseEngine(string(opts.Engine))
	if err != nil {
		rep.Err = err
		return rep
	}
	rep.Engine = engine
	r := &scanRun{st: st, opts: opts, cfgq: queries.OrDefault(opts.Config), b: newBudget(opts, name),
		rep: rep, fp: configFP{cfg: opts.Config}}
	if r.frontEnd(files) && r.partition() && r.gate() && r.analyze() && r.detect() {
		r.finish()
	} else {
		recordPhases(rep, r.b)
	}
	if st.retained {
		st.publish()
		stats := st.stats
		rep.IncrStats = &stats
	}
	return rep
}

// frontEnd is stage 1. A parse error in one file does not doom the
// package: the first one is recorded and the rest of the package is
// still scanned.
func (r *scanRun) frontEnd(files []SourceFile) bool {
	st, rep, b := r.st, r.rep, r.b
	if st.retained {
		// Deleted files become observable now: their front-end entries
		// and facts must go, so nothing stale joins a later partition.
		keep := make(map[string]bool, len(files))
		for _, f := range files {
			keep[f.Rel] = true
		}
		st.evictFiles(keep)
	}
	b.BeginPhase("front-end")
	err := budget.Guard("front-end", func() error {
		if r.opts.Tree {
			if err := r.resolveTree(files); err != nil {
				return err
			}
		}
		for _, f := range files {
			if r.opts.Tree && !strings.HasSuffix(f.Rel, ".js") {
				continue // package.json manifests feed the resolver only
			}
			rep.LoC += countLines(f.Src)
			fe, err := st.frontEnd(f.Rel, f.Src, b)
			if err != nil {
				switch budget.ClassOf(err) {
				case budget.ClassTimeout, budget.ClassBudget, budget.ClassCanceled:
					return err // the whole package's budget is gone
				}
				if rep.Err == nil {
					rep.Err = fmt.Errorf("scanner: parse %s: %w", f.Rel, err)
					rep.Failure = budget.ClassParse
				}
				continue
			}
			r.units = append(r.units, fileUnit{f.Rel, fe})
		}
		b.CheckDeadline()
		return b.Err()
	})
	if err != nil {
		// Budget and panic errors carry their class; the one plain error
		// the stage returns is a tree-resolution failure.
		setFailure(rep, err, budget.ClassResolve)
		return false
	}
	return len(r.units) > 0
}

// resolveTree resolves the node_modules layout. A broken tree (missing
// or unusable entry) is a deterministic failure: no rung of the retry
// ladder can fix the layout on disk, so it is classified before any
// file is parsed.
func (r *scanRun) resolveTree(files []SourceFile) error {
	fmap := make(map[string]string, len(files))
	for _, f := range files {
		fmap[f.Rel] = f.Src
	}
	if r.st.retained {
		r.treeKey = treeInputsKey(files)
	}
	tree := deptree.Build(fmap)
	if probs := tree.Problems(); len(probs) > 0 {
		return fmt.Errorf("scanner: dependency tree %s: %w", r.rep.Name, errors.Join(probs...))
	}
	r.tree = tree
	r.rep.TreePackages = len(tree.Packages)
	for _, p := range tree.Packages {
		if d := strings.Count(p.Dir, "node_modules"); d > r.rep.TreeDepth {
			r.rep.TreeDepth = d
		}
	}
	return nil
}

// gate is stage 3: the whole-package reach closure, recomputed on
// every scan from the (cached) lowered programs. On a retained flat
// state its export pass runs per require-component, each component's
// unit cached under the component key, so an edit re-runs the pass
// only for the component it touched (the units merge into exactly the
// whole-package result; see exports.Unit). In tree mode bare requires
// stay opaque to the gate's export interpreter, but it remains sound:
// a dependency's reachable sink keeps the tree un-skippable through
// that dependency's own export surface.
func (r *scanRun) gate() bool {
	rep, b := r.rep, r.b
	skip := false
	b.BeginPhase("reach-gate")
	if err := budget.Guard("reach-gate", func() error {
		if r.reused {
			r.rr = r.rec.rr
			if r.tree == nil {
				r.st.stats.GateHits += len(r.comps) // every unit the record's result merged
			}
		} else {
			r.rr = r.reach()
		}
		skip = gateSkips(rep, r.rr, r.opts)
		return nil
	}); err != nil {
		// Panic-fenced like every other pass: the scan fails with a
		// classified error (retry ladders and quarantine handle it
		// uniformly) instead of silently absorbing faults in the gate.
		setFailure(rep, err, budget.ClassPanic)
		return false
	}
	if gateCanceled(rep, b) {
		return false
	}
	if (skip || r.opts.ReachGateOnly) && r.st.retained && b.Err() == nil {
		// The scan ends here, complete: the partition already knows
		// every current component key.
		r.st.evictStale(r.comps, r.tree != nil)
		r.record()
	}
	if skip {
		return false
	}
	if r.opts.ReachGateOnly {
		// Triage floor: the gate could not prove the package
		// finding-free, and the caller asked for nothing deeper. No
		// findings were established, so the report is best-effort.
		rep.Incomplete = true
		return false
	}
	return true
}

// reach runs the gate's analysis: per require-component units on a
// retained flat state (cached when their pass ran clean, with no
// budget trip), one pass over every file otherwise.
func (r *scanRun) reach() *reach.Result {
	progs := make([]*core.Program, len(r.units))
	for i, u := range r.units {
		progs[i] = u.fe.prog
	}
	st := r.st
	if r.tree != nil || !st.retained {
		return reach.AnalyzeBudget(progs, r.cfgq, r.b)
	}
	units := make([]*exports.Unit, len(r.comps))
	for i, c := range r.comps {
		if ge := st.gates[c.key]; ge != nil {
			st.stats.GateHits++
			units[i] = ge.unit
			continue
		}
		st.stats.GateMisses++
		cprogs := make([]*core.Program, len(c.units))
		rels := make([]string, len(c.units))
		for j, u := range c.units {
			cprogs[j] = u.fe.prog
			rels[j] = u.rel
		}
		units[i] = exports.AnalyzeUnit(cprogs, r.b)
		if r.b.Err() == nil {
			st.gates[c.key] = &gateEntry{rels: rels, unit: units[i]}
		}
	}
	return reach.AnalyzeUnits(progs, units, r.cfgq, r.b)
}

// partition is stage 2: it fixes the analysis options and splits the
// package into components (see the file comment for the three shapes).
// It runs before the gate, which reuses the components on a retained
// flat state.
func (r *scanRun) partition() bool {
	aopts := r.opts.Analysis
	if aopts.MaxLoopIter == 0 {
		aopts = analysis.DefaultOptions()
	}
	r.callerNoFallback = aopts.NoExportFallback
	aopts.NoExportFallback = true
	// A fragment must run the pass count the combined analysis of its
	// package would: every tree package the full cross-module fixpoint,
	// a flat package's files the multi-pass one whenever it has several.
	aopts.ForceMultiPass = aopts.ForceMultiPass || r.tree != nil || len(r.units) > 1
	aopts.Budget = r.b
	r.aopts = aopts

	r.b.BeginPhase("partition")
	err := budget.Guard("partition", func() error {
		if r.st.retained {
			in := scanInputs{aoptsKey: r.aoptsKey(), cfg: r.opts.Config, treeKey: r.treeKey}
			if last := &r.st.last; last.rr != nil && last.inputs == in && slices.Equal(last.units, r.units) {
				r.rec, r.reused, r.comps = last, true, last.comps
				return nil
			}
			r.st.last = lastScan{} // stale: never matches again
			r.rec = &lastScan{units: r.units, inputs: in}
		}
		switch {
		case r.tree != nil:
			r.comps = r.treeComponents()
		case r.st.retained:
			r.comps = r.requireComponents()
		default:
			r.comps = []component{{units: r.units}}
		}
		return nil
	})
	if err != nil {
		setFailure(r.rep, err, budget.ClassPanic)
		return false
	}
	return true
}

// aoptsKey renders the analysis options that shape a fragment, for
// its cache key.
func (r *scanRun) aoptsKey() string {
	return fmt.Sprintf("v1|%d|%t|%t", r.aopts.MaxLoopIter,
		r.aopts.TreatAllFunctionsAsExported, r.aopts.ForceMultiPass)
}

// treeComponents makes one component per deptree package, in stitch
// order (root first, then dependencies sorted by directory — so
// relative location order matches a flattened scan's file order).
func (r *scanRun) treeComponents() []component {
	byRel := make(map[string]fileUnit, len(r.units))
	for _, u := range r.units {
		byRel[u.rel] = u
	}
	var comps []component
	for _, pkg := range r.tree.Packages {
		c := component{pkg: pkg}
		for _, rel := range pkg.Files {
			if u, ok := byRel[rel]; ok { // unparseable files are already classified
				c.units = append(c.units, u)
			}
		}
		if len(c.units) == 0 {
			continue
		}
		if r.st.retained {
			c.key = treePackageKey(pkg.Dir, c.units, r.aoptsKey())
		}
		comps = append(comps, c)
	}
	return comps
}

// requireComponents partitions a flat package by its files' dependency
// facts, which live in the front-end entry (and in the store under its
// lowered program's key).
func (r *scanRun) requireComponents() []component {
	st := r.st
	aoptsKey := r.aoptsKey()
	rels := make([]string, len(r.units))
	facts := make([]*fileFacts, len(r.units))
	for i, u := range r.units {
		rels[i] = u.rel
		if u.fe.facts == nil {
			key := factsStoreKey(u.fe.key)
			ff, ok := load(st, store.KindFrontEnd, key, decodeFacts)
			if !ok {
				ff = extractFacts(u.fe.prog)
				st.save(store.KindFrontEnd, key, func() []byte { return encodeFacts(ff) })
			}
			u.fe.facts = ff
		}
		facts[i] = u.fe.facts
	}
	var comps []component
	for _, idx := range partitionComponents(rels, facts) {
		c := component{units: make([]fileUnit, len(idx))}
		for j, i := range idx {
			c.units[j] = r.units[i]
		}
		c.key = componentKey(c.units, aoptsKey)
		comps = append(comps, c)
	}
	return comps
}

// lastScan is a retained state's record of its last clean scan: the
// inputs everything below the front end derives from, and what the
// scan derived. The units (their rels and front-end entries, which
// hold the lowered programs), the analysis options and the config
// determine the partition and the gate's result; in tree mode the
// tree key adds every path and every manifest, which with the
// fragments determine the stitched, linked graph. So a scan whose
// inputs are the record's — every scan after an edit that kept each
// file's lowered program — reuses the components with their keys and
// the gate's result, and in tree mode the stitched detection under the
// same engine and export-fallback bit.
type lastScan struct {
	units  []fileUnit
	inputs scanInputs
	comps  []component
	// rr is the gate's result as a reusing scan reads it
	// (reach.Result.Retained).
	rr *reach.Result
	// treeDetect holds the stitched tree's clean detection outcomes.
	treeDetect map[detectKey]*treeDetection
}

// scanInputs is the part of a lastScan's key that is not the units.
// treeKey is zero in flat mode.
type scanInputs struct {
	aoptsKey string
	cfg      *queries.Config
	treeKey  [sha256.Size]byte
}

// treeDetection is a stitched tree's detection outcome and the size
// of the linked graph it ran on.
type treeDetection struct {
	detectResult
	nodes, edges int
}

// record installs the record this scan filled in, once it has ended
// clean: no budget trip (an aborted build is one).
func (r *scanRun) record() {
	if r.reused || r.b.Err() != nil {
		return
	}
	r.rec.comps, r.rec.rr = r.comps, r.rr.Retained()
	r.st.last = *r.rec
}

// treeInputsKey covers what deptree.Build reads that no fragment key
// does: every file's path (a package's entry and its subpaths resolve
// by file existence) and the bytes of every file that is not a .js
// module — the package.json manifests, whose main and dependencies
// steer how linkTree resolves a bare require.
func treeInputsKey(files []SourceFile) [sha256.Size]byte {
	fh := fileHashers.Get().(*fileHasher)
	defer fileHashers.Put(fh)
	fh.h.Reset()
	for _, f := range files {
		fh.write(f.Rel)
		fh.write("\x00")
		if !strings.HasSuffix(f.Rel, ".js") {
			fh.write(strconv.Itoa(len(f.Src)))
			fh.write("\x00")
			fh.write(f.Src)
		}
	}
	return fh.sum()
}

// analyze is stage 4: build or fetch each component's fragment. After
// a build the budget decides the outcome. A panic, timeout or
// cancellation ends the scan; nothing built under it is cached. A
// step/node/edge cap keeps the partial fragment for this scan's
// best-effort detection but never caches it, and only cached
// components join after it.
func (r *scanRun) analyze() bool {
	st, rep, b := r.st, r.rep, r.b
	b.BeginPhase("analysis")
	err := budget.Guard("analysis", func() error {
		for _, c := range r.comps {
			if fe := st.fragment(c.key); fe != nil {
				st.stats.FragmentHits++
				rep.MDGNodes += fe.nodes
				rep.MDGEdges += fe.edges
				r.lives = append(r.lives, liveFrag{fe: fe, pkg: c.pkg, hasReal: fe.hasReal, stored: true})
				continue
			}
			if r.aborted {
				continue
			}
			st.stats.FragmentMisses++
			progs := make([]*core.Program, len(c.units))
			for i, u := range c.units {
				progs[i] = u.fe.prog
			}
			res := analysis.AnalyzeModules(progs, r.aopts)
			rep.MDGNodes += res.Graph.NumNodes()
			rep.MDGEdges += res.Graph.NumEdges()
			b.CheckDeadline()
			berr := b.Err()
			switch budget.ClassOf(berr) {
			case budget.ClassTimeout, budget.ClassCanceled:
				return berr
			case budget.ClassBudget:
				rep.Incomplete = true
				rep.Failure = budget.ClassBudget
				r.aborted = true
			}
			r.lives = append(r.lives, r.built(c, res))
		}
		return nil
	})
	if err != nil {
		setFailure(rep, err, budget.ClassPanic)
		return false
	}
	return len(r.lives) > 0
}

// built wraps a fragment analyzed this scan. Stitching reads fragment
// records, so tree mode always encodes one, and the record is the
// package graph's last reader; a retained state also caches and
// persists the record of every clean build (one encoding serves both).
// A throwaway flat scan detects straight on res and keeps nothing.
func (r *scanRun) built(c component, res *analysis.Result) liveFrag {
	lv := liveFrag{res: res, pkg: c.pkg, hasReal: res.HasRealExports}
	cache := r.st.retained && !r.aborted
	if !cache && r.tree == nil {
		return lv
	}
	rels := make([]string, len(c.units))
	for i, u := range c.units {
		rels[i] = u.rel
	}
	enc := encodeFragEntry(rels, res)
	lv.fe = newFragEntry(c.key, enc, res.HasRealExports, res.Graph)
	if cache {
		r.st.frags[c.key] = lv.fe
		r.st.save(store.KindFragment, c.key, func() []byte { return enc })
		lv.stored = true
	}
	if r.tree != nil {
		r.release(res)
		lv.res = nil
	}
	return lv
}

// release hands a result's graph, built or rehydrated this scan, back
// to the graph pool after its last reader. Callers never release a
// graph whose build, stitch or detection panicked; a graph whose
// scan's budget tripped is dropped here.
func (r *scanRun) release(res *analysis.Result) {
	if res != nil && r.b.Err() == nil {
		res.Graph.Release()
	}
}

// detect is stage 5. The script-mode export fallback is a package-wide
// decision made here, exactly the cold rule: it applies only when no
// fragment has a real export. Fragments are then detected one by one
// (cached results served where the fragment is cached), except in tree
// mode (see detectTree).
func (r *scanRun) detect() bool {
	st, rep := r.st, r.rep
	anyReal := false
	for _, lv := range r.lives {
		anyReal = anyReal || lv.hasReal
	}
	fb := !anyReal && !r.aopts.TreatAllFunctionsAsExported && !r.callerNoFallback
	// Detection results are keyed by the caller's config pointer; a nil
	// Config means the canonical default.
	dkey := detectKey{engine: rep.Engine, fallback: fb, cfg: r.opts.Config}
	if r.tree != nil {
		return r.detectTree(dkey, anyReal)
	}

	detb := r.detectBudget()
	// Cached lookups are detection work too: the phase begins before
	// them, so a fully cached re-scan still records its detection row.
	detb.BeginPhase(firstDetectPhase(rep.Engine))
	for _, lv := range r.lives {
		if lv.stored {
			if dr := st.detection(lv.fe, dkey, &r.fp); dr != nil {
				st.stats.DetectHits++
				mergeDetectResult(rep, dr)
				r.release(lv.res) // a rebuild whose detection the store held
				continue
			}
		}
		st.stats.DetectMisses++
		res := lv.res
		if res == nil {
			var err error
			if res, err = rehydrate(lv.fe); err != nil {
				setFailure(rep, err, budget.ClassPanic)
				return false
			}
		}
		if fb {
			analysis.ApplyExportFallback(res)
		}
		dr, ok := r.detectOne(res, detb)
		if lv.stored && ok {
			lv.fe.detect[dkey] = dr
			if fp, ok := r.fp.get(); ok {
				st.save(store.KindDetect, detectStoreKey(lv.fe.key, dkey.engine, dkey.fallback, fp),
					func() []byte { body, _ := encodeDetectResult(dr); return body })
			}
		}
	}
	return true
}

// detectTree detects a dependency tree: findings can span packages, so
// the fragments are stitched, the cross-package boundaries linked, and
// the one graph detected. A scan that reused the state's record serves
// the record's outcome for the same engine and fallback bit instead
// (one detection hit, no stitch-link row); otherwise the stitched
// detection is one miss, and a clean outcome joins the record.
func (r *scanRun) detectTree(dkey detectKey, anyReal bool) bool {
	st, rep := r.st, r.rep
	detb := r.detectBudget()
	if r.rec != nil && !r.aborted {
		if td := r.rec.treeDetect[dkey]; td != nil {
			detb.BeginPhase(firstDetectPhase(rep.Engine))
			st.stats.DetectHits++
			mergeDetectResult(rep, &td.detectResult)
			rep.MDGNodes, rep.MDGEdges = td.nodes, td.edges
			return true
		}
	}
	st.stats.DetectMisses++
	var res *analysis.Result
	r.b.BeginPhase("stitch-link")
	if err := budget.Guard("stitch-link", func() (err error) {
		res, err = linkTree(r.lives, r.tree, anyReal)
		return err
	}); err != nil {
		setFailure(rep, err, budget.ClassPanic)
		return false
	}
	rep.MDGNodes = res.Graph.NumNodes()
	rep.MDGEdges = res.Graph.NumEdges()
	if dkey.fallback {
		analysis.ApplyExportFallback(res)
	}
	detb.BeginPhase(firstDetectPhase(rep.Engine))
	dr, ok := r.detectOne(res, detb)
	if r.rec != nil && ok && !r.aborted {
		if r.rec.treeDetect == nil {
			r.rec.treeDetect = make(map[detectKey]*treeDetection)
		}
		r.rec.treeDetect[dkey] = &treeDetection{detectResult: *dr, nodes: rep.MDGNodes, edges: rep.MDGEdges}
	}
	return true
}

// detectBudget is the budget detection runs under: after a cap tripped
// mid-analysis, only the deadline still binds, so the partial graph is
// still detected.
func (r *scanRun) detectBudget() *budget.Budget {
	if r.aborted {
		return r.b.DeadlineOnly()
	}
	return r.b
}

// detectOne runs the selected backend over res, merges the outcome
// into the report and releases the graph (unless detection panicked).
// ok reports a complete outcome, which may be cached.
func (r *scanRun) detectOne(res *analysis.Result, detb *budget.Budget) (dr *detectResult, ok bool) {
	scratch := &Report{Name: r.rep.Name, Engine: r.rep.Engine}
	detectInto(scratch, res, r.cfgq, r.rep.Engine, detb)
	mergeScratch(r.rep, scratch)
	if scratch.Failure != budget.ClassPanic {
		r.release(res)
	}
	dr = &detectResult{
		findings:  scratch.Findings,
		truncated: scratch.TruncatedSearches,
		err:       scratch.Err,
		failure:   scratch.Failure,
	}
	return dr, detb.Err() == nil && !scratch.Incomplete
}

// firstDetectPhase names the phase an engine's detection begins in:
// differential runs the query backend first.
func firstDetectPhase(engine Engine) string {
	if engine == EngineNative {
		return PhaseDetectNative
	}
	return PhaseDetectQuery
}

// finish is stage 6.
func (r *scanRun) finish() {
	rep, b := r.rep, r.b
	// The wall clock (or the client) may have run out during the last
	// detection pass; classify that while its phase is still current.
	b.CheckDeadline()
	// A cap that tripped earlier keeps its class: the first failure
	// names how the scan ended.
	if class := budget.ClassOf(b.Err()); class == budget.ClassTimeout || class == budget.ClassCanceled {
		rep.Incomplete = true
		if rep.Failure == budget.ClassNone {
			rep.Failure = class
		}
	}
	recordPhases(rep, b)

	// Provenance is recomputed from this scan's whole-package gate
	// result; the merge paths append finding copies, so annotating here
	// can never corrupt cached detection entries.
	rep.Findings = queries.SortFindings(rep.Findings)
	if r.tree != nil {
		annotateTreeProvenance(rep, r.rr, r.tree)
	} else {
		annotateProvenance(rep, r.rr)
	}
	if r.st.retained && !r.aborted {
		r.st.evictStale(r.comps, r.tree != nil)
		r.record()
	}
}

// mergeDetectResult folds a cached detection outcome into the report.
func mergeDetectResult(rep *Report, dr *detectResult) {
	mergeScratch(rep, &Report{Findings: dr.findings, TruncatedSearches: dr.truncated,
		Err: dr.err, Failure: dr.failure})
}

// mergeScratch folds one detection unit's report into the package
// report. The first error and failure class win.
func mergeScratch(rep, scratch *Report) {
	rep.Findings = append(rep.Findings, scratch.Findings...)
	rep.TruncatedSearches += scratch.TruncatedSearches
	rep.Incomplete = rep.Incomplete || scratch.Incomplete
	if scratch.Err != nil && rep.Err == nil {
		rep.Err = scratch.Err
	}
	if scratch.Failure != budget.ClassNone && rep.Failure == budget.ClassNone {
		rep.Failure = scratch.Failure
	}
}

// frontEndEntry is one file's front end: the lowered program and, in a
// retained state, two keys. hash (sha256 over path and source) is the
// fast path: unchanged bytes are not parsed again. key is the lowered
// program's canonical key (core.Key), which keys everything built from
// the file below the front end — its facts, and the gate units,
// fragments and detection results of its component — so an edit that
// leaves the program unchanged keeps every one of them. coreStmts
// sizes a stored entry for the state pool's byte estimate. facts are
// the file's dependency facts, filled by the first partition that
// needs them.
type frontEndEntry struct {
	hash      [sha256.Size]byte
	key       [sha256.Size]byte
	prog      *core.Program
	coreStmts int
	facts     *fileFacts
}

// frontEnd parses and lowers one file, memoized in a retained state.
// rel is the module-relative name used for require resolution. A file
// whose bytes changed is parsed; when its lowered program is the one
// the state already holds for rel (a comment or whitespace edit), the
// state keeps that entry, program and facts alike, and only takes the
// new byte hash. The scan budget b is charged for parser and
// normalizer work; an entry built while the budget was tripping may be
// truncated, so it is returned but never stored. Callers hold st.mu.
func (st *IncrementalState) frontEnd(rel, src string, b *budget.Budget) (*frontEndEntry, error) {
	var h [sha256.Size]byte
	old := st.files[rel]
	if st.retained {
		h = fileHash(rel, src)
		if old != nil && old.hash == h {
			st.stats.FrontEndHits++
			return old, nil
		}
		st.stats.FrontEndMisses++
	}
	prog, err := parser.ParseBudget(src, b)
	if err != nil {
		return nil, err
	}
	e := &frontEndEntry{hash: h, prog: normalize.NormalizeBudget(prog, rel, b)}
	if !st.retained || b.Err() != nil {
		return e, nil
	}
	e.key = core.Key(e.prog)
	if old != nil && old.key == e.key {
		old.hash = h
		return old, nil
	}
	e.coreStmts = core.CountStmts(e.prog.Body)
	st.files[rel] = e
	return e, nil
}

// fileHasher streams strings into sha256 through a fixed buffer, so
// hashing a source never copies it whole.
type fileHasher struct {
	h   hash.Hash
	buf [4096]byte
	out [sha256.Size]byte
}

var fileHashers = sync.Pool{New: func() any { return &fileHasher{h: sha256.New()} }}

func (fh *fileHasher) write(s string) {
	for len(s) > 0 {
		n := copy(fh.buf[:], s)
		fh.h.Write(fh.buf[:n])
		s = s[n:]
	}
}

func (fh *fileHasher) sum() [sha256.Size]byte {
	fh.h.Sum(fh.out[:0])
	return fh.out
}

// fileHash is a file's byte hash, sha256 over rel, a NUL and src.
func fileHash(rel, src string) [sha256.Size]byte {
	fh := fileHashers.Get().(*fileHasher)
	defer fileHashers.Put(fh)
	fh.h.Reset()
	fh.write(rel)
	fh.write("\x00")
	fh.write(src)
	return fh.sum()
}

func countLines(src string) int {
	return strings.Count(src, "\n") + 1
}
