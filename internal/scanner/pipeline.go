package scanner

// The scan pipeline. Every entry point — ScanSource, ScanFile,
// ScanPackage, ScanFiles and ScanTreeDir, cold or warm, flat or tree —
// runs the same stages, each written once below inside one phase and
// one panic guard:
//
//  1. front end: parse, normalize and build the CFGs of every file
//     (tree mode first resolves the node_modules layout);
//  2. reach gate: the export-graph pre-pass, which may prove the
//     package finding-free (or, under ReachGateOnly, end the scan);
//  3. partition: split the package into separately analyzed fragments;
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
//     component, so an edit re-analyzes only what it touches. A
//     throwaway state — a cold scan — analyzes the whole package as one
//     fragment: it keeps nothing, so it never hashes files, extracts
//     facts, snapshots fragments or writes the store.
//   - Detection. Fragments are detected (and their results cached) one
//     by one, except in tree mode, which stitches the package
//     fragments, links the cross-package boundaries and detects once.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/budget"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/deptree"
	"repro/internal/js/ast"
	"repro/internal/js/normalize"
	"repro/internal/js/parser"
	"repro/internal/mdg"
	"repro/internal/queries"
	"repro/internal/reach"
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
	fe *fragEntry
	// res is the analysis result when the fragment was built this scan
	// (possibly partially); nil when it was fetched from the cache.
	res *analysis.Result
	pkg *deptree.Package
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
	r := &scanRun{st: st, opts: opts, cfgq: opts.Config, b: newBudget(opts, name), rep: rep}
	if r.cfgq == nil {
		r.cfgq = queries.DefaultConfig()
	}
	if r.frontEnd(files) && r.gate() && r.partition() && r.analyze() && r.detect() {
		r.finish()
	} else {
		recordPhases(rep, r.b)
	}
	if st.retained {
		rep.IncrStats = st.statsPtr()
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
			rep.ASTNodes += fe.astNodes
			rep.CoreStmts += fe.coreStmts
			rep.CFGNodes += fe.cfgNodes
			rep.CFGEdges += fe.cfgEdges
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

// gate is stage 2: the whole-package reach closure. It is cheap and
// cross-file, so it is recomputed from the (cached) lowered programs
// on every scan. In tree mode bare requires stay opaque to the gate's
// export interpreter, but it remains sound: a dependency's reachable
// sink keeps the tree un-skippable through that dependency's own
// export surface.
func (r *scanRun) gate() bool {
	rep, b := r.rep, r.b
	progs := make([]*core.Program, len(r.units))
	for i, u := range r.units {
		progs[i] = u.fe.prog
	}
	skip := false
	b.BeginPhase("reach-gate")
	if err := budget.Guard("reach-gate", func() error {
		r.rr, skip = gateSkips(rep, progs, r.cfgq, r.opts, b)
		return nil
	}); err != nil {
		// Panic-fenced like every other pass: the scan fails with a
		// classified error (retry ladders and quarantine handle it
		// uniformly) instead of silently absorbing faults in the gate.
		setFailure(rep, err, budget.ClassPanic)
		return false
	}
	if gateCanceled(rep, b) || skip {
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

// partition is stage 3: it fixes the analysis options and splits the
// package into components (see the file comment for the three shapes).
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
// facts (cached per content hash, in memory and in the store).
func (r *scanRun) requireComponents() []component {
	st := r.st
	rels := make([]string, len(r.units))
	facts := make([]*fileFacts, len(r.units))
	for i, u := range r.units {
		rels[i] = u.rel
		fe := st.facts[u.rel]
		if fe == nil || fe.hash != u.fe.hash {
			ff, fromStore := st.loadFacts(u.fe.hash)
			if !fromStore {
				ff = extractFacts(u.fe.prog)
				st.saveFacts(u.fe.hash, ff)
			}
			fe = &factsEntry{hash: u.fe.hash, facts: ff}
			st.facts[u.rel] = fe
		}
		facts[i] = fe.facts
	}
	aoptsKey := r.aoptsKey()
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
				rep.MDGNodes += fe.frag.NumNodes()
				rep.MDGEdges += fe.frag.NumEdges()
				r.lives = append(r.lives, liveFrag{fe: fe, pkg: c.pkg, stored: true})
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

// built wraps a fragment analyzed this scan. Stitching needs a graph
// snapshot, so tree mode always takes one; a retained state also
// snapshots, caches and persists every clean build. A throwaway flat
// scan detects straight on res and keeps nothing.
func (r *scanRun) built(c component, res *analysis.Result) liveFrag {
	rels := make([]string, len(c.units))
	for i, u := range c.units {
		rels[i] = u.rel
	}
	lv := liveFrag{res: res, pkg: c.pkg}
	cache := r.st.retained && !r.aborted
	if cache || r.tree != nil {
		lv.fe = newFragEntry(c.key, rels, res)
	} else {
		lv.fe = partialFragEntry(c.key, rels, res)
	}
	if cache {
		r.st.frags[c.key] = lv.fe
		r.st.saveFrag(lv.fe)
		lv.stored = true
	}
	return lv
}

// detect is stage 5. The script-mode export fallback is a package-wide
// decision made here, exactly the cold rule: it applies only when no
// fragment has a real export. Fragments are then detected one by one
// (cached results served where the fragment is cached), except in tree
// mode: findings can span packages there, so the fragments are
// stitched, linked and detected as one graph.
func (r *scanRun) detect() bool {
	st, rep := r.st, r.rep
	anyReal := false
	for _, lv := range r.lives {
		anyReal = anyReal || lv.fe.hasReal
	}
	fb := !anyReal && !r.aopts.TreatAllFunctionsAsExported && !r.callerNoFallback

	lives := r.lives
	if r.tree != nil {
		var res *analysis.Result
		r.b.BeginPhase("stitch-link")
		if err := budget.Guard("stitch-link", func() error {
			frags := make([]*mdg.Fragment, len(r.lives))
			for i, lv := range r.lives {
				frags[i] = lv.fe.frag
			}
			g, remaps := mdg.Stitch(frags...)
			res = linkTree(g, remaps, r.lives, r.tree, anyReal)
			return nil
		}); err != nil {
			setFailure(rep, err, budget.ClassPanic)
			return false
		}
		rep.MDGNodes = res.Graph.NumNodes()
		rep.MDGEdges = res.Graph.NumEdges()
		lives = []liveFrag{{res: res}}
	}

	detb := r.b
	if r.aborted {
		detb = r.b.DeadlineOnly()
	}
	// Detection results are keyed by the caller's config pointer; a nil
	// Config means the canonical default (DefaultConfig allocates per
	// call, so keying on cfgq would never hit).
	dkey := detectKey{engine: rep.Engine, fallback: fb, cfg: r.opts.Config}
	for _, lv := range lives {
		if lv.stored {
			if dr := st.detection(lv.fe, dkey); dr != nil {
				st.stats.DetectHits++
				mergeCachedDetect(rep, dr)
				continue
			}
		}
		if lv.fe != nil { // a fragment, not tree mode's stitched graph
			st.stats.DetectMisses++
		}
		res := lv.res
		if res == nil {
			res = rehydrate(lv.fe)
		}
		if fb {
			analysis.ApplyExportFallback(res)
		}
		scratch := &Report{Name: rep.Name, Engine: rep.Engine}
		detectInto(scratch, res, r.cfgq, rep.Engine, detb)
		mergeScratch(rep, scratch)
		if lv.stored && detb.Err() == nil && !scratch.Incomplete && !scratch.TimedOut {
			dr := &detectResult{
				findings:    scratch.Findings,
				truncated:   scratch.TruncatedSearches,
				fellBack:    scratch.FellBack,
				fallbackErr: scratch.FallbackErr,
				err:         scratch.Err,
				failure:     scratch.Failure,
			}
			lv.fe.detect[dkey] = dr
			st.saveDetect(lv.fe.key, dkey, dr)
		}
	}
	return true
}

// finish is stage 6.
func (r *scanRun) finish() {
	rep, b := r.rep, r.b
	// The wall clock (or the client) may have run out during the last
	// detection pass; classify that while its phase is still current.
	b.CheckDeadline()
	switch budget.ClassOf(b.Err()) {
	case budget.ClassTimeout:
		rep.TimedOut = true
		rep.Incomplete = true
		if rep.Failure == budget.ClassNone {
			rep.Failure = budget.ClassTimeout
		}
	case budget.ClassCanceled:
		rep.Incomplete = true
		if rep.Failure == budget.ClassNone {
			rep.Failure = budget.ClassCanceled
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
	}
}

// mergeCachedDetect folds a cached detection result into the report.
func mergeCachedDetect(rep *Report, dr *detectResult) {
	mergeScratch(rep, &Report{
		Findings:          dr.findings,
		TruncatedSearches: dr.truncated,
		FellBack:          dr.fellBack,
		FallbackErr:       dr.fallbackErr,
		Err:               dr.err,
		Failure:           dr.failure,
	})
}

// mergeScratch folds one detection unit's report into the package
// report. The first error and failure class win.
func mergeScratch(rep, scratch *Report) {
	rep.Findings = append(rep.Findings, scratch.Findings...)
	rep.TruncatedSearches += scratch.TruncatedSearches
	rep.Incomplete = rep.Incomplete || scratch.Incomplete
	rep.TimedOut = rep.TimedOut || scratch.TimedOut
	if scratch.FellBack {
		rep.FellBack = true
		if rep.FallbackErr == nil {
			rep.FallbackErr = scratch.FallbackErr
		}
	}
	if scratch.Err != nil && rep.Err == nil {
		rep.Err = scratch.Err
	}
	if scratch.Failure != budget.ClassNone && rep.Failure == budget.ClassNone {
		rep.Failure = scratch.Failure
	}
}

// frontEndEntry is one file's front end: the lowered program plus its
// Table 7 size metrics, keyed (in a retained state) by a content hash
// over path and source.
type frontEndEntry struct {
	hash [sha256.Size]byte

	prog      *core.Program
	astNodes  int
	cfgNodes  int
	cfgEdges  int
	coreStmts int
}

// frontEnd parses and lowers one file, memoized in a retained state.
// rel is the module-relative name used for require resolution. The
// scan budget b is charged for parser and normalizer work; an entry
// built while the budget was tripping may be truncated, so it is
// returned but never stored. Callers hold st.mu.
func (st *IncrementalState) frontEnd(rel, src string, b *budget.Budget) (*frontEndEntry, error) {
	var h [sha256.Size]byte
	if st.retained {
		h = sha256.Sum256([]byte(rel + "\x00" + src))
		if e, ok := st.files[rel]; ok && e.hash == h {
			st.stats.FrontEndHits++
			return e, nil
		}
		st.stats.FrontEndMisses++
	}
	prog, err := parser.ParseBudget(src, b)
	if err != nil {
		return nil, err
	}
	nprog := normalize.NormalizeBudget(prog, rel, b)
	cn, ce := cfg.TotalSize(cfg.BuildAll(nprog))
	e := &frontEndEntry{
		hash:      h,
		prog:      nprog,
		astNodes:  ast.Count(prog),
		cfgNodes:  cn,
		cfgEdges:  ce,
		coreStmts: core.CountStmts(nprog.Body),
	}
	if st.retained && b.Err() == nil {
		st.files[rel] = e
	}
	return e, nil
}

func countLines(src string) int {
	return strings.Count(src, "\n") + 1
}
