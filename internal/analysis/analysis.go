// Package analysis implements the paper's abstract analysis 𝒜(s, ĝ, ρ̂)
// (§3.2): a forward abstract interpreter over Core JavaScript that
// builds the program's Multiversion Dependency Graph. Loops and
// recursive calls are handled with a summary fixed-point representation
// — allocation is site-keyed, so repeated iterations reuse abstract
// locations and the finite MDG/store lattices guarantee convergence.
package analysis

import (
	"slices"
	"sort"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/mdg"
)

// Options tunes the analyzer.
type Options struct {
	// MaxLoopIter caps fixpoint iterations per loop (safety net; the
	// lattices are finite so convergence normally happens in 2-4).
	MaxLoopIter int
	// TreatAllFunctionsAsExported seeds taint on every function's
	// parameters instead of only exported ones.
	TreatAllFunctionsAsExported bool
	// NoExportFallback suppresses the script attack model (when no
	// function anywhere is exported, treat every top-level function as
	// reachable). The scanner's incremental mode analyzes a package one
	// require-component at a time, so the "is anything exported?"
	// question is only answerable across components: each fragment is
	// built with the fallback off and HasRealExports recorded, and the
	// package-wide fallback decision is applied afterwards with
	// ApplyExportFallback / RemoveExportFallback.
	NoExportFallback bool
	// ForceMultiPass runs the cross-module fixpoint (up to three
	// passes) even for a single program. A single-file component of a
	// multi-file package must behave exactly like that file inside the
	// combined multi-pass analysis — e.g. a call before the callee's
	// definition links on the second pass — so the pass count depends
	// on the package, not the fragment.
	ForceMultiPass bool
	// Budget, when set, is the scan-wide fault-containment budget:
	// every abstract step charges it (and MDG construction charges its
	// node/edge caps via Graph.SetBudget), so a deadline or cap hit
	// anywhere in the pipeline aborts the analysis cooperatively. The
	// Budget records *why* it tripped (Budget.Err), letting the scanner
	// classify the outcome and keep the partial MDG.
	Budget *budget.Budget
}

// DefaultOptions are the options used by the scanner.
func DefaultOptions() Options {
	return Options{MaxLoopIter: 30}
}

// Result is the outcome of analyzing one program.
type Result struct {
	// Graph comes from mdg.Acquire; the caller owns it and may Release
	// it once nothing reads it any more.
	Graph *mdg.Graph
	// Calls lists all call nodes in creation order.
	Calls []mdg.Loc
	// Sources lists all taint-source locations (parameters of exported
	// functions).
	Sources []mdg.Loc
	// Functions maps unique function names to their summaries.
	Functions map[string]*FuncSummary
	// Root is the final top-level abstract store: the last analyzed
	// module's bindings over the global ones.
	Root *Bindings
	// HasRealExports reports that export marking found at least one
	// function genuinely reachable from module.exports/exports —
	// i.e. the script-mode fallback (everything exported) did not or
	// would not apply. The incremental scanner combines this bit
	// across fragments to make the package-wide fallback decision.
	HasRealExports bool
	// FallbackApplied reports that the script-mode fallback is
	// currently in effect on this result (every function marked
	// exported because none was really exported).
	FallbackApplied bool

	// Externals maps each unresolved require specifier to the
	// synthetic placeholder module node allocated for it. The tree
	// scanner's cross-package linker replaces these placeholders'
	// flows with the real dependency's exports after stitching.
	Externals map[string]mdg.Loc
	// CalleeLocs and CallThis record, per call node, the abstract
	// callee and `this` value sets the interpreter observed (only for
	// calls that reached summary linking — require() and built-in
	// models are excluded, matching what a combined whole-program
	// analysis would link). The tree linker uses them to wire
	// cross-package calls to dependency function summaries.
	CalleeLocs map[mdg.Loc][]mdg.Loc
	CallThis   map[mdg.Loc][]mdg.Loc
	// ModuleEnv maps each module file to its CommonJS globals, so the
	// linker can read a dependency's module.exports after stitching.
	ModuleEnv map[string]ModuleLocs
}

// Bindings is a read-only view of a top-level abstract store.
type Bindings struct {
	module  *frame
	slots   []string // the module frame's slot names
	global  *frame
	globals []string // the global frame's slot names
}

// Get returns the locations bound to name (nil when unbound).
func (b *Bindings) Get(name string) []mdg.Loc {
	if b.module != nil {
		if s := slices.Index(b.slots, name); s >= 0 {
			if ls := b.module.at(int32(s)); ls != nil {
				return nonEmpty(ls)
			}
		}
	}
	if rs := slices.Index(b.globals, name); rs >= 0 {
		return nonEmpty(b.global.at(int32(rs)))
	}
	return nil
}

func nonEmpty(ls []mdg.Loc) []mdg.Loc {
	if len(ls) == 0 {
		return nil
	}
	return ls
}

// ModuleLocs is one module's CommonJS globals (see Result.ModuleEnv).
type ModuleLocs struct {
	Module  mdg.Loc
	Exports mdg.Loc
}

// FuncSummary is the per-function summary used for call linking.
type FuncSummary struct {
	Def      *core.FuncDef
	Loc      mdg.Loc   // function value node
	Params   []mdg.Loc // parameter object nodes
	ThisLoc  mdg.Loc
	RetLoc   mdg.Loc
	Exported bool
}

// budgetExhausted signals that the step budget ran out; recovered at the
// top level of Analyze.
type budgetExhausted struct{}

type analyzer struct {
	g    *mdg.Graph
	opts Options
	// fnByID holds the latest summary of each qualified function name
	// (qnames[id]); locFn maps a function node to its name id + 1.
	fnByID []*FuncSummary
	qnames []string
	locFn  []int32
	calls  []mdg.Loc
	isCall []bool // by Loc: already in calls
	// fnStack tracks the summaries of functions whose bodies are being
	// analyzed (innermost last), for return-edge wiring.
	fnStack []*FuncSummary

	// The global frame's slot of each name id (-1: not bound there
	// yet), and the next free one; the global object of each name id.
	rootSlot  []int32
	nextRoot  int32
	globalLoc []mdg.Loc

	// Multi-module state: per-file CommonJS globals, the set of known
	// module files for require resolution, and the per-module site
	// offset that keeps allocation keys distinct across files.
	curFile  string
	modules  map[string]moduleGlobals
	files    []string // the module files, sorted, for core.ResolveRequire
	siteBase int

	// Cross-package linker side tables (see Result).
	externals  map[string]mdg.Loc
	calleeLocs map[mdg.Loc][]mdg.Loc
	callThis   map[mdg.Loc][]mdg.Loc

	// one caches a shared single-location binding per location,
	// carved from oneChunk.
	one      [][]mdg.Loc
	oneChunk []mdg.Loc
	// copies, copyChunk, copyOff: the stack of chain copies.
	copies    []copyChunk
	copyChunk int
	copyOff   int
	// argBuf is call's reusable argument-location buffer.
	argBuf [][]mdg.Loc
	// mark/epoch: a reusable location set (see markBegin).
	mark  []uint32
	epoch uint32

	// frames, vals and envs carve function frames, their bindings
	// arrays and chains (see funcEnv and frame.cloneVals).
	frames slab[frame]
	vals   slab[[]mdg.Loc]
	envs   slab[*frame]

	// lw lowers the package before interpretation.
	lw lowerer
}

// moduleGlobals holds one module's CommonJS objects.
type moduleGlobals struct {
	moduleLoc  mdg.Loc
	exportsLoc mdg.Loc
}

// Analyze builds the MDG for a single normalized program.
func Analyze(prog *core.Program, opts Options) *Result {
	return AnalyzeModules([]*core.Program{prog}, opts)
}

// AnalyzeModules builds one combined MDG for a multi-file package. Each
// program is a CommonJS module with its own module/exports objects and
// module-scoped variables; require('./relative') calls resolve to the
// exports object of the matching sibling module, connecting cross-file
// flows. Allocation keys are offset per module so identical statement
// indices in different files stay distinct.
func AnalyzeModules(progs []*core.Program, opts Options) *Result {
	if opts.MaxLoopIter <= 0 {
		opts.MaxLoopIter = 30
	}
	a := analyzerPool.Get().(*analyzer)
	a.g = mdg.Acquire()
	a.opts = opts
	a.externals = make(map[string]mdg.Loc)
	a.calleeLocs = make(map[mdg.Loc][]mdg.Loc)
	a.callThis = make(map[mdg.Loc][]mdg.Loc)
	a.g.SetBudget(opts.Budget)
	res := &Result{Graph: a.g}
	// Pre-create every module's CommonJS globals so require() calls
	// resolve regardless of analysis order.
	for _, prog := range progs {
		a.setupModule(prog.FileName)
	}
	for file := range a.modules {
		a.files = append(a.files, file)
	}
	slices.Sort(a.files)
	lw := &a.lw
	mods := make([]*moduleOp, len(progs))
	for i, prog := range progs {
		a.curFile = prog.FileName
		mods[i] = lw.module(prog)
	}
	a.rootSlot = slices.Grow(a.rootSlot, len(lw.infos))[:len(lw.infos)]
	for i := range a.rootSlot {
		a.rootSlot[i] = -1
	}
	a.globalLoc = zeroed(slices.Grow(a.globalLoc, len(lw.infos))[:len(lw.infos)])
	a.fnByID = zeroed(slices.Grow(a.fnByID, len(a.qnames))[:len(a.qnames)])
	global := newFrame(0)
	res.Root = &Bindings{global: global}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(budgetExhausted); ok {
					return
				}
				panic(r) //lint:allow nakedpanic -- re-raises foreign panics for the scanner's phase guard
			}
		}()
		// Cross-module fixpoint: a require('./m') resolves through the
		// current graph, so modules are re-analyzed until no new edges
		// appear (allocation is deterministic, the graph monotone — a
		// second pass only adds newly resolvable cross-module edges).
		maxPasses := 3
		if len(progs) == 1 && !opts.ForceMultiPass {
			maxPasses = 1
		}
		for pass := 0; pass < maxPasses; pass++ {
			snap := a.g.Snap()
			base := 0
			for _, m := range mods {
				a.curFile = m.prog.FileName
				a.siteBase = base
				base += m.prog.MaxIndex + 1
				a.g.SetCurrentFile(m.prog.FileName)
				mf := newFrame(len(m.names))
				mg := a.modules[m.prog.FileName]
				mf.put(m.moduleSlot, a.single(mg.moduleLoc))
				mf.put(m.exportsSlot, a.single(mg.exportsLoc))
				a.block(m.body, env{global, mf})
				res.Root.module, res.Root.slots = mf, m.names
			}
			if a.g.Snap() == snap {
				break
			}
		}
	}()
	res.Root.globals = make([]string, a.nextRoot)
	for id, rs := range a.rootSlot {
		if rs >= 0 {
			res.Root.globals[rs] = lw.infos[id].name
		}
	}
	res.Functions = make(map[string]*FuncSummary, len(a.fnByID))
	for id, fn := range a.fnByID {
		if fn != nil {
			res.Functions[a.qnames[id]] = fn
		}
	}
	res.HasRealExports = a.markExported(res.Functions)
	if !res.HasRealExports && !opts.NoExportFallback {
		applyFallback(res)
	}
	res.Calls = a.calls
	res.Externals = a.externals
	res.CalleeLocs = a.calleeLocs
	res.CallThis = a.callThis
	res.ModuleEnv = make(map[string]ModuleLocs, len(a.modules))
	for file, mg := range a.modules {
		res.ModuleEnv[file] = ModuleLocs{Module: mg.moduleLoc, Exports: mg.exportsLoc}
	}
	recomputeSources(res, opts.TreatAllFunctionsAsExported)
	a.recycle()
	return res
}

// applyFallback marks every function exported — the script attack
// model used when nothing in the package is really exported.
func applyFallback(res *Result) {
	for _, fn := range res.Functions {
		fn.Exported = true
		if n := res.Graph.Node(fn.Loc); n != nil {
			n.Exported = true
		}
	}
	res.FallbackApplied = true
}

// recomputeSources rebuilds Result.Sources (and the Source flag on
// parameter nodes) from the current export marks, in deterministic
// location order.
func recomputeSources(res *Result, allExported bool) {
	for _, n := range res.Graph.NodesOfKind(mdg.KindParam) {
		n.Source = false
	}
	res.Sources = res.Sources[:0]
	for _, fn := range res.Functions {
		if fn.Exported || allExported {
			res.Sources = append(res.Sources, fn.Params...)
		}
	}
	sort.Slice(res.Sources, func(i, j int) bool { return res.Sources[i] < res.Sources[j] })
	for _, l := range res.Sources {
		if n := res.Graph.Node(l); n != nil {
			n.Source = true
		}
	}
}

// ApplyExportFallback puts a fragment built with NoExportFallback into
// the script attack model: every function becomes exported and the
// source set is rebuilt. No-op if the fallback is already in effect.
// It must only be called on results without real exports — exactly the
// case where the combined package-wide analysis would have fallen back.
func ApplyExportFallback(res *Result) {
	if res.FallbackApplied {
		return
	}
	applyFallback(res)
	recomputeSources(res, false)
}

// setupModule creates (or returns) the CommonJS globals of one module.
func (a *analyzer) setupModule(file string) moduleGlobals {
	if mg, ok := a.modules[file]; ok {
		return mg
	}
	mg := moduleGlobals{
		moduleLoc:  a.g.Alloc(mdg.RoleGlobal, 0, 0, "module:"+file, mdg.KindObject, "module", 0),
		exportsLoc: a.g.Alloc(mdg.RoleGlobal, 0, 0, "exports:"+file, mdg.KindObject, "exports", 0),
	}
	a.g.AddEdge(mdg.Edge{From: mg.moduleLoc, To: mg.exportsLoc, Type: mdg.Prop, Prop: "exports"})
	a.modules[file] = mg
	return mg
}

// site offsets a statement index by the current module's base so
// allocation keys stay distinct across files.
func (a *analyzer) site(idx int) int {
	if idx == 0 {
		return 0
	}
	return idx + a.siteBase
}

func (a *analyzer) tick() {
	if a.opts.Budget.Step() != nil {
		panic(budgetExhausted{}) //lint:allow nakedpanic -- budgetExhausted is recovered by Run's local fence
	}
}

// alloc is Graph.Alloc (origin NoLoc) through a per-op cache: the key
// is the same every time the op runs, so after the first allocation
// the cached location is the graph's answer.
func (a *analyzer) alloc(cache *mdg.Loc, role mdg.Role, site int, prop string, kind mdg.NodeKind, label string, line int) mdg.Loc {
	if *cache == mdg.NoLoc {
		*cache = a.g.Alloc(role, site, 0, prop, kind, label, line)
	}
	return *cache
}

// single returns the shared one-location binding {l}.
func (a *analyzer) single(l mdg.Loc) []mdg.Loc {
	if int(l) >= len(a.one) {
		a.one = append(a.one, make([][]mdg.Loc, int(l)+1-len(a.one)+64)...)
	}
	if a.one[l] == nil {
		if len(a.oneChunk) == cap(a.oneChunk) {
			a.oneChunk = make([]mdg.Loc, 0, min(max(2*cap(a.oneChunk), 16), 256))
		}
		n := len(a.oneChunk)
		a.oneChunk = append(a.oneChunk, l)
		a.one[l] = a.oneChunk[n : n+1 : n+1]
	}
	return a.one[l]
}

// ---------------------------------------------------------------------------
// Expression evaluation ⟦e⟧ρ̂
// ---------------------------------------------------------------------------

// eval returns the abstract locations denoted by o. site disambiguates
// literal allocation. The result may be a store binding: callers never
// mutate it.
func (a *analyzer) eval(o operand, e env, site, line int) []mdg.Loc {
	if v := o.v; v != nil {
		if ls := a.get(e, v); len(ls) > 0 {
			return ls
		}
		// Unknown global: lazily allocate a shared object for it so
		// property accesses and calls through it remain connected.
		ls := a.single(a.alloc(&a.globalLoc[v.id], mdg.RoleGlobal, 0, v.name, mdg.KindObject, v.name, line))
		a.setGlobal(e, v.id, ls)
		return ls
	}
	if o.lit != nil {
		return a.single(a.alloc(&o.lit.loc, mdg.RoleLit, a.site(site), o.lit.key, mdg.KindLiteral, o.lit.label, line))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Statement analysis
// ---------------------------------------------------------------------------

func (a *analyzer) block(ops []op, e env) {
	for i := range ops {
		a.stmt(&ops[i], e)
	}
}

func (a *analyzer) stmt(o *op, e env) {
	a.tick()
	switch o.kind {
	case opAssign:
		a.set(e, o.x, a.eval(o.a, e, o.idx, o.ln))

	case opBinOp: // [ASSIGN-OP]
		l := a.alloc(&o.loc, mdg.RoleBin, a.site(o.idx), "", mdg.KindObject, o.x.name, o.ln)
		for _, src := range a.eval(o.a, e, o.idx, o.ln) {
			a.g.AddDep(src, l)
		}
		for _, src := range a.eval(o.b, e, o.idx, o.ln) {
			a.g.AddDep(src, l)
		}
		a.set(e, o.x, a.single(l))

	case opUnOp:
		l := a.alloc(&o.loc, mdg.RoleUn, a.site(o.idx), "", mdg.KindObject, o.x.name, o.ln)
		for _, src := range a.eval(o.a, e, o.idx, o.ln) {
			a.g.AddDep(src, l)
		}
		a.set(e, o.x, a.single(l))

	case opNewObj: // [NEW OBJECT]
		l := a.alloc(&o.loc, mdg.RoleObj, a.site(o.idx), "", mdg.KindObject, o.x.name, o.ln)
		a.set(e, o.x, a.single(l))

	case opLookup: // [STATIC PROPERTY LOOKUP]
		L := a.eval(o.a, e, o.idx, o.ln)
		a.set(e, o.x, a.g.AP(a.site(o.idx), L, o.prop, o.ln))

	case opDynLookup: // [DYNAMIC PROPERTY LOOKUP]
		L := a.eval(o.a, e, o.idx, o.ln)
		Lp := a.eval(o.b, e, o.idx, o.ln)
		values := a.g.APStar(a.site(o.idx), L, Lp, o.ln)
		// Any statically known property may be the one read.
		for _, l := range L {
			values = append(values, a.g.AllPropValues(l)...)
		}
		values = dedupeLocs(values)
		// The value read depends on the dynamic property name
		// (concrete rule [Dynamic Property Lookup], Fig. 5).
		for _, v := range values {
			for _, lp := range Lp {
				a.g.AddDep(lp, v)
			}
		}
		a.set(e, o.x, values)

	case opUpdate: // [STATIC PROPERTY UPDATE]
		L1 := a.eval(o.a, e, o.idx, o.ln)
		L3 := a.eval(o.b, e, o.idx, o.ln)
		nl := a.g.NV(a.site(o.idx), L1, o.prop, o.ln)
		a.replaceVersions(e, L1, nl)
		if nl != mdg.NoLoc {
			for _, v := range L3 {
				a.g.AddEdge(mdg.Edge{From: nl, To: v, Type: mdg.Prop, Prop: o.prop})
			}
		}

	case opDynUpdate: // [DYNAMIC PROPERTY UPDATE]
		L1 := a.eval(o.a, e, o.idx, o.ln)
		L2 := a.eval(o.b, e, o.idx, o.ln)
		L3 := a.eval(o.c, e, o.idx, o.ln)
		nl := a.g.NVStar(a.site(o.idx), L1, L2, o.ln)
		a.replaceVersions(e, L1, nl)
		if nl != mdg.NoLoc {
			for _, v := range L3 {
				a.g.AddEdge(mdg.Edge{From: nl, To: v, Type: mdg.PropStar})
			}
		}

	case opIf:
		a.eval(o.a, e, 0, o.ln)
		// The then-branch runs on a copy of the whole chain (a branch
		// inside a closure may assign an enclosing function's
		// variable), the else-branch on the chain itself; then join.
		t, mark := a.copyEnv(e)
		a.block(o.then, t)
		a.block(o.els, e)
		a.joinThenFirst(e, t)
		a.release(mark)

	case opWhile:
		a.fixpoint(o.then, e)

	case opForIn:
		// The loop variable depends on the iterated object: its keys
		// (for-in) are derived from the object's property names, its
		// values (for-of) are the property values.
		objLocs := a.eval(o.a, e, o.idx, o.ln)
		key := a.alloc(&o.loc, mdg.RoleForIn, a.site(o.idx), o.prop, mdg.KindObject, o.prop, o.ln)
		for _, ol := range objLocs {
			a.g.AddDep(ol, key)
			if o.of {
				for _, v := range a.g.AllPropValues(ol) {
					a.g.AddDep(v, key)
				}
			}
		}
		a.set(e, o.x, a.single(key))
		a.fixpoint(o.then, e)

	case opCall:
		a.call(o, e)

	case opFuncDef:
		a.funcDef(o, e)

	case opReturn:
		if o.a.v != nil || o.a.lit != nil {
			vals := a.eval(o.a, e, 0, o.ln)
			if len(a.fnStack) > 0 {
				ret := a.fnStack[len(a.fnStack)-1].RetLoc
				for _, v := range vals {
					a.g.AddDep(v, ret)
				}
			}
		}

	case opNop:
		// Control transfer; the fixpoint over-approximates all exits.
	}
}

// replaceVersions rewrites the store after a property update created
// the new version nl of the objects in L1. When the update resolves to
// a single abstract object the rewrite is strong (the paper's NV
// semantics: every variable referring to the old version now refers to
// the new one); with several candidate objects it must be weak — the
// update hit only one of them concretely, so older versions stay live
// in the store to keep the abstraction sound.
func (a *analyzer) replaceVersions(e env, L1 []mdg.Loc, nl mdg.Loc) {
	switch {
	case nl == mdg.NoLoc:
	case len(L1) == 1:
		if L1[0] != nl {
			a.replaceAll(e, L1[0], nl)
		}
	default:
		a.weakReplace(e, L1, nl)
	}
}

// fixpoint analyzes a loop body until the graph and store stop changing
// (the MDG and store lattices are finite, §3.1), capped by MaxLoopIter.
func (a *analyzer) fixpoint(body []op, e env) {
	for i := 0; i < a.opts.MaxLoopIter; i++ {
		before, mark := a.copyEnv(e)
		gSnap := a.g.Snap()
		a.block(body, e)
		// Join with the pre-iteration store: the loop may run 0 times.
		// The whole chain joins: the body may assign enclosing scopes.
		a.joinInto(e, before)
		done := a.g.Snap() == gSnap && equalEnv(e, before)
		a.release(mark)
		if done {
			return
		}
	}
}

// funcDef registers a function summary, binds the name, and analyzes the
// body in a child frame with fresh parameter objects.
func (a *analyzer) funcDef(o *op, e env) {
	f := o.fn
	fn := f.sum
	if fn == nil {
		// First evaluation: allocate the summary's nodes. Allocation is
		// site-keyed, so later evaluations would find the same nodes and
		// edges; they reuse the summary.
		site := a.site(o.idx)
		fl := a.g.Alloc(mdg.RoleFunc, site, 0, f.qname, mdg.KindFunc, f.def.Name, o.ln)
		fn = &FuncSummary{Def: f.def, Loc: fl}
		fnNode := a.g.Node(fl)
		fnNode.FuncName = f.qname
		fn.Params = make([]mdg.Loc, len(f.params))
		for i, p := range f.def.Params {
			fn.Params[i] = a.g.Alloc(mdg.RoleParam, site, 0, f.paramKeys[i], mdg.KindParam, p, o.ln)
		}
		fn.ThisLoc = a.g.Alloc(mdg.RoleThis, site, 0, "this", mdg.KindObject, "this", o.ln)
		fn.RetLoc = a.g.Alloc(mdg.RoleRet, site, 0, "ret", mdg.KindObject, f.retLabel, o.ln)
		fnNode.ParamLocs = fn.Params
		fnNode.RetLoc = fn.RetLoc
		if int(fl) >= len(a.locFn) {
			a.locFn = append(a.locFn, make([]int32, int(fl)+1-len(a.locFn)+64)...)
		}
		a.locFn[fl] = f.qid + 1
		f.sum = fn
	}
	a.fnByID[f.qid] = fn

	// Bind the name before analyzing the body so recursion resolves.
	a.set(e, f.name, a.single(fn.Loc))

	child := a.funcEnv(e, f.nslots)
	fr := child[len(child)-1]
	for i, slot := range f.params {
		fr.put(slot, a.single(fn.Params[i]))
	}
	fr.put(f.thisSlot, a.single(fn.ThisLoc))
	// `arguments` aggregates all parameters.
	if f.argsLoc == mdg.NoLoc {
		f.argsLoc = a.g.Alloc(mdg.RoleArguments, a.site(o.idx), 0, "arguments", mdg.KindObject, "arguments", o.ln)
		for i, pl := range fn.Params {
			a.g.AddEdge(mdg.Edge{From: f.argsLoc, To: pl, Type: mdg.Prop, Prop: f.argProps[i]})
			a.g.AddDep(pl, f.argsLoc)
		}
	}
	fr.put(f.argsSlot, a.single(f.argsLoc))

	a.fnStack = append(a.fnStack, fn)
	a.block(f.body, child)
	a.fnStack = a.fnStack[:len(a.fnStack)-1]
}

// call analyzes `x :=i f(args)`: it creates the call node, wires
// argument dependencies, and links known callees' summaries.
func (a *analyzer) call(o *op, e env) {
	c := o.call
	calleeLocs := a.eval(c.callee, e, o.idx, o.ln)

	cl := a.alloc(&o.loc, mdg.RoleCall, a.site(o.idx), c.name, mdg.KindCall, c.label, o.ln)
	cn := a.g.Node(cl)
	cn.CallName = c.name
	if len(cn.CallArgs) == 0 {
		cn.CallArgs = make([][]mdg.Loc, len(c.args))
	}
	if int(cl) >= len(a.isCall) {
		a.isCall = append(a.isCall, make([]bool, int(cl)+1-len(a.isCall)+64)...)
	}
	if !a.isCall[cl] {
		a.isCall[cl] = true
		a.calls = append(a.calls, cl)
	}

	argLocs := a.argBuf[:0]
	for i, arg := range c.args {
		ls := a.eval(arg, e, o.idx, o.ln)
		argLocs = append(argLocs, ls)
		for _, l := range ls {
			a.g.AddDep(l, cl)
		}
		if i < len(cn.CallArgs) {
			cn.CallArgs[i] = a.union(cn.CallArgs[i], ls)
		}
	}
	a.argBuf = argLocs[:0]
	var thisLocs []mdg.Loc
	if c.this.v != nil || c.this.lit != nil {
		thisLocs = a.eval(c.this, e, o.idx, o.ln)
		for _, l := range thisLocs {
			a.g.AddDep(l, cl)
		}
	}

	// require('mod'): a relative specifier resolving to a sibling
	// module yields that module's exports object (cross-file linking);
	// anything else yields a synthetic external-module object.
	if c.isRequire {
		if c.reqOK {
			// The sibling module's current exports: whatever the
			// graph says module.exports holds (filled in by the
			// cross-module fixpoint passes).
			mg := a.modules[c.reqFile]
			vals := []mdg.Loc{mg.exportsLoc}
			for _, ml := range a.g.VersionClosure(mg.moduleLoc) {
				vals = append(vals, a.g.Lookup(ml, "exports").Values...)
			}
			vals = dedupeLocs(vals)
			for _, v := range vals {
				a.g.AddDep(cl, v)
			}
			a.set(e, o.x, vals)
			return
		}
		ml := a.alloc(&c.objLoc, mdg.RoleModule, 0, c.reqSpec, mdg.KindObject, c.reqSpec, o.ln)
		a.externals[c.reqSpec] = ml
		a.g.AddDep(cl, ml)
		a.set(e, o.x, a.single(ml))
		return
	}

	// Built-in models (Object.assign, JSON.parse, push, ...).
	if a.builtinCall(o, e, cl, argLocs, thisLocs) {
		return
	}

	// Record the callee/this value sets for the cross-package linker:
	// only calls that reach summary linking (require and built-in
	// models returned above), accumulated across fixpoint passes.
	if len(calleeLocs) > 0 {
		a.calleeLocs[cl] = a.union(a.calleeLocs[cl], calleeLocs)
	}
	if len(thisLocs) > 0 {
		a.callThis[cl] = a.union(a.callThis[cl], thisLocs)
	}

	// Link summaries of statically resolved callees.
	known := false
	for _, fl := range calleeLocs {
		fn := a.summaryAt(fl)
		if fn == nil {
			continue
		}
		known = true
		for i, ls := range argLocs {
			if i >= len(fn.Params) {
				break
			}
			for _, l := range ls {
				a.g.AddDep(l, fn.Params[i])
			}
		}
		for _, tl := range thisLocs {
			a.g.AddDep(tl, fn.ThisLoc)
		}
		a.g.AddDep(fn.RetLoc, cl)
		if c.isNew {
			// The constructed object is the constructor's `this`.
			a.g.AddDep(fn.ThisLoc, cl)
		}
	}

	// Callback arguments: a function passed to an unresolved callee
	// (e.g. arr.forEach(fn)) may be invoked with tainted data flowing
	// from the receiver/arguments; wire value-level dependencies.
	if !known {
		for _, ls := range argLocs {
			for _, l := range ls {
				if fn := a.summaryAt(l); fn != nil {
					for _, pl := range fn.Params {
						for _, tl := range thisLocs {
							a.g.AddDep(tl, pl)
						}
						// Other (non-function) arguments flow into the
						// callback parameters as well.
						for _, ols := range argLocs {
							for _, ol := range ols {
								if ol != l {
									a.g.AddDep(ol, pl)
								}
							}
						}
					}
					a.g.AddDep(fn.RetLoc, cl)
				}
			}
		}
	}

	a.set(e, o.x, a.single(cl))
}

// summaryAt returns the function summary whose value node is l, or nil.
func (a *analyzer) summaryAt(l mdg.Loc) *FuncSummary {
	n := a.g.Node(l)
	if n == nil || n.Kind != mdg.KindFunc || int(l) >= len(a.locFn) || a.locFn[l] == 0 {
		return nil
	}
	return a.fnByID[a.locFn[l]-1]
}

// markExported finds functions reachable from module.exports/exports
// and marks them (their parameters become taint sources). It reports
// whether any function is genuinely exported; the script-mode fallback
// for the negative case is the caller's decision.
func (a *analyzer) markExported(funcs map[string]*FuncSummary) bool {
	// Roots: every version of the module object's `exports` property,
	// plus the original exports object and all its versions.
	roots := map[mdg.Loc]bool{}
	var addWithVersions func(l mdg.Loc)
	addWithVersions = func(l mdg.Loc) {
		if roots[l] {
			return
		}
		roots[l] = true
		for _, s := range a.g.VersionSuccessors(l) {
			addWithVersions(s)
		}
	}
	for _, mg := range a.modules {
		for _, ml := range a.g.VersionClosure(mg.moduleLoc) {
			res := a.g.Lookup(ml, "exports")
			for _, v := range res.Values {
				addWithVersions(v)
			}
		}
		addWithVersions(mg.exportsLoc)
	}

	// Worklist: exported objects expose every property value.
	work := make([]mdg.Loc, 0, len(roots))
	for l := range roots {
		work = append(work, l)
	}
	seen := map[mdg.Loc]bool{}
	anyExported := false
	for len(work) > 0 {
		l := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[l] {
			continue
		}
		seen[l] = true
		n := a.g.Node(l)
		if n == nil {
			continue
		}
		if n.Kind == mdg.KindFunc {
			if fn := funcs[n.FuncName]; fn != nil && !fn.Exported {
				fn.Exported = true
				n.Exported = true
				anyExported = true
			}
			continue
		}
		work = append(work, a.g.AllPropValues(l)...)
		work = append(work, a.g.VersionSuccessors(l)...)
	}

	return anyExported
}

// dedupeLocs drops repeated locations in place, keeping first
// occurrences in order.
func dedupeLocs(ls []mdg.Loc) []mdg.Loc {
	if len(ls) < 2 {
		return ls
	}
	seen := make(map[mdg.Loc]struct{}, len(ls))
	out := ls[:0]
	for _, l := range ls {
		if _, ok := seen[l]; !ok {
			seen[l] = struct{}{}
			out = append(out, l)
		}
	}
	return out
}
