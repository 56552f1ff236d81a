// Package analysis implements the paper's abstract analysis 𝒜(s, ĝ, ρ̂)
// (§3.2): a forward abstract interpreter over Core JavaScript that
// builds the program's Multiversion Dependency Graph. Loops and
// recursive calls are handled with a summary fixed-point representation
// — allocation is site-keyed, so repeated iterations reuse abstract
// locations and the finite MDG/store lattices guarantee convergence.
package analysis

import (
	"fmt"
	"path"
	"sort"
	"strings"

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
	// anywhere in the pipeline aborts the analysis cooperatively with
	// Result.TimedOut set. The Budget records *why* it tripped, letting
	// the scanner classify the outcome and keep the partial MDG.
	Budget *budget.Budget
}

// DefaultOptions are the options used by the scanner.
func DefaultOptions() Options {
	return Options{MaxLoopIter: 30}
}

// Result is the outcome of analyzing one program.
type Result struct {
	Graph *mdg.Graph
	// Calls lists all call nodes in creation order.
	Calls []mdg.Loc
	// Sources lists all taint-source locations (parameters of exported
	// functions).
	Sources []mdg.Loc
	// Functions maps unique function names to their summaries.
	Functions map[string]*FuncSummary
	// Root is the final top-level abstract store.
	Root *mdg.Store
	// TimedOut reports that Options.Budget tripped (deadline, cap or
	// cancellation) and the analysis stopped early.
	TimedOut bool
	// Steps is the number of abstract steps executed.
	Steps int
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
	g     *mdg.Graph
	opts  Options
	funcs map[string]*FuncSummary
	calls []mdg.Loc
	root  *mdg.Store
	// fnStack tracks the summaries of functions whose bodies are being
	// analyzed (innermost last), for return-edge wiring.
	fnStack []*FuncSummary
	steps   int

	// Multi-module state: per-file CommonJS globals, the set of known
	// module files for require resolution, and the per-module site
	// offset that keeps allocation keys distinct across files.
	curFile  string
	modules  map[string]moduleGlobals
	siteBase int

	// Cross-package linker side tables (see Result).
	externals  map[string]mdg.Loc
	calleeLocs map[mdg.Loc][]mdg.Loc
	callThis   map[mdg.Loc][]mdg.Loc
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
	a := &analyzer{
		g:          mdg.New(),
		opts:       opts,
		funcs:      make(map[string]*FuncSummary),
		root:       mdg.NewStore(nil),
		modules:    make(map[string]moduleGlobals),
		externals:  make(map[string]mdg.Loc),
		calleeLocs: make(map[mdg.Loc][]mdg.Loc),
		callThis:   make(map[mdg.Loc][]mdg.Loc),
	}
	a.g.SetBudget(opts.Budget)
	res := &Result{Graph: a.g, Functions: a.funcs}
	// Pre-create every module's CommonJS globals so require() calls
	// resolve regardless of analysis order.
	for _, prog := range progs {
		a.setupModule(prog.FileName)
	}
	var lastStore *mdg.Store
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(budgetExhausted); ok {
					res.TimedOut = true
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
			for _, prog := range progs {
				a.curFile = prog.FileName
				a.siteBase = base
				base += prog.MaxIndex + 1
				a.g.SetCurrentFile(prog.FileName)
				mst := mdg.NewStore(a.root)
				mg := a.modules[prog.FileName]
				mst.SetLocal("module", []mdg.Loc{mg.moduleLoc})
				mst.SetLocal("exports", []mdg.Loc{mg.exportsLoc})
				a.stmts(prog.Body, mst)
				lastStore = mst
			}
			if a.g.Snap() == snap {
				break
			}
		}
	}()
	res.Root = lastStore
	if res.Root == nil {
		res.Root = a.root
	}
	res.HasRealExports = a.markExported()
	if !res.HasRealExports && !opts.NoExportFallback {
		applyFallback(res)
	}
	res.Calls = a.calls
	res.Steps = a.steps
	res.Externals = a.externals
	res.CalleeLocs = a.calleeLocs
	res.CallThis = a.callThis
	res.ModuleEnv = make(map[string]ModuleLocs, len(a.modules))
	for file, mg := range a.modules {
		res.ModuleEnv[file] = ModuleLocs{Module: mg.moduleLoc, Exports: mg.exportsLoc}
	}
	recomputeSources(res, opts.TreatAllFunctionsAsExported)
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

// RemoveExportFallback undoes ApplyExportFallback (exact because when
// the fallback applied, no function was really exported: unmarking
// everything restores the pre-fallback state). No-op when the fallback
// is not in effect.
func RemoveExportFallback(res *Result) {
	if !res.FallbackApplied {
		return
	}
	for _, fn := range res.Functions {
		fn.Exported = false
		if n := res.Graph.Node(fn.Loc); n != nil {
			n.Exported = false
		}
	}
	res.FallbackApplied = false
	recomputeSources(res, false)
}

// setupModule creates (or returns) the CommonJS globals of one module.
func (a *analyzer) setupModule(file string) moduleGlobals {
	if mg, ok := a.modules[file]; ok {
		return mg
	}
	mg := moduleGlobals{
		moduleLoc:  a.g.Alloc("global", 0, 0, "module:"+file, mdg.KindObject, "module", 0),
		exportsLoc: a.g.Alloc("global", 0, 0, "exports:"+file, mdg.KindObject, "exports", 0),
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

// qualify prefixes a function name with its module when analyzing a
// multi-file package, so same-named functions in different files keep
// separate summaries.
func (a *analyzer) qualify(name string) string {
	if len(a.modules) <= 1 {
		return name
	}
	return a.curFile + ":" + name
}

func (a *analyzer) tick() {
	a.steps++
	if a.opts.Budget.Step() != nil {
		panic(budgetExhausted{}) //lint:allow nakedpanic -- budgetExhausted is recovered by Run's local fence
	}
}

// ---------------------------------------------------------------------------
// Expression evaluation ⟦e⟧ρ̂
// ---------------------------------------------------------------------------

// eval returns the abstract locations denoted by e. site disambiguates
// literal allocation.
func (a *analyzer) eval(e core.Expr, st *mdg.Store, site, line int) []mdg.Loc {
	switch x := e.(type) {
	case core.Var:
		if ls := st.Get(x.Name); ls != nil {
			return ls
		}
		// Unknown global: lazily allocate a shared object for it so
		// property accesses and calls through it remain connected.
		l := a.g.Alloc("global", 0, 0, x.Name, mdg.KindObject, x.Name, line)
		a.root.SetLocal(x.Name, []mdg.Loc{l})
		return []mdg.Loc{l}
	case core.Lit:
		l := a.g.Alloc("lit", a.site(site), 0, x.Value+"#"+fmt.Sprint(int(x.Kind)),
			mdg.KindLiteral, x.String(), line)
		return []mdg.Loc{l}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Statement analysis
// ---------------------------------------------------------------------------

func (a *analyzer) stmts(ss []core.Stmt, st *mdg.Store) {
	for _, s := range ss {
		a.stmt(s, st)
	}
}

func (a *analyzer) stmt(s core.Stmt, st *mdg.Store) {
	a.tick()
	switch x := s.(type) {
	case *core.Assign:
		st.Set(x.X, a.eval(x.E, st, x.Idx, x.Ln))

	case *core.BinOp: // [ASSIGN-OP]
		l := a.g.Alloc("bin", a.site(x.Idx), 0, "", mdg.KindObject, x.X, x.Ln)
		for _, src := range a.eval(x.L, st, x.Idx, x.Ln) {
			a.g.AddDep(src, l)
		}
		for _, src := range a.eval(x.R, st, x.Idx, x.Ln) {
			a.g.AddDep(src, l)
		}
		st.Set(x.X, []mdg.Loc{l})

	case *core.UnOp:
		l := a.g.Alloc("un", a.site(x.Idx), 0, "", mdg.KindObject, x.X, x.Ln)
		for _, src := range a.eval(x.E, st, x.Idx, x.Ln) {
			a.g.AddDep(src, l)
		}
		st.Set(x.X, []mdg.Loc{l})

	case *core.NewObj: // [NEW OBJECT]
		l := a.g.Alloc("obj", a.site(x.Idx), 0, "", mdg.KindObject, x.X, x.Ln)
		st.Set(x.X, []mdg.Loc{l})

	case *core.Lookup: // [STATIC PROPERTY LOOKUP]
		L := a.eval(x.Obj, st, x.Idx, x.Ln)
		values := a.g.AP(a.site(x.Idx), L, x.Prop, x.Ln)
		st.Set(x.X, values)

	case *core.DynLookup: // [DYNAMIC PROPERTY LOOKUP]
		L := a.eval(x.Obj, st, x.Idx, x.Ln)
		Lp := a.eval(x.Prop, st, x.Idx, x.Ln)
		values := a.g.APStar(a.site(x.Idx), L, Lp, x.Ln)
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
		st.Set(x.X, values)

	case *core.Update: // [STATIC PROPERTY UPDATE]
		L1 := a.eval(x.Obj, st, x.Idx, x.Ln)
		L3 := a.eval(x.Val, st, x.Idx, x.Ln)
		repl := a.g.NV(a.site(x.Idx), L1, x.Prop, x.Ln)
		a.replaceVersions(st, L1, repl)
		for _, nl := range repl {
			for _, v := range L3 {
				a.g.AddEdge(mdg.Edge{From: nl, To: v, Type: mdg.Prop, Prop: x.Prop})
			}
		}

	case *core.DynUpdate: // [DYNAMIC PROPERTY UPDATE]
		L1 := a.eval(x.Obj, st, x.Idx, x.Ln)
		L2 := a.eval(x.Prop, st, x.Idx, x.Ln)
		L3 := a.eval(x.Val, st, x.Idx, x.Ln)
		repl := a.g.NVStar(a.site(x.Idx), L1, L2, x.Ln)
		a.replaceVersions(st, L1, repl)
		for _, nl := range repl {
			for _, v := range L3 {
				a.g.AddEdge(mdg.Edge{From: nl, To: v, Type: mdg.PropStar})
			}
		}

	case *core.If:
		a.eval(x.Cond, st, 0, x.Ln)
		thenSt := st.Copy()
		a.stmts(x.Then, thenSt)
		elseSt := st.Copy()
		a.stmts(x.Else, elseSt)
		merged := thenSt
		merged.Join(elseSt)
		*st = *merged

	case *core.While:
		a.fixpoint(x.Body, st, x.Ln)

	case *core.ForIn:
		// The loop variable depends on the iterated object: its keys
		// (for-in) are derived from the object's property names, its
		// values (for-of) are the property values.
		objLocs := a.eval(x.Obj, st, x.Idx, x.Ln)
		key := a.g.Alloc("forin", a.site(x.Idx), 0, x.Key, mdg.KindObject, x.Key, x.Ln)
		for _, ol := range objLocs {
			a.g.AddDep(ol, key)
			if x.Of {
				for _, v := range a.g.AllPropValues(ol) {
					a.g.AddDep(v, key)
				}
			}
		}
		st.Set(x.Key, []mdg.Loc{key})
		a.fixpoint(x.Body, st, x.Ln)

	case *core.Call:
		a.call(x, st)

	case *core.FuncDef:
		a.funcDef(x, st)

	case *core.Return:
		if x.E != nil {
			vals := a.eval(x.E, st, 0, x.Ln)
			if len(a.fnStack) > 0 {
				ret := a.fnStack[len(a.fnStack)-1].RetLoc
				for _, v := range vals {
					a.g.AddDep(v, ret)
				}
			}
		}

	case *core.Break, *core.Continue:
		// Control transfer; the fixpoint over-approximates all exits.
	}
}

// replaceVersions rewrites the store after a property update. When the
// update resolves to a single abstract object the rewrite is strong (the
// paper's NV semantics: every variable referring to the old version now
// refers to the new one); with several candidate objects it must be weak
// — the update hit only one of them concretely, so older versions stay
// live in the store to keep the abstraction sound.
func (a *analyzer) replaceVersions(st *mdg.Store, L1 []mdg.Loc, repl map[mdg.Loc]mdg.Loc) {
	if len(L1) == 1 {
		st.ReplaceAll(repl)
	} else {
		st.WeakReplace(repl)
	}
}

// fixpoint analyzes a loop body until the graph and store stop changing
// (the MDG and store lattices are finite, §3.1), capped by MaxLoopIter.
func (a *analyzer) fixpoint(body []core.Stmt, st *mdg.Store, line int) {
	for i := 0; i < a.opts.MaxLoopIter; i++ {
		before := st.Copy()
		gSnap := a.g.Snap()
		a.stmts(body, st)
		// Join with the pre-iteration store: the loop may run 0 times.
		st.Join(before)
		if a.g.Snap() == gSnap && st.Equal(before) {
			return
		}
	}
}

// funcDef registers a function summary, binds the name, and analyzes the
// body in a child scope with fresh parameter objects.
func (a *analyzer) funcDef(x *core.FuncDef, st *mdg.Store) {
	qname := a.qualify(x.Name)
	fl := a.g.Alloc("func", a.site(x.Idx), 0, qname, mdg.KindFunc, x.Name, x.Ln)
	fn := &FuncSummary{Def: x, Loc: fl}
	fnNode := a.g.Node(fl)
	fnNode.FuncName = qname

	for i, p := range x.Params {
		pl := a.g.Alloc("param", a.site(x.Idx), 0, fmt.Sprintf("%s#%d", p, i), mdg.KindParam, p, x.Ln)
		fn.Params = append(fn.Params, pl)
	}
	fn.ThisLoc = a.g.Alloc("this", a.site(x.Idx), 0, "this", mdg.KindObject, "this", x.Ln)
	fn.RetLoc = a.g.Alloc("ret", a.site(x.Idx), 0, "ret", mdg.KindObject, x.Name+"$ret", x.Ln)
	fnNode.ParamLocs = fn.Params
	fnNode.RetLoc = fn.RetLoc
	a.funcs[qname] = fn

	// Bind the name before analyzing the body so recursion resolves.
	st.Set(x.Name, []mdg.Loc{fl})

	child := mdg.NewStore(st)
	for i, p := range x.Params {
		child.SetLocal(p, []mdg.Loc{fn.Params[i]})
	}
	child.SetLocal("this", []mdg.Loc{fn.ThisLoc})
	// `arguments` aggregates all parameters.
	argsLoc := a.g.Alloc("arguments", a.site(x.Idx), 0, "arguments", mdg.KindObject, "arguments", x.Ln)
	for i, pl := range fn.Params {
		a.g.AddEdge(mdg.Edge{From: argsLoc, To: pl, Type: mdg.Prop, Prop: fmt.Sprint(i)})
		a.g.AddDep(pl, argsLoc)
	}
	child.SetLocal("arguments", []mdg.Loc{argsLoc})

	a.fnStack = append(a.fnStack, fn)
	a.stmts(x.Body, child)
	a.fnStack = a.fnStack[:len(a.fnStack)-1]
}

// call analyzes `x :=i f(args)`: it creates the call node, wires
// argument dependencies, and links known callees' summaries.
func (a *analyzer) call(x *core.Call, st *mdg.Store) {
	calleeLocs := a.eval(x.Callee, st, x.Idx, x.Ln)

	cl := a.g.Alloc("call", a.site(x.Idx), 0, x.CalleeName, mdg.KindCall, x.CalleeName+"()", x.Ln)
	cn := a.g.Node(cl)
	cn.CallName = x.CalleeName
	if len(cn.CallArgs) == 0 {
		cn.CallArgs = make([][]mdg.Loc, len(x.Args))
	}
	isNewCall := true
	for _, c := range a.calls {
		if c == cl {
			isNewCall = false
			break
		}
	}
	if isNewCall {
		a.calls = append(a.calls, cl)
	}

	var argLocs [][]mdg.Loc
	for i, arg := range x.Args {
		ls := a.eval(arg, st, x.Idx, x.Ln)
		argLocs = append(argLocs, ls)
		for _, l := range ls {
			a.g.AddDep(l, cl)
		}
		if i < len(cn.CallArgs) {
			cn.CallArgs[i] = dedupeLocs(append(cn.CallArgs[i], ls...))
		}
	}
	var thisLocs []mdg.Loc
	if x.This != nil {
		thisLocs = a.eval(x.This, st, x.Idx, x.Ln)
		for _, l := range thisLocs {
			a.g.AddDep(l, cl)
		}
	}

	// require('mod'): a relative specifier resolving to a sibling
	// module yields that module's exports object (cross-file linking);
	// anything else yields a synthetic external-module object.
	if x.CalleeName == "require" && len(x.Args) == 1 {
		if lit, ok := x.Args[0].(core.Lit); ok {
			if file, ok := a.resolveModule(lit.Value); ok {
				// The sibling module's current exports: whatever the
				// graph says module.exports holds (filled in by the
				// cross-module fixpoint passes).
				mg := a.modules[file]
				vals := []mdg.Loc{mg.exportsLoc}
				for _, ml := range a.allVersions(mg.moduleLoc) {
					vals = append(vals, a.g.Lookup(ml, "exports").Values...)
				}
				vals = dedupeLocs(vals)
				for _, v := range vals {
					a.g.AddDep(cl, v)
				}
				st.Set(x.X, vals)
				return
			}
			ml := a.g.Alloc("module", 0, 0, lit.Value, mdg.KindObject, lit.Value, x.Ln)
			a.externals[lit.Value] = ml
			a.g.AddDep(cl, ml)
			st.Set(x.X, []mdg.Loc{ml})
			return
		}
	}

	// Built-in models (Object.assign, JSON.parse, push, ...).
	if a.builtinCall(x, st, cl, argLocs, thisLocs) {
		return
	}

	// Record the callee/this value sets for the cross-package linker:
	// only calls that reach summary linking (require and built-in
	// models returned above), accumulated across fixpoint passes.
	if len(calleeLocs) > 0 {
		a.calleeLocs[cl] = dedupeLocs(append(a.calleeLocs[cl], calleeLocs...))
	}
	if len(thisLocs) > 0 {
		a.callThis[cl] = dedupeLocs(append(a.callThis[cl], thisLocs...))
	}

	// Link summaries of statically resolved callees.
	for _, fl := range calleeLocs {
		fn := a.summaryAt(fl)
		if fn == nil {
			continue
		}
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
		if x.IsNew {
			// The constructed object is the constructor's `this`.
			a.g.AddDep(fn.ThisLoc, cl)
		}
	}

	// Callback arguments: a function passed to an unresolved callee
	// (e.g. arr.forEach(fn)) may be invoked with tainted data flowing
	// from the receiver/arguments; wire value-level dependencies.
	if len(calleeLocsKnown(a, calleeLocs)) == 0 {
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

	st.Set(x.X, []mdg.Loc{cl})
}

func calleeLocsKnown(a *analyzer, ls []mdg.Loc) []*FuncSummary {
	var out []*FuncSummary
	for _, l := range ls {
		if fn := a.summaryAt(l); fn != nil {
			out = append(out, fn)
		}
	}
	return out
}

// summaryAt returns the function summary whose value node is l, or nil.
func (a *analyzer) summaryAt(l mdg.Loc) *FuncSummary {
	n := a.g.Node(l)
	if n == nil || n.Kind != mdg.KindFunc {
		return nil
	}
	return a.funcs[n.FuncName]
}

// markExported finds functions reachable from module.exports/exports
// and marks them (their parameters become taint sources). It reports
// whether any function is genuinely exported; the script-mode fallback
// for the negative case is the caller's decision.
func (a *analyzer) markExported() bool {
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
		for _, ml := range a.allVersions(mg.moduleLoc) {
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
			if fn := a.funcs[n.FuncName]; fn != nil && !fn.Exported {
				fn.Exported = true
				n.Exported = true
				anyExported = true
			}
			continue
		}
		for _, v := range a.g.AllPropValues(l) {
			work = append(work, v)
		}
		for _, s := range a.g.VersionSuccessors(l) {
			work = append(work, s)
		}
	}

	return anyExported
}

// allVersions returns l and every version successor transitively.
func (a *analyzer) allVersions(l mdg.Loc) []mdg.Loc {
	var out []mdg.Loc
	seen := map[mdg.Loc]bool{}
	var walk func(v mdg.Loc)
	walk = func(v mdg.Loc) {
		if seen[v] {
			return
		}
		seen[v] = true
		out = append(out, v)
		for _, s := range a.g.VersionSuccessors(v) {
			walk(s)
		}
	}
	walk(l)
	return out
}

func dedupeLocs(ls []mdg.Loc) []mdg.Loc {
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

// resolveModule resolves a require specifier against the package's
// known module files. Only relative specifiers ('./x', '../y') resolve;
// bare names are external packages. Matching tries the literal path,
// a '.js' suffix, and '/index.js', comparing cleaned paths.
func (a *analyzer) resolveModule(spec string) (string, bool) {
	if !strings.HasPrefix(spec, "./") && !strings.HasPrefix(spec, "../") {
		return "", false
	}
	baseDir := path.Dir(a.curFile)
	target := path.Clean(path.Join(baseDir, spec))
	candidates := []string{target, target + ".js", path.Join(target, "index.js")}
	for _, c := range candidates {
		if _, ok := a.modules[c]; ok {
			return c, true
		}
	}
	// Fall back to basename matching: module file names may carry
	// generator prefixes while requires use plain names.
	base := path.Base(target)
	for file := range a.modules {
		fb := strings.TrimSuffix(path.Base(file), ".js")
		if fb == base || fb == strings.TrimSuffix(base, ".js") {
			return file, true
		}
	}
	return "", false
}
