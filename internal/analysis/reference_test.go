package analysis

// The string-keyed analyzer the dense one replaced, kept as the oracle
// of TestDenseAnalysisMatchesReference: the same §3.2 abstract
// interpretation over map-keyed scope chains (refStore, mdg's former
// Store), including the chain-wide joins of If and loops. It shares
// the non-store helpers (the export fallback, source recomputation,
// dedupeLocs) and the graph with the dense analyzer.

import (
	"bytes"
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/mdg"
)

// refRepl is the old-version → new-version map NV/NV* used to return:
// every location of L1 maps to the new version nl.
func refRepl(L1 []mdg.Loc, nl mdg.Loc) map[mdg.Loc]mdg.Loc {
	repl := make(map[mdg.Loc]mdg.Loc, len(L1))
	for _, l := range L1 {
		repl[l] = nl
	}
	return repl
}

// refDedupe drops repeated locations in place, keeping first
// occurrences in order (mdg's dedupe).
func refDedupe(ls []mdg.Loc) []mdg.Loc {
	if len(ls) < 2 {
		return ls
	}
	return dedupeLocs(ls)
}

// refStore is the string-keyed abstract variable store ρ̂ : X → ℘(L̂)
// (§3.2), mapping program variables to the sets of abstract locations
// they may denote, one map per scope.
type refStore struct {
	m      map[string][]mdg.Loc
	parent *refStore // lexical parent scope (closures); reads fall through
}

// newRefStore returns an empty store with an optional parent scope.
func newRefStore(parent *refStore) *refStore {
	return &refStore{m: make(map[string][]mdg.Loc), parent: parent}
}

// Get returns the locations bound to x, consulting parent scopes.
func (s *refStore) Get(x string) []mdg.Loc {
	if ls, ok := s.m[x]; ok {
		return ls
	}
	if s.parent != nil {
		return s.parent.Get(x)
	}
	return nil
}

// Set strongly updates x in the innermost scope that already binds it
// (assignment semantics), defaulting to this scope.
func (s *refStore) Set(x string, ls []mdg.Loc) {
	for sc := s; sc != nil; sc = sc.parent {
		if _, ok := sc.m[x]; ok {
			sc.m[x] = refDedupe(append([]mdg.Loc(nil), ls...))
			return
		}
	}
	s.m[x] = refDedupe(append([]mdg.Loc(nil), ls...))
}

// SetLocal binds x in this scope regardless of outer bindings
// (declaration semantics).
func (s *refStore) SetLocal(x string, ls []mdg.Loc) {
	s.m[x] = refDedupe(append([]mdg.Loc(nil), ls...))
}

// ReplaceAll substitutes old-version locations with their new versions
// in every binding of this scope chain; used by NV/NV* (§3.2: "the
// updated store with occurrences of older version locations replaced by
// their corresponding newer versions").
func (s *refStore) ReplaceAll(repl map[mdg.Loc]mdg.Loc) {
	for sc := s; sc != nil; sc = sc.parent {
		for x, ls := range sc.m {
			changed := false
			out := make([]mdg.Loc, len(ls))
			for i, l := range ls {
				if nl, ok := repl[l]; ok && nl != l {
					out[i] = nl
					changed = true
				} else {
					out[i] = l
				}
			}
			if changed {
				sc.m[x] = refDedupe(out)
			}
		}
	}
}

// WeakReplace adds the new versions alongside the old ones in every
// binding; used when a property update targets several abstract objects
// and it is unknown which one a given variable denotes (weak update).
func (s *refStore) WeakReplace(repl map[mdg.Loc]mdg.Loc) {
	for sc := s; sc != nil; sc = sc.parent {
		for x, ls := range sc.m {
			var add []mdg.Loc
			for _, l := range ls {
				if nl, ok := repl[l]; ok && nl != l {
					add = append(add, nl)
				}
			}
			if add != nil {
				sc.m[x] = refDedupe(append(append([]mdg.Loc(nil), ls...), add...))
			}
		}
	}
}

// Copy returns a deep copy of this scope (sharing the parent chain), for
// branch-local analysis.
func (s *refStore) Copy() *refStore {
	c := &refStore{m: make(map[string][]mdg.Loc, len(s.m)), parent: s.parent}
	for x, ls := range s.m {
		c.m[x] = append([]mdg.Loc(nil), ls...)
	}
	return c
}

// CopyChain copies the whole scope chain: every frame's bindings are
// copied and the copies are linked like the originals. A branch or
// loop body inside a closure can assign an enclosing function's
// variable, so path-sensitive joins must copy every frame, not only
// the innermost one.
func (s *refStore) CopyChain() *refStore {
	c := s.Copy()
	if s.parent != nil {
		c.parent = s.parent.CopyChain()
	}
	return c
}

// JoinChain joins o into s frame by frame; the chains have equal depth
// (o is a CopyChain of the same scopes).
func (s *refStore) JoinChain(o *refStore) {
	for a, b := s, o; a != nil && b != nil; a, b = a.parent, b.parent {
		a.Join(b)
	}
}

// EqualChain reports Equal on every frame of two chains of equal
// depth.
func (s *refStore) EqualChain(o *refStore) bool {
	for a, b := s, o; a != nil && b != nil; a, b = a.parent, b.parent {
		if !a.Equal(b) {
			return false
		}
	}
	return true
}

// Adopt replaces the bindings of every frame of s with those of the
// matching frame of o, keeping s's frames (and so every reference to
// them) in place.
func (s *refStore) Adopt(o *refStore) {
	for a, b := s, o; a != nil && b != nil; a, b = a.parent, b.parent {
		a.m = b.m
	}
}

// Outermost returns the last frame of the chain (the global scope).
func (s *refStore) Outermost() *refStore {
	for s.parent != nil {
		s = s.parent
	}
	return s
}

// Join merges o into s pointwise (s ⊔ o). Bindings present in only one
// store are kept as-is.
func (s *refStore) Join(o *refStore) {
	for x, ls := range o.m {
		cur := s.m[x]
		s.m[x] = refDedupe(append(append([]mdg.Loc(nil), cur...), ls...))
	}
}

// Equal reports whether s and o bind the same variables in their local
// scopes to the same location lists, compared as sorted lists (so
// order is ignored and duplicates count); parent scopes are not
// compared (EqualChain compares them).
func (s *refStore) Equal(o *refStore) bool {
	if len(s.m) != len(o.m) {
		return false
	}
	for x, ls := range s.m {
		os, ok := o.m[x]
		if !ok || !refSameLocs(ls, os) {
			return false
		}
	}
	return true
}

// sameLocs reports whether a and b are equal as sorted lists. The
// common case, identical lists, allocates nothing.
func refSameLocs(a, b []mdg.Loc) bool {
	if len(a) != len(b) {
		return false
	}
	i := 0
	for i < len(a) && a[i] == b[i] {
		i++
	}
	if i == len(a) {
		return true
	}
	as := append([]mdg.Loc(nil), a[i:]...)
	bs := append([]mdg.Loc(nil), b[i:]...)
	slices.Sort(as)
	slices.Sort(bs)
	return slices.Equal(as, bs)
}

type refAnalyzer struct {
	g     *mdg.Graph
	opts  Options
	funcs map[string]*FuncSummary
	calls []mdg.Loc
	root  *refStore
	// fnStack tracks the summaries of functions whose bodies are being
	// analyzed (innermost last), for return-edge wiring.
	fnStack []*FuncSummary

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

// refAnalyzeModules is AnalyzeModules on the reference analyzer. It
// also returns the final top-level store (Result.Root's counterpart).
func refAnalyzeModules(progs []*core.Program, opts Options) (*Result, *refStore) {
	if opts.MaxLoopIter <= 0 {
		opts.MaxLoopIter = 30
	}
	a := &refAnalyzer{
		g:          mdg.New(),
		opts:       opts,
		funcs:      make(map[string]*FuncSummary),
		root:       newRefStore(nil),
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
	lastStore := a.root
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
			for _, prog := range progs {
				a.curFile = prog.FileName
				a.siteBase = base
				base += prog.MaxIndex + 1
				a.g.SetCurrentFile(prog.FileName)
				mst := newRefStore(a.root)
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
	res.HasRealExports = a.markExported()
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
	return res, lastStore
}

// setupModule creates (or returns) the CommonJS globals of one module.
func (a *refAnalyzer) setupModule(file string) moduleGlobals {
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
func (a *refAnalyzer) site(idx int) int {
	if idx == 0 {
		return 0
	}
	return idx + a.siteBase
}

// qualify prefixes a function name with its module when analyzing a
// multi-file package, so same-named functions in different files keep
// separate summaries.
func (a *refAnalyzer) qualify(name string) string {
	if len(a.modules) <= 1 {
		return name
	}
	return a.curFile + ":" + name
}

func (a *refAnalyzer) tick() {
	if a.opts.Budget.Step() != nil {
		panic(budgetExhausted{}) //lint:allow nakedpanic -- budgetExhausted is recovered by Run's local fence
	}
}

// ---------------------------------------------------------------------------
// Expression evaluation ⟦e⟧ρ̂
// ---------------------------------------------------------------------------

// eval returns the abstract locations denoted by e. site disambiguates
// literal allocation.
func (a *refAnalyzer) eval(e core.Expr, st *refStore, site, line int) []mdg.Loc {
	switch x := e.(type) {
	case core.Var:
		if ls := st.Get(x.Name); ls != nil {
			return ls
		}
		// Unknown global: lazily allocate a shared object for it so
		// property accesses and calls through it remain connected.
		l := a.g.Alloc(mdg.RoleGlobal, 0, 0, x.Name, mdg.KindObject, x.Name, line)
		st.Outermost().SetLocal(x.Name, []mdg.Loc{l})
		return []mdg.Loc{l}
	case core.Lit:
		l := a.g.Alloc(mdg.RoleLit, a.site(site), 0, x.Value+"#"+fmt.Sprint(int(x.Kind)),
			mdg.KindLiteral, x.String(), line)
		return []mdg.Loc{l}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Statement analysis
// ---------------------------------------------------------------------------

func (a *refAnalyzer) stmts(ss []core.Stmt, st *refStore) {
	for _, s := range ss {
		a.stmt(s, st)
	}
}

func (a *refAnalyzer) stmt(s core.Stmt, st *refStore) {
	a.tick()
	switch x := s.(type) {
	case *core.Assign:
		st.Set(x.X, a.eval(x.E, st, x.Idx, x.Ln))

	case *core.BinOp: // [ASSIGN-OP]
		l := a.g.Alloc(mdg.RoleBin, a.site(x.Idx), 0, "", mdg.KindObject, x.X, x.Ln)
		for _, src := range a.eval(x.L, st, x.Idx, x.Ln) {
			a.g.AddDep(src, l)
		}
		for _, src := range a.eval(x.R, st, x.Idx, x.Ln) {
			a.g.AddDep(src, l)
		}
		st.Set(x.X, []mdg.Loc{l})

	case *core.UnOp:
		l := a.g.Alloc(mdg.RoleUn, a.site(x.Idx), 0, "", mdg.KindObject, x.X, x.Ln)
		for _, src := range a.eval(x.E, st, x.Idx, x.Ln) {
			a.g.AddDep(src, l)
		}
		st.Set(x.X, []mdg.Loc{l})

	case *core.NewObj: // [NEW OBJECT]
		l := a.g.Alloc(mdg.RoleObj, a.site(x.Idx), 0, "", mdg.KindObject, x.X, x.Ln)
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
		repl := refRepl(L1, a.g.NV(a.site(x.Idx), L1, x.Prop, x.Ln))
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
		repl := refRepl(L1, a.g.NVStar(a.site(x.Idx), L1, L2, x.Ln))
		a.replaceVersions(st, L1, repl)
		for _, nl := range repl {
			for _, v := range L3 {
				a.g.AddEdge(mdg.Edge{From: nl, To: v, Type: mdg.PropStar})
			}
		}

	case *core.If:
		a.eval(x.Cond, st, 0, x.Ln)
		// Each branch runs on a copy of the whole scope chain: a branch
		// inside a closure may assign an enclosing function's variable.
		thenSt := st.CopyChain()
		a.stmts(x.Then, thenSt)
		elseSt := st.CopyChain()
		a.stmts(x.Else, elseSt)
		thenSt.JoinChain(elseSt)
		st.Adopt(thenSt)

	case *core.While:
		a.fixpoint(x.Body, st, x.Ln)

	case *core.ForIn:
		// The loop variable depends on the iterated object: its keys
		// (for-in) are derived from the object's property names, its
		// values (for-of) are the property values.
		objLocs := a.eval(x.Obj, st, x.Idx, x.Ln)
		key := a.g.Alloc(mdg.RoleForIn, a.site(x.Idx), 0, x.Key, mdg.KindObject, x.Key, x.Ln)
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
func (a *refAnalyzer) replaceVersions(st *refStore, L1 []mdg.Loc, repl map[mdg.Loc]mdg.Loc) {
	if len(L1) == 1 {
		st.ReplaceAll(repl)
	} else {
		st.WeakReplace(repl)
	}
}

// fixpoint analyzes a loop body until the graph and store stop changing
// (the MDG and store lattices are finite, §3.1), capped by MaxLoopIter.
func (a *refAnalyzer) fixpoint(body []core.Stmt, st *refStore, line int) {
	for i := 0; i < a.opts.MaxLoopIter; i++ {
		before := st.CopyChain()
		gSnap := a.g.Snap()
		a.stmts(body, st)
		// Join with the pre-iteration store: the loop may run 0 times.
		// The whole chain joins: the body may assign enclosing scopes.
		st.JoinChain(before)
		if a.g.Snap() == gSnap && st.EqualChain(before) {
			return
		}
	}
}

// funcDef registers a function summary, binds the name, and analyzes the
// body in a child scope with fresh parameter objects.
func (a *refAnalyzer) funcDef(x *core.FuncDef, st *refStore) {
	qname := a.qualify(x.Name)
	fl := a.g.Alloc(mdg.RoleFunc, a.site(x.Idx), 0, qname, mdg.KindFunc, x.Name, x.Ln)
	fn := &FuncSummary{Def: x, Loc: fl}
	fnNode := a.g.Node(fl)
	fnNode.FuncName = qname

	for i, p := range x.Params {
		pl := a.g.Alloc(mdg.RoleParam, a.site(x.Idx), 0, fmt.Sprintf("%s#%d", p, i), mdg.KindParam, p, x.Ln)
		fn.Params = append(fn.Params, pl)
	}
	fn.ThisLoc = a.g.Alloc(mdg.RoleThis, a.site(x.Idx), 0, "this", mdg.KindObject, "this", x.Ln)
	fn.RetLoc = a.g.Alloc(mdg.RoleRet, a.site(x.Idx), 0, "ret", mdg.KindObject, x.Name+"$ret", x.Ln)
	fnNode.ParamLocs = fn.Params
	fnNode.RetLoc = fn.RetLoc
	a.funcs[qname] = fn

	// Bind the name before analyzing the body so recursion resolves.
	st.Set(x.Name, []mdg.Loc{fl})

	child := newRefStore(st)
	for i, p := range x.Params {
		child.SetLocal(p, []mdg.Loc{fn.Params[i]})
	}
	child.SetLocal("this", []mdg.Loc{fn.ThisLoc})
	// `arguments` aggregates all parameters.
	argsLoc := a.g.Alloc(mdg.RoleArguments, a.site(x.Idx), 0, "arguments", mdg.KindObject, "arguments", x.Ln)
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
func (a *refAnalyzer) call(x *core.Call, st *refStore) {
	calleeLocs := a.eval(x.Callee, st, x.Idx, x.Ln)

	cl := a.g.Alloc(mdg.RoleCall, a.site(x.Idx), 0, x.CalleeName, mdg.KindCall, x.CalleeName+"()", x.Ln)
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
			ml := a.g.Alloc(mdg.RoleModule, 0, 0, lit.Value, mdg.KindObject, lit.Value, x.Ln)
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
	if len(refCalleeLocsKnown(a, calleeLocs)) == 0 {
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

func refCalleeLocsKnown(a *refAnalyzer, ls []mdg.Loc) []*FuncSummary {
	var out []*FuncSummary
	for _, l := range ls {
		if fn := a.summaryAt(l); fn != nil {
			out = append(out, fn)
		}
	}
	return out
}

// summaryAt returns the function summary whose value node is l, or nil.
func (a *refAnalyzer) summaryAt(l mdg.Loc) *FuncSummary {
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
func (a *refAnalyzer) markExported() bool {
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
func (a *refAnalyzer) allVersions(l mdg.Loc) []mdg.Loc {
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

// resolveModule resolves a require specifier against the package's
// known module files. Only relative specifiers ('./x', '../y') resolve;
// bare names are external packages. Matching tries the literal path,
// a '.js' suffix, and '/index.js', comparing cleaned paths.
func (a *refAnalyzer) resolveModule(spec string) (string, bool) {
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

// Built-in function models. Graph.js models the JavaScript built-ins
// that matter for taint and shape propagation; unmodelled built-ins
// fall back to the generic call treatment (result depends on the
// arguments). Each model returns true when it fully handled the call.

// builtinCall dispatches on the source-level callee path.
func (a *refAnalyzer) builtinCall(x *core.Call, st *refStore, cl mdg.Loc,
	argLocs [][]mdg.Loc, thisLocs []mdg.Loc) bool {
	switch {
	case x.CalleeName == "Object.assign":
		return a.builtinObjectAssign(x, st, cl, argLocs)
	case x.CalleeName == "JSON.parse":
		return a.builtinJSONParse(x, st, cl, argLocs)
	case x.CalleeName == "Object.keys" || x.CalleeName == "Object.values" ||
		x.CalleeName == "Object.entries":
		return a.builtinObjectKeys(x, st, cl, argLocs)
	case strings.HasSuffix(x.CalleeName, ".push") || strings.HasSuffix(x.CalleeName, ".unshift"):
		return a.builtinArrayPush(x, st, cl, argLocs, thisLocs)
	case strings.HasSuffix(x.CalleeName, ".concat"):
		return a.builtinConcat(x, st, cl, argLocs, thisLocs)
	}
	return false
}

// Object.assign(target, ...sources): every source's property values may
// become dynamic properties of target; the result is target.
func (a *refAnalyzer) builtinObjectAssign(x *core.Call, st *refStore, cl mdg.Loc, argLocs [][]mdg.Loc) bool {
	if len(argLocs) == 0 {
		return false
	}
	targets := argLocs[0]
	var srcVals []mdg.Loc
	var srcObjs []mdg.Loc
	for _, ls := range argLocs[1:] {
		srcObjs = append(srcObjs, ls...)
		for _, l := range ls {
			srcVals = append(srcVals, a.g.AllPropValues(l)...)
		}
	}
	// The merge is a dynamic update whose property names come from the
	// sources.
	repl := refRepl(targets, a.g.NVStar(a.site(x.Idx), targets, srcObjs, x.Ln))
	a.replaceVersions(st, targets, repl)
	var newVers []mdg.Loc
	for _, nl := range repl {
		newVers = append(newVers, nl)
		for _, v := range srcVals {
			a.g.AddEdge(mdg.Edge{From: nl, To: v, Type: mdg.PropStar})
		}
	}
	// Unknown source properties: reads on the target may now return
	// anything the sources held, including properties not yet
	// materialized — a star property depending on the source objects.
	starVals := a.g.APStar(a.site(x.Idx), newVers, srcObjs, x.Ln)
	for _, sv := range starVals {
		for _, src := range srcObjs {
			a.g.AddDep(src, sv)
		}
	}
	// Result: the (new versions of the) target.
	var out []mdg.Loc
	for _, nl := range repl {
		out = append(out, nl)
	}
	if len(out) == 0 {
		out = targets
	}
	for _, l := range out {
		a.g.AddDep(l, cl)
	}
	st.Set(x.X, dedupeLocs(out))
	return true
}

// JSON.parse(s): the result is a fresh object whose shape and every
// property are controlled by the string — the canonical way attacker
// data becomes a structured object.
func (a *refAnalyzer) builtinJSONParse(x *core.Call, st *refStore, cl mdg.Loc, argLocs [][]mdg.Loc) bool {
	obj := a.g.Alloc(mdg.RoleObj, a.site(x.Idx), 0, "json", mdg.KindObject, x.X, x.Ln)
	var deps []mdg.Loc
	if len(argLocs) > 0 {
		deps = argLocs[0]
	}
	for _, d := range deps {
		a.g.AddDep(d, obj)
	}
	// Its dynamic property carries the same dependencies, so lookups on
	// the parsed value stay tainted.
	star := a.g.APStar(a.site(x.Idx), []mdg.Loc{obj}, deps, x.Ln)
	for _, sv := range star {
		for _, d := range deps {
			a.g.AddDep(d, sv)
		}
	}
	a.g.AddDep(obj, cl)
	st.Set(x.X, []mdg.Loc{obj})
	return true
}

// Object.keys/values/entries(o): an array derived from o — its elements
// depend on the object (keys) or are the property values (values).
func (a *refAnalyzer) builtinObjectKeys(x *core.Call, st *refStore, cl mdg.Loc, argLocs [][]mdg.Loc) bool {
	arr := a.g.Alloc(mdg.RoleObj, a.site(x.Idx), 0, "keys", mdg.KindObject, x.X, x.Ln)
	if len(argLocs) > 0 {
		for _, o := range argLocs[0] {
			a.g.AddDep(o, arr)
			if x.CalleeName != "Object.keys" {
				for _, v := range a.g.AllPropValues(o) {
					a.g.AddEdge(mdg.Edge{From: arr, To: v, Type: mdg.PropStar})
				}
			}
		}
	}
	a.g.AddDep(arr, cl)
	st.Set(x.X, []mdg.Loc{arr})
	return true
}

// arr.push(v)/unshift(v): a dynamic-property write of v on the
// receiver.
func (a *refAnalyzer) builtinArrayPush(x *core.Call, st *refStore, cl mdg.Loc, argLocs [][]mdg.Loc, thisLocs []mdg.Loc) bool {
	if len(thisLocs) == 0 || len(argLocs) == 0 {
		return false
	}
	repl := refRepl(thisLocs, a.g.NVStar(a.site(x.Idx), thisLocs, nil, x.Ln))
	a.replaceVersions(st, thisLocs, repl)
	for _, nl := range repl {
		for _, ls := range argLocs {
			for _, v := range ls {
				a.g.AddEdge(mdg.Edge{From: nl, To: v, Type: mdg.PropStar})
				// Element data is part of the array value (joins,
				// string conversions), so the new version depends on
				// the element too.
				a.g.AddDep(v, nl)
			}
		}
	}
	// push returns the new length; model as depending on the receiver.
	for _, tl := range thisLocs {
		a.g.AddDep(tl, cl)
	}
	st.Set(x.X, []mdg.Loc{cl})
	return true
}

// a.concat(b): a fresh array whose elements come from both operands.
func (a *refAnalyzer) builtinConcat(x *core.Call, st *refStore, cl mdg.Loc, argLocs [][]mdg.Loc, thisLocs []mdg.Loc) bool {
	arr := a.g.Alloc(mdg.RoleObj, a.site(x.Idx), 0, "concat", mdg.KindObject, x.X, x.Ln)
	add := func(ls []mdg.Loc) {
		for _, l := range ls {
			a.g.AddDep(l, arr)
			for _, v := range a.g.AllPropValues(l) {
				a.g.AddEdge(mdg.Edge{From: arr, To: v, Type: mdg.PropStar})
				a.g.AddDep(v, arr)
			}
		}
	}
	add(thisLocs)
	for _, ls := range argLocs {
		add(ls)
	}
	a.g.AddDep(arr, cl)
	st.Set(x.X, []mdg.Loc{arr})
	return true
}

// dumpResult renders every Result field but the graph and the store,
// plus the budget's step count.
func dumpResult(res *Result, steps int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "steps=%d real=%v fallback=%v\ncalls=%v\nsources=%v\n",
		steps, res.HasRealExports, res.FallbackApplied, res.Calls, res.Sources)
	names := make([]string, 0, len(res.Functions))
	for q := range res.Functions {
		names = append(names, q)
	}
	sort.Strings(names)
	for _, q := range names {
		fn := res.Functions[q]
		fmt.Fprintf(&sb, "func %s def=%p loc=%d params=%v this=%d ret=%d exported=%v\n",
			q, fn.Def, fn.Loc, fn.Params, fn.ThisLoc, fn.RetLoc, fn.Exported)
	}
	fmt.Fprintf(&sb, "externals=%v\ncallees=%v\nthis=%v\nmodules=%v\n",
		res.Externals, res.CalleeLocs, res.CallThis, res.ModuleEnv)
	return sb.String()
}

// storeDiff compares the dense Result.Root with the reference's final
// store on every name either binds.
func storeDiff(res *Result, ref *refStore) string {
	var names []string
	for s := ref; s != nil; s = s.parent {
		for x := range s.m {
			names = append(names, x)
		}
	}
	if res.Root.module != nil {
		names = append(names, res.Root.slots...)
	}
	for x, id := range res.Root.names {
		if res.Root.gslot[id] >= 0 {
			names = append(names, x)
		}
	}
	sort.Strings(names)
	for _, x := range slices.Compact(names) {
		if d, r := res.Root.Get(x), ref.Get(x); !slices.Equal(d, r) {
			return fmt.Sprintf("store: %s = %v, reference %v", x, d, r)
		}
	}
	return ""
}

// CompareWithReference runs the dense analyzer and the reference on
// progs under limits and describes the first difference ("" when
// equal). Exported for the equivalence tests in package analysis_test,
// which need the dataset package (and so cannot live in this one).
func CompareWithReference(progs []*core.Program, limits budget.Limits) string {
	db, rb := budget.New(limits), budget.New(limits)
	opts := DefaultOptions()
	opts.Budget = db
	dense := AnalyzeModules(progs, opts)
	opts.Budget = rb
	ref, refRoot := refAnalyzeModules(progs, opts)
	dg := mdg.EncodeFragment(mdg.SnapshotFragment(dense.Graph))
	rg := mdg.EncodeFragment(mdg.SnapshotFragment(ref.Graph))
	if !bytes.Equal(dg, rg) {
		return "graphs differ: " + firstLineDiff(dense.Graph.String(), ref.Graph.String())
	}
	// The encoding holds out-lists only; in-list order steers the
	// version-chain walks, so compare it too.
	for _, n := range dense.Graph.Nodes() {
		if d, r := dense.Graph.In(n.Loc), ref.Graph.In(n.Loc); !slices.Equal(d, r) {
			return fmt.Sprintf("in-edges of o%d differ:\n  dense:     %v\n  reference: %v", n.Loc, d, r)
		}
	}
	if d, r := dumpResult(dense, db.Steps()), dumpResult(ref, rb.Steps()); d != r {
		return firstLineDiff(d, r)
	}
	return storeDiff(dense, refRoot)
}

// firstLineDiff returns the first differing line of two renderings.
func firstLineDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  dense:     %s\n  reference: %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(al), len(bl))
}
