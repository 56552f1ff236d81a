package exports

// The string-keyed export-graph interpreter (allocation sites keyed
// "site@file#idx", value sets as maps), kept verbatim with identifiers
// prefixed "ref" as the oracle for the dense interpreter in interp.go:
// TestDenseMatchesReference and FuzzExportsEquivalence require every
// Result field, every line's owner and provenance, and the budget
// steps charged to agree.

import (
	"path"
	"sort"
	"strings"

	"repro/internal/budget"
	"repro/internal/core"
)

// refMaxPasses caps the fixpoint. The domain is finite and unions are
// monotone, so convergence is typically reached in two or three
// passes; hitting the cap flips the result to the fallback attack
// model (soundness over precision).
const refMaxPasses = 8

// refResult is the resolved export graph of one package.
type refResult struct {
	// Exports lists the API surface in deterministic order.
	Exports []Export
	// Funcs indexes every function definition by qualified name;
	// Order preserves definition order.
	Funcs map[string]*FuncInfo
	Order []string
	// Calls is the alias-aware call graph (callee lists sorted).
	// Callers include the per-file top-level pseudo-nodes "file:".
	Calls map[string][]string
	// Exported marks functions property-reachable from an exports
	// object; Escaped marks functions passed as arguments to callees
	// the pass cannot resolve (the analyzer's callback heuristic can
	// invoke those with tainted data).
	Exported map[string]bool
	Escaped  map[string]bool
	// Fallback records that no export evidence was found (or the
	// fixpoint was cut short), so every function must be treated as a
	// root — the analyzer's script attack model.
	Fallback bool
	// Converged is false when the fixpoint hit refMaxPasses or the budget;
	// Fallback is forced in that case.
	Converged bool

	entryName map[string]string // exported func -> canonical API name
	ownerOf   map[refLineKey]string

	// Call-path provenance tree: every reachable function's BFS parent
	// and the entry label of its root.
	parent    map[string]string
	rootEntry map[string]string
	reachable map[string]bool
}

type refLineKey struct {
	file string
	line int
}

// Reachable reports whether the function qname is reachable from the
// package's roots (exported ∪ escaped ∪ top-level, or everything
// under Fallback).
func (r *refResult) Reachable(qname string) bool { return r.reachable[qname] }

// OwnerOf returns the qualified name of the function whose shallow
// body contains file:line ("file:" for top-level code, "" when the
// line is unknown to the pass).
func (r *refResult) OwnerOf(file string, line int) string {
	return r.ownerOf[refLineKey{file, line}]
}

// EntryName returns the canonical API name of an exported function
// ("" when the function is not part of the export surface).
func (r *refResult) EntryName(qname string) string { return r.entryName[qname] }

// PathTo resolves call-path provenance for a program point: the entry
// label (an export API name, or one of the markers "(module)",
// "(callback)", "(fallback)") and the call-hop chain of function
// qnames from the entry function to the function owning file:line.
// ok is false when the point is unknown or unreachable.
func (r *refResult) PathTo(file string, line int) (entry string, hops []string, ok bool) {
	owner := r.OwnerOf(file, line)
	if owner == "" {
		return "", nil, false
	}
	if strings.HasSuffix(owner, ":") {
		return "(module)", []string{owner}, true
	}
	if !r.reachable[owner] {
		return "", nil, false
	}
	for cur := owner; cur != ""; cur = r.parent[cur] {
		hops = append(hops, cur)
	}
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	root := hops[0]
	if strings.HasSuffix(root, ":") {
		// Rooted at top-level code (a function invoked during module
		// load).
		return "(module)", hops, true
	}
	return r.rootEntry[root], hops, true
}

// ---------------------------------------------------------------------------
// Abstract domain
// ---------------------------------------------------------------------------

// A value is a function (Fn != "") or an abstract object (index into
// interp.objs).
type refValue struct {
	Fn  string
	Obj int
}

type refValSet map[refValue]struct{}

func (s refValSet) add(v refValue) bool {
	if _, ok := s[v]; ok {
		return false
	}
	s[v] = struct{}{}
	return true
}

// object is one abstract allocation site: named properties plus a
// star bucket for dynamic writes and builtin merges.
type refObject struct {
	props map[string]refValSet
	dyn   refValSet
}

type refInterp struct {
	bud     *budget.Budget
	progs   []*core.Program
	modules map[string]bool

	objs    []*refObject
	site    map[string]int       // stable alloc key -> refObject id
	env     map[string]refValSet // "file:var" -> values
	funcs   map[string]*FuncInfo
	order   []string
	calls   map[string]map[string]bool
	escaped map[string]bool

	moduleObj  map[string]int
	exportsObj map[string]int

	ownerOf map[refLineKey]string

	changed bool
	aborted bool
}

// refAnalyze runs the export-graph pass over the normalized programs of
// one package. b may be nil; when set, the fixpoint consumes
// cooperative steps and aborts (to the fallback attack model) once
// the budget trips.
func refAnalyze(progs []*core.Program, b *budget.Budget) *refResult {
	ip := &refInterp{
		bud:        b,
		progs:      progs,
		modules:    map[string]bool{},
		site:       map[string]int{},
		env:        map[string]refValSet{},
		funcs:      map[string]*FuncInfo{},
		calls:      map[string]map[string]bool{},
		escaped:    map[string]bool{},
		moduleObj:  map[string]int{},
		exportsObj: map[string]int{},
		ownerOf:    map[refLineKey]string{},
	}
	// The coarse per-file/per-pass consults use b.Err — observing a
	// budget failure recorded elsewhere without charging checkpoints —
	// so the gate does not shift the deterministic fault-injection
	// ordinals of the phases around it. Fine-grained accounting (and
	// deadline checking) happens per statement in ip.step.
	for _, p := range progs {
		ip.modules[p.FileName] = true
		if b.Err() != nil {
			ip.aborted = true
		}
	}
	for _, p := range progs {
		if b.Err() != nil {
			ip.aborted = true
			break
		}
		ip.collect(p)
	}
	converged := false
	for pass := 0; pass < refMaxPasses && !ip.aborted; pass++ {
		if b.Err() != nil {
			ip.aborted = true
			break
		}
		ip.changed = false
		//lint:allow budgetloop -- walkStmts consults the budget per statement via ip.step
		for _, p := range ip.progs {
			ip.walkStmts(p.FileName, p.FileName+":", p.Body)
		}
		if !ip.changed {
			converged = true
			break
		}
	}
	if ip.aborted {
		converged = false
	}
	return ip.finish(converged)
}

// step charges one cooperative budget step; once the budget trips the
// whole pass aborts and the caller degrades to the fallback model.
func (ip *refInterp) step() bool {
	if err := ip.bud.Step(); err != nil {
		ip.aborted = true
		return false
	}
	return true
}

func (ip *refInterp) newObject(key string) int {
	if id, ok := ip.site[key]; ok {
		return id
	}
	ip.objs = append(ip.objs, &refObject{props: map[string]refValSet{}, dyn: refValSet{}})
	id := len(ip.objs) - 1
	ip.site[key] = id
	ip.changed = true
	return id
}

// collect pre-binds the per-file module/exports objects and hoists
// every function definition into the environment (including the base
// name of normalizer-renamed duplicates, which shadow by source name).
func (ip *refInterp) collect(p *core.Program) {
	file := p.FileName
	mo := ip.newObject("module@" + file)
	eo := ip.newObject("exports@" + file)
	ip.moduleObj[file] = mo
	ip.exportsObj[file] = eo
	ip.propSet(mo, "exports").add(refValue{Obj: eo})
	ip.envSet(file, "module").add(refValue{Obj: mo})
	ip.envSet(file, "exports").add(refValue{Obj: eo})

	var walk func(stmts []core.Stmt, owner string)
	walk = func(stmts []core.Stmt, owner string) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *core.FuncDef:
				q := file + ":" + st.Name
				if _, dup := ip.funcs[q]; !dup {
					ip.funcs[q] = &FuncInfo{Def: st, File: file, QName: q, Owner: owner}
					ip.order = append(ip.order, q)
				}
				fv := refValue{Fn: q}
				ip.envSet(file, st.Name).add(fv)
				if base := refBaseFnName(st.Name); base != st.Name {
					ip.envSet(file, base).add(fv)
				}
				for i, pn := range st.Params {
					ip.envSet(file, pn).add(refValue{Obj: ip.newObject("param@" + q + "#" + refItoa(i))})
				}
				walk(st.Body, q)
			case *core.If:
				walk(st.Then, owner)
				walk(st.Else, owner)
			case *core.While:
				walk(st.Body, owner)
			case *core.ForIn:
				walk(st.Body, owner)
			}
		}
	}
	walk(p.Body, file+":")
}

// refBaseFnName strips the normalizer's `$N` duplicate suffix.
func refBaseFnName(name string) string {
	i := strings.LastIndex(name, "$")
	if i <= 0 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

func refItoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

func (ip *refInterp) envSet(file, name string) refValSet {
	k := file + ":" + name
	s := ip.env[k]
	if s == nil {
		s = refValSet{}
		ip.env[k] = s
	}
	return s
}

func (ip *refInterp) propSet(obj int, prop string) refValSet {
	o := ip.objs[obj]
	s := o.props[prop]
	if s == nil {
		s = refValSet{}
		o.props[prop] = s
	}
	return s
}

func (ip *refInterp) envAdd(file, name string, vs refValSet) {
	if len(vs) == 0 {
		return
	}
	dst := ip.envSet(file, name)
	for v := range vs {
		if dst.add(v) {
			ip.changed = true
		}
	}
}

// eval resolves an expression to its abstract values. Unbound
// variables are lazily materialized as per-file global objects, the
// same way the analyzer's store lazily allocates nodes for them.
func (ip *refInterp) eval(file string, e core.Expr) refValSet {
	v, ok := e.(core.Var)
	if !ok {
		return nil
	}
	k := file + ":" + v.Name
	if s, ok := ip.env[k]; ok && len(s) > 0 {
		return s
	}
	s := ip.envSet(file, v.Name)
	if s.add(refValue{Obj: ip.newObject("global@" + k)}) {
		ip.changed = true
	}
	return s
}

// funcObj returns the property object of a function value (functions
// are objects too: `module.exports = f; f.helper = g`).
func (ip *refInterp) funcObj(qname string) int {
	return ip.newObject("fnprops@" + qname)
}

// lookup models `x := obj.p` over one abstract value, including the
// analyzer's lazy property materialization.
func (ip *refInterp) lookup(v refValue, prop string, out refValSet) {
	obj := v.Obj
	if v.Fn != "" {
		obj = ip.funcObj(v.Fn)
	}
	ps := ip.propSet(obj, prop)
	if len(ps) == 0 {
		ps.add(refValue{Obj: ip.newObject("prop@" + refItoa(obj) + "." + prop)})
	}
	for pv := range ps {
		out.add(pv)
	}
	for pv := range ip.objs[obj].dyn {
		out.add(pv)
	}
}

// allProps collects every named and dynamic property value of v.
func (ip *refInterp) allProps(v refValue, out refValSet) {
	obj := v.Obj
	if v.Fn != "" {
		obj = ip.funcObj(v.Fn)
	}
	for _, ps := range ip.objs[obj].props {
		for pv := range ps {
			out.add(pv)
		}
	}
	for pv := range ip.objs[obj].dyn {
		out.add(pv)
	}
}

func (ip *refInterp) storeProp(targets refValSet, prop string, vs refValSet) {
	for t := range targets {
		obj := t.Obj
		if t.Fn != "" {
			obj = ip.funcObj(t.Fn)
		}
		dst := ip.propSet(obj, prop)
		for v := range vs {
			if dst.add(v) {
				ip.changed = true
			}
		}
	}
}

func (ip *refInterp) storeDyn(targets refValSet, vs refValSet) {
	for t := range targets {
		obj := t.Obj
		if t.Fn != "" {
			obj = ip.funcObj(t.Fn)
		}
		dst := ip.objs[obj].dyn
		for v := range vs {
			if dst.add(v) {
				ip.changed = true
			}
		}
	}
}

func (ip *refInterp) addCall(owner, callee string) {
	m := ip.calls[owner]
	if m == nil {
		m = map[string]bool{}
		ip.calls[owner] = m
	}
	if !m[callee] {
		m[callee] = true
		ip.changed = true
	}
}

func (ip *refInterp) walkStmts(file, owner string, stmts []core.Stmt) {
	for _, s := range stmts {
		if !ip.step() {
			return
		}
		if ln := s.Line(); ln > 0 {
			ip.ownerOf[refLineKey{file, ln}] = owner
		}
		switch st := s.(type) {
		case *core.Assign:
			ip.envAdd(file, st.X, ip.eval(file, st.E))
		case *core.BinOp:
			ip.envSet(file, st.X).add(refValue{Obj: ip.newObject(refSiteKey(file, st.Idx))})
		case *core.UnOp:
			ip.envSet(file, st.X).add(refValue{Obj: ip.newObject(refSiteKey(file, st.Idx))})
		case *core.NewObj:
			ip.envSet(file, st.X).add(refValue{Obj: ip.newObject(refSiteKey(file, st.Idx))})
		case *core.Lookup:
			out := refValSet{}
			for v := range ip.eval(file, st.Obj) {
				ip.lookup(v, st.Prop, out)
			}
			ip.envAdd(file, st.X, out)
		case *core.DynLookup:
			out := refValSet{}
			for v := range ip.eval(file, st.Obj) {
				ip.allProps(v, out)
			}
			out.add(refValue{Obj: ip.newObject(refSiteKey(file, st.Idx))})
			ip.envAdd(file, st.X, out)
		case *core.Update:
			ip.storeProp(ip.eval(file, st.Obj), st.Prop, ip.eval(file, st.Val))
		case *core.DynUpdate:
			ip.storeDyn(ip.eval(file, st.Obj), ip.eval(file, st.Val))
		case *core.Call:
			ip.call(file, owner, st)
		case *core.FuncDef:
			ip.walkStmts(file, file+":"+st.Name, st.Body)
		case *core.If:
			ip.walkStmts(file, owner, st.Then)
			ip.walkStmts(file, owner, st.Else)
		case *core.While:
			ip.walkStmts(file, owner, st.Body)
		case *core.ForIn:
			// Loop keys are strings/fresh values; the analyzer wires
			// them with dependency edges only, which neither export
			// marking nor call resolution can see.
			ip.envSet(file, st.Key).add(refValue{Obj: ip.newObject(refSiteKey(file, st.Idx))})
			ip.walkStmts(file, owner, st.Body)
		case *core.Return:
			// Return values reach callers through dependency edges
			// only (the call result is the call node itself), so they
			// carry no export evidence and no call resolution.
		}
		if ip.aborted {
			return
		}
	}
}

func refSiteKey(file string, idx int) string { return "site@" + file + "#" + refItoa(idx) }

// call models one call site, mirroring the analyzer's order: require
// resolution, builtin models, then summary linking with the callback
// escape for unresolved callees.
func (ip *refInterp) call(file, owner string, st *core.Call) {
	resultObj := func() refValSet {
		s := refValSet{}
		s.add(refValue{Obj: ip.newObject(refSiteKey(file, st.Idx))})
		return s
	}

	if st.CalleeName == "require" && len(st.Args) == 1 && !st.IsNew {
		if lit, ok := st.Args[0].(core.Lit); ok && lit.Kind == core.LitString {
			if target, ok := ip.resolveModule(file, lit.Value); ok {
				out := refValSet{}
				for v := range ip.propSet(ip.moduleObj[target], "exports") {
					out.add(v)
				}
				out.add(refValue{Obj: ip.exportsObj[target]})
				ip.envAdd(file, st.X, out)
				return
			}
		}
		// External module: an opaque object (lazy props track member
		// reads like require('fs').readFile).
		ip.envAdd(file, st.X, resultObj())
		return
	}

	if ip.builtin(file, st) {
		return
	}

	callees := ip.eval(file, st.Callee)
	resolved := false
	for v := range callees {
		if v.Fn != "" {
			resolved = true
			ip.addCall(owner, v.Fn)
		}
	}
	if !resolved {
		// The analyzer's callback heuristic: function-valued arguments
		// of an unresolvable callee may be invoked with tainted data.
		for _, arg := range st.Args {
			for v := range ip.eval(file, arg) {
				if v.Fn != "" && !ip.escaped[v.Fn] {
					ip.escaped[v.Fn] = true
					ip.changed = true
				}
			}
		}
	}
	ip.envAdd(file, st.X, resultObj())
}

// builtin mirrors analysis.builtinCall's models: property-merging
// builtins move values between objects without escaping arguments.
func (ip *refInterp) builtin(file string, st *core.Call) bool {
	name := st.CalleeName
	switch {
	case name == "Object.assign":
		if len(st.Args) == 0 {
			return false
		}
		targets := ip.eval(file, st.Args[0])
		merged := refValSet{}
		for _, src := range st.Args[1:] {
			for v := range ip.eval(file, src) {
				ip.allProps(v, merged)
			}
		}
		ip.storeDyn(targets, merged)
		ip.envAdd(file, st.X, targets)
		return true
	case name == "JSON.parse":
		out := refValSet{}
		out.add(refValue{Obj: ip.newObject(refSiteKey(file, st.Idx))})
		ip.envAdd(file, st.X, out)
		return true
	case name == "Object.keys" || name == "Object.values" || name == "Object.entries":
		res := refValSet{}
		res.add(refValue{Obj: ip.newObject(refSiteKey(file, st.Idx))})
		vals := refValSet{}
		for _, arg := range st.Args {
			for v := range ip.eval(file, arg) {
				ip.allProps(v, vals)
			}
		}
		ip.storeDyn(res, vals)
		ip.envAdd(file, st.X, res)
		return true
	case strings.HasSuffix(name, ".push") || strings.HasSuffix(name, ".unshift"):
		recv := refValSet{}
		if st.This != nil {
			recv = ip.eval(file, st.This)
		}
		elems := refValSet{}
		for _, arg := range st.Args {
			for v := range ip.eval(file, arg) {
				elems.add(v)
			}
		}
		ip.storeDyn(recv, elems)
		out := refValSet{}
		out.add(refValue{Obj: ip.newObject(refSiteKey(file, st.Idx))})
		ip.envAdd(file, st.X, out)
		return true
	case strings.HasSuffix(name, ".concat"):
		res := refValSet{}
		res.add(refValue{Obj: ip.newObject(refSiteKey(file, st.Idx))})
		elems := refValSet{}
		if st.This != nil {
			for v := range ip.eval(file, st.This) {
				ip.allProps(v, elems)
			}
		}
		for _, arg := range st.Args {
			for v := range ip.eval(file, arg) {
				elems.add(v)
				ip.allProps(v, elems)
			}
		}
		ip.storeDyn(res, elems)
		ip.envAdd(file, st.X, res)
		return true
	}
	return false
}

// resolveModule mirrors analysis.resolveModule: relative specifiers
// against the requiring file's directory, then a basename fallback.
func (ip *refInterp) resolveModule(fromFile, spec string) (string, bool) {
	if !strings.HasPrefix(spec, "./") && !strings.HasPrefix(spec, "../") {
		return "", false
	}
	target := path.Clean(path.Join(path.Dir(fromFile), spec))
	for _, c := range []string{target, target + ".js", path.Join(target, "index.js")} {
		if ip.modules[c] {
			return c, true
		}
	}
	base := path.Base(target)
	files := make([]string, 0, len(ip.modules))
	for f := range ip.modules {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		fb := strings.TrimSuffix(path.Base(f), ".js")
		if fb == base || fb == strings.TrimSuffix(base, ".js") {
			return f, true
		}
	}
	return "", false
}

// ---------------------------------------------------------------------------
// Export closure, reachability and provenance
// ---------------------------------------------------------------------------

func (ip *refInterp) finish(converged bool) *refResult {
	r := &refResult{
		Funcs:     ip.funcs,
		Order:     ip.order,
		Calls:     map[string][]string{},
		Exported:  map[string]bool{},
		Escaped:   map[string]bool{},
		Converged: converged,
		entryName: map[string]string{},
		ownerOf:   ip.ownerOf,
		parent:    map[string]string{},
		rootEntry: map[string]string{},
		reachable: map[string]bool{},
	}
	for q := range ip.escaped {
		r.Escaped[q] = true
	}
	for owner, callees := range ip.calls {
		out := make([]string, 0, len(callees))
		for c := range callees {
			out = append(out, c)
		}
		sort.Strings(out)
		r.Calls[owner] = out
	}

	if converged {
		ip.exportClosure(r)
	}
	r.Fallback = !converged || len(r.Exported) == 0

	ip.solveReach(r)
	return r
}

// exportClosure walks the export surface of every module: the values
// of module.exports plus the original exports object, through object
// properties (named and dynamic), stopping at functions — exactly the
// flows analysis.markExported traverses.
func (ip *refInterp) exportClosure(r *refResult) {
	type item struct {
		v    refValue
		name string
		file string
	}
	var queue []item
	push := func(v refValue, name, file string) {
		queue = append(queue, item{v, name, file})
	}
	for _, p := range ip.progs {
		file := p.FileName
		direct := ip.propSet(ip.moduleObj[file], "exports")
		for _, v := range refSortedVals(direct) {
			if v.Obj == ip.exportsObj[file] {
				continue // seeded alias; named "exports" below
			}
			if v.Fn != "" {
				push(v, "module.exports", file)
			} else {
				push(v, "exports", file)
			}
		}
		push(refValue{Obj: ip.exportsObj[file]}, "exports", file)
	}

	seenObj := map[int]bool{}
	const maxDepth = 6 // matches the pollution query's version bound; API surfaces are shallow
	for len(queue) > 0 {
		if !ip.step() {
			return
		}
		it := queue[0]
		queue = queue[1:]
		if it.v.Fn != "" {
			q := it.v.Fn
			if !r.Exported[q] {
				r.Exported[q] = true
				r.entryName[q] = it.name
				r.Exports = append(r.Exports, Export{Name: it.name, File: it.file, Func: q})
			}
			continue
		}
		if seenObj[it.v.Obj] || strings.Count(it.name, ".") > maxDepth {
			continue
		}
		seenObj[it.v.Obj] = true
		o := ip.objs[it.v.Obj]
		props := make([]string, 0, len(o.props))
		for p := range o.props {
			props = append(props, p)
		}
		sort.Strings(props)
		for _, p := range props {
			for _, v := range refSortedVals(o.props[p]) {
				push(v, it.name+"."+p, it.file)
			}
		}
		for _, v := range refSortedVals(o.dyn) {
			push(v, it.name+"[*]", it.file)
		}
	}
	sort.Slice(r.Exports, func(i, j int) bool {
		a, b := r.Exports[i], r.Exports[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Func < b.Func
	})
}

func refSortedVals(s refValSet) []refValue {
	out := make([]refValue, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fn != out[j].Fn {
			return out[i].Fn < out[j].Fn
		}
		return out[i].Obj < out[j].Obj
	})
	return out
}

// solveReach runs the multi-source BFS over the call graph that
// yields both the reachable set and the provenance tree. Root layers
// in priority order — exported functions, module top-level code,
// escaped callbacks, then (under Fallback) every remaining function —
// so each function's provenance prefers an export-rooted path.
func (ip *refInterp) solveReach(r *refResult) {
	var queue []string
	enqueue := func(q, entry string) {
		if r.reachable[q] {
			return
		}
		r.reachable[q] = true
		r.rootEntry[q] = entry
		queue = append(queue, q)
	}

	var exported []string
	for q := range r.Exported {
		exported = append(exported, q)
	}
	sort.Strings(exported)
	for _, q := range exported {
		enqueue(q, r.entryName[q])
	}
	for _, p := range ip.progs {
		enqueue(p.FileName+":", "(module)")
	}
	var escaped []string
	for q := range r.Escaped {
		escaped = append(escaped, q)
	}
	sort.Strings(escaped)
	for _, q := range escaped {
		enqueue(q, "(callback)")
	}
	if r.Fallback {
		for _, q := range r.Order {
			enqueue(q, "(fallback)")
		}
	}

	for len(queue) > 0 {
		if !ip.step() {
			// Budget tripped mid-closure: degrade to keep-everything so
			// the caller never prunes on a half-computed graph.
			r.Fallback = true
			for _, q := range r.Order {
				enqueue(q, "(fallback)")
				queue = nil
			}
			for _, q := range r.Order {
				r.reachable[q] = true
			}
			return
		}
		cur := queue[0]
		queue = queue[1:]
		for _, callee := range r.Calls[cur] {
			if !r.reachable[callee] {
				r.reachable[callee] = true
				r.parent[callee] = cur
				r.rootEntry[callee] = r.rootEntry[cur]
				queue = append(queue, callee)
			}
		}
	}
}
