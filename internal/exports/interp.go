package exports

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/budget"
	"repro/internal/core"
)

// ---------------------------------------------------------------------------
// Abstract domain
// ---------------------------------------------------------------------------

// A value is an abstract object (v ≥ 0, an index into interp.objs) or
// a function (v = -(fid+1)). A value set is a small sorted []int32, so
// functions sort before objects.

func fnValue(fid int32) int32 { return -fid - 1 }
func fnID(v int32) int32      { return -v - 1 }

// insert adds v to the sorted set s, reporting whether it was new.
func insert(s []int32, v int32) ([]int32, bool) {
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	if i < len(s) && s[i] == v {
		return s, false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s, true
}

// union merges the sorted set src into dst, reporting whether dst
// grew. dst is extended in place when it has room; src must not share
// dst's backing array unless it is dst itself (then nothing is new).
func union(dst, src []int32) ([]int32, bool) {
	n, i := 0, 0
	for _, v := range src {
		for i < len(dst) && dst[i] < v {
			i++
		}
		if i == len(dst) || dst[i] != v {
			n++
		}
	}
	if n == 0 {
		return dst, false
	}
	m := len(dst)
	dst = slices.Grow(dst, n)[:m+n]
	k, j := m+n-1, len(src)-1
	i = m - 1
	for j >= 0 {
		switch {
		case i >= 0 && dst[i] > src[j]:
			dst[k] = dst[i]
			i--
		case i >= 0 && dst[i] == src[j]:
			dst[k] = dst[i]
			i--
			j--
		default:
			dst[k] = src[j]
			j--
		}
		k--
	}
	return dst, true
}

// propVals is one named property of an abstract object.
type propVals struct {
	prop int32
	vals []int32
}

// object is one abstract allocation site: named properties plus a
// star bucket for dynamic writes and builtin merges.
type object struct {
	props []propVals
	dyn   []int32
}

// ---------------------------------------------------------------------------
// Lowered program
// ---------------------------------------------------------------------------

// opKind enumerates the lowered statement forms. Every Core statement
// becomes one op — control flow and definitions as no-ops (kind 0) — so a pass
// charges exactly one budget step per statement.
type opKind uint8

const (
	_             opKind = iota // no-op: if/while/func/return/break/continue
	opAssign                    // x := a
	opAlloc                     // x :=i {} (BinOp, UnOp, NewObj, for-in key)
	opResult                    // x :=i f(...) valued by its site alone (external require, JSON.parse)
	opLookup                    // x := a.prop
	opDynLookup                 // x :=i a[_]
	opUpdate                    // a.prop := b
	opDynUpdate                 // a[_] := b
	opRequire                   // x := require('./m'); aux is m's file id
	opAssignMerge               // x := Object.assign(a, args...)
	opKeys                      // x :=i Object.keys|values|entries(args...)
	opPush                      // x :=i b.push|unshift(args...)
	opConcat                    // x :=i b.concat(args...)
	opCall                      // x :=i a(args...): summary link or callback escape
)

// op is one lowered statement. Variables are dense ids (-1: a literal
// or absent operand); site is an allocation-site slot.
type op struct {
	kind  opKind
	x     int32
	a, b  int32
	aux   int32 // property id (opLookup, opUpdate) or target file (opRequire)
	site  int32
	args  int32 // argument variables: interp.args[args : args+nargs]
	nargs int32
	owner int32 // index into interp.ownerNames
	line  int32
}

// fileState is one interned module.
type fileState struct {
	name    string
	sites   []int32 // statement index -> site slot (-1: none yet)
	negSite int32   // shared slot of negative statement indices
	module  int32   // module object (-1 until lowered)
	exports int32   // exports object (-1 until lowered)
	maxLine int32
}

// varKey names a variable: variables are file-scoped by source name.
type varKey struct {
	file int32
	name string
}

type interp struct {
	bud   *budget.Budget
	progs []*core.Program

	// Interning tables, filled while lowering.
	files       []fileState
	fileIndex   map[string]int32
	progFile    []int32 // progs[i] -> file id
	sortedFiles []string
	propIndex   map[string]int32
	propNames   []string
	exportsProp int32
	vars        map[varKey]int32
	fnIndex     map[string]int32
	fnNames     []string  // fid -> qname
	fnNode      []int32   // fid -> owner id of its body
	params      [][]int32 // fid -> parameter objects
	rank        []int32   // fid -> position in qname order (set by finish)
	ownerIndex  map[string]int32
	ownerNames  []string // call-graph nodes: function qnames and "file:"

	// The lowered program: every op in walk preorder, files
	// concatenated in progs order (progs[i] ends at progEnd[i]).
	ops     []op
	args    []int32
	progEnd []int32

	// Abstract state.
	objs    []object
	env     [][]int32 // var id -> values
	sites   []int32   // site slot -> object (-1: not yet allocated)
	fnObj   []int32   // fid -> property object (-1: not yet allocated)
	escaped []bool    // fid -> passed to an unresolvable callee
	calls   [][]int32 // owner -> callee fids (sorted)
	scratch []int32

	funcs map[string]*FuncInfo
	order []string

	changed bool
	aborted bool
	full    bool // a complete pass ran
	cut     int  // ops visited by a budget-cut pass
}

// interpPool holds interpreters between passes (see release).
var interpPool = sync.Pool{New: func() any {
	return &interp{
		fileIndex: map[string]int32{},
		propIndex: map[string]int32{},
		vars:      map[varKey]int32{},
		fnIndex:   map[string]int32{},
	}
}}

// maxPooled caps the entries any one table may hold for its
// interpreter to be pooled, so one huge package cannot pin memory.
const maxPooled = 1 << 14

func newInterp(progs []*core.Program, b *budget.Budget) *interp {
	n := 0
	//lint:allow budgetloop -- O(#files) sum that sizes the tables; no per-statement work
	for _, p := range progs {
		n += p.MaxIndex
	}
	ip := interpPool.Get().(*interp)
	ip.bud, ip.progs = b, progs
	// The tables a Unit keeps are the caller's: fresh on every pass.
	ip.ownerIndex = map[string]int32{}
	ip.funcs = map[string]*FuncInfo{}
	// Sized from the corpus averages: per statement index about 1.4
	// ops, 1.2 variables, 0.9 objects and 0.5 allocation sites.
	ip.progFile = slices.Grow(ip.progFile[:0], len(progs))[:len(progs)]
	ip.ops = slices.Grow(ip.ops, n+n/2+len(progs))
	ip.env = slices.Grow(ip.env, n+n/4)
	ip.objs = slices.Grow(ip.objs, n+2*len(progs))
	ip.sites = slices.Grow(ip.sites, n/2+len(progs))
	return ip
}

// release returns the interpreter's working tables to the pool once
// finish has built the Unit: everything the Unit keeps (funcs, order,
// the owner index and names, fnNode, calls) is dropped from ip, and the
// rest is cleared. A pass the budget cut short drops its tables, as
// does one whose tables grew past maxPooled.
func (ip *interp) release() {
	if ip.aborted || cap(ip.ops) > maxPooled || cap(ip.env) > maxPooled ||
		cap(ip.objs) > maxPooled || len(ip.vars) > maxPooled {
		return
	}
	clear(ip.fileIndex)
	clear(ip.propIndex)
	clear(ip.vars)
	clear(ip.fnIndex)
	clear(ip.files)
	clear(ip.sortedFiles)
	clear(ip.propNames)
	clear(ip.fnNames)
	clear(ip.params)
	clear(ip.env)
	clear(ip.objs)
	*ip = interp{
		files:       ip.files[:0],
		fileIndex:   ip.fileIndex,
		progFile:    ip.progFile[:0],
		sortedFiles: ip.sortedFiles[:0],
		propIndex:   ip.propIndex,
		propNames:   ip.propNames[:0],
		vars:        ip.vars,
		fnIndex:     ip.fnIndex,
		fnNames:     ip.fnNames[:0],
		params:      ip.params[:0],
		rank:        ip.rank[:0],
		ops:         ip.ops[:0],
		args:        ip.args[:0],
		progEnd:     ip.progEnd[:0],
		objs:        ip.objs[:0],
		env:         ip.env[:0],
		sites:       ip.sites[:0],
		fnObj:       ip.fnObj[:0],
		escaped:     ip.escaped[:0],
		scratch:     ip.scratch[:0],
	}
	interpPool.Put(ip)
}

// step charges one cooperative budget step; once the budget trips the
// whole pass aborts and the caller degrades to the fallback model.
func (ip *interp) step() bool {
	if err := ip.bud.Step(); err != nil {
		ip.aborted = true
		return false
	}
	return true
}

func (ip *interp) internFile(p *core.Program) int32 {
	if f, ok := ip.fileIndex[p.FileName]; ok {
		return f
	}
	f := int32(len(ip.files))
	ip.files = append(ip.files, fileState{name: p.FileName, negSite: -1, module: -1, exports: -1})
	ip.fileIndex[p.FileName] = f
	return f
}

func (ip *interp) varID(f int32, name string) int32 {
	k := varKey{f, name}
	if v, ok := ip.vars[k]; ok {
		return v
	}
	v := int32(len(ip.env))
	ip.env = append(ip.env, nil)
	ip.vars[k] = v
	return v
}

func (ip *interp) operand(f int32, e core.Expr) int32 {
	if v, ok := e.(core.Var); ok {
		return ip.varID(f, v.Name)
	}
	return -1
}

func (ip *interp) propID(name string) int32 {
	if p, ok := ip.propIndex[name]; ok {
		return p
	}
	p := int32(len(ip.propNames))
	ip.propNames = append(ip.propNames, name)
	ip.propIndex[name] = p
	return p
}

func (ip *interp) ownerID(name string) int32 {
	if o, ok := ip.ownerIndex[name]; ok {
		return o
	}
	o := int32(len(ip.ownerNames))
	ip.ownerNames = append(ip.ownerNames, name)
	ip.ownerIndex[name] = o
	return o
}

// siteSlot returns the allocation-site slot of statement index idx in
// file f. Slots are assigned while lowering; the object behind one is
// allocated the first time a pass reaches it.
func (ip *interp) siteSlot(f int32, idx int) int32 {
	fs := &ip.files[f]
	slot := &fs.negSite
	if idx >= 0 {
		if idx >= len(fs.sites) {
			fs.sites = slices.Grow(fs.sites, idx+1-len(fs.sites))
			for len(fs.sites) <= idx {
				fs.sites = append(fs.sites, -1)
			}
		}
		slot = &fs.sites[idx]
	}
	if *slot < 0 {
		*slot = int32(len(ip.sites))
		ip.sites = append(ip.sites, -1)
	}
	return *slot
}

func (ip *interp) newObj() int32 {
	ip.objs = append(ip.objs, object{})
	ip.changed = true
	return int32(len(ip.objs) - 1)
}

// lower appends progs[i]'s ops and performs what used to be the
// separate collect walk, in the same preorder: bind the file's
// module/exports objects, then hoist every function definition (and
// the base name of a normalizer-renamed duplicate, which shadows by
// source name) with one object per parameter.
func (ip *interp) lower(i int) {
	p := ip.progs[i]
	f := ip.progFile[i]
	fs := &ip.files[f]
	if p.MaxIndex > len(fs.sites) {
		fs.sites = slices.Grow(fs.sites, p.MaxIndex-len(fs.sites))
	}
	if fs.module < 0 {
		fs.module = ip.newObj()
		fs.exports = ip.newObj()
		ip.exportsProp = ip.propID("exports")
	}
	mo, eo := fs.module, fs.exports
	ip.objs[mo].props = ip.addProp(ip.objs[mo].props, ip.exportsProp, eo)
	ip.addVar(ip.varID(f, "module"), mo)
	ip.addVar(ip.varID(f, "exports"), eo)
	ip.lowerStmts(f, ip.ownerID(p.FileName+":"), p.Body)
	ip.progEnd = append(ip.progEnd, int32(len(ip.ops)))
}

func (ip *interp) addProp(props []propVals, prop, v int32) []propVals {
	for k := range props {
		if props[k].prop == prop {
			props[k].vals, _ = insert(props[k].vals, v)
			return props
		}
	}
	return append(props, propVals{prop: prop, vals: []int32{v}})
}

// addVar adds v to a variable without flagging a change (collect-time
// bindings and fresh allocation results).
func (ip *interp) addVar(x, v int32) {
	ip.env[x], _ = insert(ip.env[x], v)
}

func (ip *interp) lowerStmts(f, owner int32, stmts []core.Stmt) {
	for _, s := range stmts {
		o := op{x: -1, a: -1, b: -1, aux: -1, site: -1, owner: owner, line: int32(s.Line())}
		if o.line > ip.files[f].maxLine {
			ip.files[f].maxLine = o.line
		}
		switch st := s.(type) {
		case *core.Assign:
			o.kind, o.x, o.a = opAssign, ip.varID(f, st.X), ip.operand(f, st.E)
		case *core.BinOp:
			o.kind, o.x, o.site = opAlloc, ip.varID(f, st.X), ip.siteSlot(f, st.Idx)
		case *core.UnOp:
			o.kind, o.x, o.site = opAlloc, ip.varID(f, st.X), ip.siteSlot(f, st.Idx)
		case *core.NewObj:
			o.kind, o.x, o.site = opAlloc, ip.varID(f, st.X), ip.siteSlot(f, st.Idx)
		case *core.Lookup:
			o.kind, o.x, o.a, o.aux = opLookup, ip.varID(f, st.X), ip.operand(f, st.Obj), ip.propID(st.Prop)
		case *core.DynLookup:
			o.kind, o.x, o.a, o.site = opDynLookup, ip.varID(f, st.X), ip.operand(f, st.Obj), ip.siteSlot(f, st.Idx)
		case *core.Update:
			o.kind, o.a, o.b, o.aux = opUpdate, ip.operand(f, st.Obj), ip.operand(f, st.Val), ip.propID(st.Prop)
		case *core.DynUpdate:
			o.kind, o.a, o.b = opDynUpdate, ip.operand(f, st.Obj), ip.operand(f, st.Val)
		case *core.Call:
			ip.lowerCall(f, &o, st)
		case *core.FuncDef:
			ip.ops = append(ip.ops, o)
			ip.lowerStmts(f, ip.define(f, owner, st), st.Body)
			continue
		case *core.If:
			ip.ops = append(ip.ops, o)
			ip.lowerStmts(f, owner, st.Then)
			ip.lowerStmts(f, owner, st.Else)
			continue
		case *core.While:
			ip.ops = append(ip.ops, o)
			ip.lowerStmts(f, owner, st.Body)
			continue
		case *core.ForIn:
			// Loop keys are strings/fresh values; the analyzer wires
			// them with dependency edges only, which neither export
			// marking nor call resolution can see.
			o.kind, o.x, o.site = opAlloc, ip.varID(f, st.Key), ip.siteSlot(f, st.Idx)
			ip.ops = append(ip.ops, o)
			ip.lowerStmts(f, owner, st.Body)
			continue
		}
		// Return, Break and Continue stay no-ops. Return values reach
		// callers through dependency edges only (the call result is
		// the call node itself), so they carry no export evidence and
		// no call resolution.
		ip.ops = append(ip.ops, o)
	}
}

// define hoists one function definition and returns the owner id of
// its body.
func (ip *interp) define(f, owner int32, st *core.FuncDef) int32 {
	file := ip.files[f].name
	q := file + ":" + st.Name
	fid, ok := ip.fnIndex[q]
	if !ok {
		fid = int32(len(ip.fnNames))
		ip.fnIndex[q] = fid
		ip.fnNames = append(ip.fnNames, q)
		ip.fnNode = append(ip.fnNode, ip.ownerID(q))
		ip.params = append(ip.params, nil)
		ip.funcs[q] = &FuncInfo{Def: st, File: file, QName: q, Owner: ip.ownerNames[owner]}
		ip.order = append(ip.order, q)
	}
	fv := fnValue(fid)
	ip.addVar(ip.varID(f, st.Name), fv)
	if base := baseFnName(st.Name); base != st.Name {
		ip.addVar(ip.varID(f, base), fv)
	}
	for i, pn := range st.Params {
		if i == len(ip.params[fid]) {
			ip.params[fid] = append(ip.params[fid], ip.newObj())
		}
		ip.addVar(ip.varID(f, pn), ip.params[fid][i])
	}
	return ip.fnNode[fid]
}

// baseFnName strips the normalizer's `$N` duplicate suffix.
func baseFnName(name string) string {
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

// lowerCall classifies one call site once, mirroring the analyzer's
// order: require resolution, builtin models, then summary linking with
// the callback escape for unresolved callees.
func (ip *interp) lowerCall(f int32, o *op, st *core.Call) {
	o.x = ip.varID(f, st.X)
	name := st.CalleeName
	if name == "require" && len(st.Args) == 1 && !st.IsNew {
		if lit, ok := st.Args[0].(core.Lit); ok && lit.Kind == core.LitString {
			if target, ok := ip.resolve(ip.files[f].name, lit.Value); ok {
				o.kind, o.aux = opRequire, ip.fileIndex[target]
				return
			}
		}
		// External module: an opaque object (lazy props track member
		// reads like require('fs').readFile).
		o.kind, o.site = opResult, ip.siteSlot(f, st.Idx)
		return
	}
	o.site = ip.siteSlot(f, st.Idx)
	args := st.Args
	switch {
	case name == "Object.assign" && len(args) > 0:
		o.kind, o.a, args = opAssignMerge, ip.operand(f, args[0]), args[1:]
	case name == "JSON.parse":
		o.kind, args = opResult, nil
	case name == "Object.keys" || name == "Object.values" || name == "Object.entries":
		o.kind = opKeys
	case strings.HasSuffix(name, ".push") || strings.HasSuffix(name, ".unshift"):
		o.kind, o.b = opPush, ip.operand(f, st.This)
	case strings.HasSuffix(name, ".concat"):
		o.kind, o.b = opConcat, ip.operand(f, st.This)
	default:
		o.kind, o.a = opCall, ip.operand(f, st.Callee)
	}
	o.args, o.nargs = int32(len(ip.args)), int32(len(args))
	for _, a := range args {
		ip.args = append(ip.args, ip.operand(f, a))
	}
}

// resolve resolves a require specifier (see core.ResolveRequire)
// against the interned files.
func (ip *interp) resolve(fromFile, spec string) (string, bool) {
	if len(ip.sortedFiles) == 0 {
		for _, f := range ip.files {
			ip.sortedFiles = append(ip.sortedFiles, f.name)
		}
		sort.Strings(ip.sortedFiles)
	}
	return core.ResolveRequire(ip.sortedFiles, fromFile, spec)
}

// ---------------------------------------------------------------------------
// Fixpoint pass
// ---------------------------------------------------------------------------

// pass runs every op once, charging one budget step each. It reports
// false when the budget tripped, recording how far the pass got.
func (ip *interp) pass() bool {
	if ip.calls == nil {
		ip.calls = make([][]int32, len(ip.ownerNames))
		nf := len(ip.fnNames)
		ip.fnObj = slices.Grow(ip.fnObj[:0], nf)[:nf]
		for i := range ip.fnObj {
			ip.fnObj[i] = -1
		}
		ip.escaped = slices.Grow(ip.escaped[:0], nf)[:nf]
		clear(ip.escaped)
	}
	ip.changed = false
	for i := range ip.ops {
		if !ip.step() {
			ip.cut = i
			return false
		}
		ip.exec(&ip.ops[i])
	}
	ip.full = true
	return true
}

func (ip *interp) exec(o *op) {
	switch o.kind {
	case opAssign:
		ip.envAdd(o.x, ip.eval(o.a))
	case opAlloc:
		ip.addVar(o.x, ip.site(o.site))
	case opResult:
		ip.envAddOne(o.x, ip.site(o.site))
	case opLookup:
		out := ip.scratch[:0]
		for _, v := range ip.eval(o.a) {
			out = ip.lookup(v, o.aux, out)
		}
		ip.envAdd(o.x, out)
		ip.scratch = out
	case opDynLookup:
		out := ip.scratch[:0]
		for _, v := range ip.eval(o.a) {
			out = ip.allProps(v, out)
		}
		out, _ = insert(out, ip.site(o.site))
		ip.envAdd(o.x, out)
		ip.scratch = out
	case opUpdate:
		targets, vs := ip.eval(o.a), ip.eval(o.b)
		for _, t := range targets {
			obj := ip.objOf(t)
			if len(vs) > 0 {
				ip.storeProp(obj, o.aux, vs)
			}
		}
	case opDynUpdate:
		ip.storeDyn(ip.eval(o.a), ip.eval(o.b))
	case opRequire:
		fs := &ip.files[o.aux]
		out, _ := union(ip.scratch[:0], ip.propVals(fs.module, ip.exportsProp))
		out, _ = insert(out, fs.exports)
		ip.envAdd(o.x, out)
		ip.scratch = out
	case opAssignMerge:
		targets := ip.eval(o.a)
		merged := ip.scratch[:0]
		for _, a := range ip.args[o.args : o.args+o.nargs] {
			for _, v := range ip.eval(a) {
				merged = ip.allProps(v, merged)
			}
		}
		ip.storeDyn(targets, merged)
		ip.envAdd(o.x, targets)
		ip.scratch = merged
	case opKeys:
		res := ip.site(o.site)
		vals := ip.scratch[:0]
		for _, a := range ip.args[o.args : o.args+o.nargs] {
			for _, v := range ip.eval(a) {
				vals = ip.allProps(v, vals)
			}
		}
		ip.storeDyn1(res, vals)
		ip.envAddOne(o.x, res)
		ip.scratch = vals
	case opPush:
		recv := ip.eval(o.b)
		elems := ip.scratch[:0]
		for _, a := range ip.args[o.args : o.args+o.nargs] {
			elems, _ = union(elems, ip.eval(a))
		}
		ip.storeDyn(recv, elems)
		ip.envAddOne(o.x, ip.site(o.site))
		ip.scratch = elems
	case opConcat:
		res := ip.site(o.site)
		elems := ip.scratch[:0]
		for _, v := range ip.eval(o.b) {
			elems = ip.allProps(v, elems)
		}
		for _, a := range ip.args[o.args : o.args+o.nargs] {
			for _, v := range ip.eval(a) {
				elems, _ = insert(elems, v)
				elems = ip.allProps(v, elems)
			}
		}
		ip.storeDyn1(res, elems)
		ip.envAddOne(o.x, res)
		ip.scratch = elems
	case opCall:
		ip.call(o)
	}
}

// call links a generic call site: resolved callees join the owner's
// call edges; otherwise function-valued arguments escape (the
// analyzer's callback heuristic may invoke them with tainted data).
func (ip *interp) call(o *op) {
	resolved := false
	for _, v := range ip.eval(o.a) {
		if v < 0 {
			resolved = true
			var added bool
			if ip.calls[o.owner], added = insert(ip.calls[o.owner], fnID(v)); added {
				ip.changed = true
			}
		}
	}
	if !resolved {
		for _, a := range ip.args[o.args : o.args+o.nargs] {
			for _, v := range ip.eval(a) {
				if v < 0 && !ip.escaped[fnID(v)] {
					ip.escaped[fnID(v)] = true
					ip.changed = true
				}
			}
		}
	}
	ip.envAddOne(o.x, ip.site(o.site))
}

// site returns the object of an allocation-site slot, allocating it on
// first use.
func (ip *interp) site(slot int32) int32 {
	if ip.sites[slot] < 0 {
		ip.sites[slot] = ip.newObj()
	}
	return ip.sites[slot]
}

// eval resolves a variable to its abstract values. Unbound variables
// are lazily materialized as per-file global objects, the same way the
// analyzer's store lazily allocates nodes for them; a literal operand
// (-1) has no values.
func (ip *interp) eval(x int32) []int32 {
	if x < 0 {
		return nil
	}
	if s := ip.env[x]; len(s) > 0 {
		return s
	}
	ip.env[x] = []int32{ip.newObj()}
	ip.changed = true
	return ip.env[x]
}

func (ip *interp) envAdd(x int32, vs []int32) {
	var grew bool
	if ip.env[x], grew = union(ip.env[x], vs); grew {
		ip.changed = true
	}
}

func (ip *interp) envAddOne(x, v int32) {
	var added bool
	if ip.env[x], added = insert(ip.env[x], v); added {
		ip.changed = true
	}
}

// objOf returns the object holding v's properties: v itself, or the
// property object of a function value (functions are objects too:
// `module.exports = f; f.helper = g`).
func (ip *interp) objOf(v int32) int32 {
	if v >= 0 {
		return v
	}
	fid := fnID(v)
	if ip.fnObj[fid] < 0 {
		ip.fnObj[fid] = ip.newObj()
	}
	return ip.fnObj[fid]
}

func (ip *interp) propVals(obj, prop int32) []int32 {
	for _, p := range ip.objs[obj].props {
		if p.prop == prop {
			return p.vals
		}
	}
	return nil
}

// lookup models `x := obj.p` over one abstract value, including the
// analyzer's lazy property materialization.
func (ip *interp) lookup(v, prop int32, out []int32) []int32 {
	obj := ip.objOf(v)
	ps := ip.propVals(obj, prop)
	if len(ps) == 0 {
		nv := ip.newObj()
		ip.objs[obj].props = ip.addProp(ip.objs[obj].props, prop, nv)
		ps = ip.propVals(obj, prop)
	}
	out, _ = union(out, ps)
	out, _ = union(out, ip.objs[obj].dyn)
	return out
}

// allProps collects every named and dynamic property value of v.
func (ip *interp) allProps(v int32, out []int32) []int32 {
	o := &ip.objs[ip.objOf(v)]
	for _, p := range o.props {
		out, _ = union(out, p.vals)
	}
	out, _ = union(out, o.dyn)
	return out
}

func (ip *interp) storeProp(obj, prop int32, vs []int32) {
	props := ip.objs[obj].props
	for k := range props {
		if props[k].prop == prop {
			var grew bool
			if props[k].vals, grew = union(props[k].vals, vs); grew {
				ip.changed = true
			}
			return
		}
	}
	ip.objs[obj].props = append(props, propVals{prop: prop, vals: slices.Clone(vs)})
	ip.changed = true
}

func (ip *interp) storeDyn(targets, vs []int32) {
	for _, t := range targets {
		ip.storeDyn1(ip.objOf(t), vs)
	}
}

func (ip *interp) storeDyn1(obj int32, vs []int32) {
	var grew bool
	if ip.objs[obj].dyn, grew = union(ip.objs[obj].dyn, vs); grew {
		ip.changed = true
	}
}
