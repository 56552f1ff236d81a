// Package exports statically resolves a package's API surface over
// Core JavaScript: which function definitions are reachable from
// module.exports / exports, under local aliasing (`var api =
// module.exports`), object-literal methods, property re-assignment,
// and require re-export chains — plus an alias-aware call graph and
// per-line ownership, so findings can carry call-path provenance
// (entry export → hop chain → sink function).
//
// The pass is a flow-insensitive abstract interpretation whose value
// domain mirrors the MDG builder's store: every value-producing site
// (object literal, call result, binary operation, lazily materialized
// property or global) is one abstract object, and variables map to
// sets of functions and abstract objects. Export evidence follows
// exactly the flows analysis.markExported can see — property values
// and aliases, never dependency edges — so the gate's fallback
// decision agrees with the analyzer's attack model: a function
// returned from a helper call or stored through `this` is invisible
// to both, and a package with no property-reachable exported function
// falls back to treating every function as a root.
//
// Each Analyze lowers the programs once (interp.go) into a flat op
// array over dense variable, property, function and allocation-site
// ids, and runs the fixpoint passes over that array; strings appear
// again only in the Result.
//
// All function identifiers are uniformly file-qualified as
// "file:name" ("file:" is the file's top-level scope), for single-
// and multi-file packages alike.
package exports

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/budget"
	"repro/internal/core"
)

// maxPasses caps the fixpoint. The domain is finite and unions are
// monotone, so convergence is typically reached in two or three
// passes; hitting the cap flips the result to the fallback attack
// model (soundness over precision).
const maxPasses = 8

// FuncInfo describes one function definition.
type FuncInfo struct {
	Def   *core.FuncDef
	File  string
	QName string // "file:name"
	Owner string // enclosing function qname, or "file:" for top level
}

// Export is one resolved entry of the package's API surface.
type Export struct {
	Name string // API-surface name: "module.exports", "exports.run", "exports[*]"
	File string // defining module
	Func string // function qname
}

// Result is the resolved export graph of one package.
type Result struct {
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
	// Converged is false when the fixpoint hit maxPasses or the budget;
	// Fallback is forced in that case.
	Converged bool

	entryName map[string]string   // exported func -> canonical API name
	ownerOf   map[string][]string // file -> owner qname by line ("" unknown)

	// Call-path provenance tree over call-graph nodes (functions and
	// the per-file top-level pseudo-nodes "file:"): every reachable
	// node's BFS parent (-1 at a root) and the entry label of its root.
	nodes     map[string]int32
	names     []string
	parent    []int32
	rootEntry []string
	reachable []bool
}

// Reachable reports whether the function qname is reachable from the
// package's roots (exported ∪ escaped ∪ top-level, or everything
// under Fallback).
func (r *Result) Reachable(qname string) bool {
	n, ok := r.nodes[qname]
	return ok && r.reachable[n]
}

// OwnerOf returns the qualified name of the function whose shallow
// body contains file:line ("file:" for top-level code, "" when the
// line is unknown to the pass).
func (r *Result) OwnerOf(file string, line int) string {
	lines := r.ownerOf[file]
	if line < 0 || line >= len(lines) {
		return ""
	}
	return lines[line]
}

// PathTo resolves call-path provenance for a program point: the entry
// label (an export API name, or one of the markers "(module)",
// "(callback)", "(fallback)") and the call-hop chain of function
// qnames from the entry function to the function owning file:line.
// ok is false when the point is unknown or unreachable.
func (r *Result) PathTo(file string, line int) (entry string, hops []string, ok bool) {
	owner := r.OwnerOf(file, line)
	if owner == "" {
		return "", nil, false
	}
	if strings.HasSuffix(owner, ":") {
		return "(module)", []string{owner}, true
	}
	if !r.Reachable(owner) {
		return "", nil, false
	}
	for cur := r.nodes[owner]; cur >= 0; cur = r.parent[cur] {
		hops = append(hops, r.names[cur])
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
	return r.rootEntry[r.nodes[root]], hops, true
}

// Analyze runs the export-graph pass over the normalized programs of
// one package. b may be nil; when set, the fixpoint consumes
// cooperative steps and aborts (to the fallback attack model) once
// the budget trips.
func Analyze(progs []*core.Program, b *budget.Budget) *Result {
	ip := newInterp(progs, b)
	// The coarse per-file/per-pass consults use b.Err — observing a
	// budget failure recorded elsewhere without charging checkpoints —
	// so the gate does not shift the deterministic fault-injection
	// ordinals of the phases around it. Fine-grained accounting (and
	// deadline checking) happens per op in ip.pass.
	for i, p := range progs {
		ip.progFile[i] = ip.internFile(p)
		if b.Err() != nil {
			ip.aborted = true
		}
	}
	ip.ownerNames = make([]string, 0, len(ip.files)+len(progs)*4)
	for i := range progs {
		if b.Err() != nil {
			ip.aborted = true
			break
		}
		ip.lower(i)
	}
	converged := false
	for pass := 0; pass < maxPasses && !ip.aborted; pass++ {
		if b.Err() != nil {
			ip.aborted = true
			break
		}
		if !ip.pass() {
			break
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

// ---------------------------------------------------------------------------
// Export closure, reachability and provenance
// ---------------------------------------------------------------------------

func (ip *interp) finish(converged bool) *Result {
	// Every file's top-level pseudo-node is a call-graph root, lowered
	// or not (a budget abort can stop the lowering early).
	tops := make([]int32, len(ip.progs))
	for i, p := range ip.progs {
		tops[i] = ip.ownerID(p.FileName + ":")
	}
	r := &Result{
		Funcs:     ip.funcs,
		Order:     ip.order,
		Calls:     make(map[string][]string, len(ip.calls)),
		Exported:  map[string]bool{},
		Escaped:   map[string]bool{},
		Converged: converged,
		entryName: map[string]string{},
		ownerOf:   ip.ownerLines(),
		nodes:     ip.ownerIndex,
		names:     ip.ownerNames,
	}
	for fid, esc := range ip.escaped {
		if esc {
			r.Escaped[ip.fnNames[fid]] = true
		}
	}
	ip.rankFuncs()
	for owner, callees := range ip.calls {
		if len(callees) == 0 {
			continue
		}
		ip.byName(callees)
		out := make([]string, len(callees))
		for i, fid := range callees {
			out[i] = ip.fnNames[fid]
		}
		r.Calls[ip.ownerNames[owner]] = out
	}

	var exported []int32
	if converged {
		exported = ip.exportClosure(r)
	}
	r.Fallback = !converged || len(r.Exported) == 0

	ip.solveReach(r, tops, exported)
	return r
}

// rankFuncs orders the function ids by qname, the order every
// qname-sorted output of the pass uses.
func (ip *interp) rankFuncs() {
	ip.rank = make([]int32, len(ip.fnNames))
	if len(ip.rank) == 0 {
		return
	}
	byName := make([]int32, len(ip.fnNames))
	for i := range byName {
		byName[i] = int32(i)
	}
	sort.Slice(byName, func(i, j int) bool { return ip.fnNames[byName[i]] < ip.fnNames[byName[j]] })
	for pos, fid := range byName {
		ip.rank[fid] = int32(pos)
	}
}

// byName sorts function ids by qname.
func (ip *interp) byName(fids []int32) {
	slices.SortFunc(fids, func(a, b int32) int { return int(ip.rank[a]) - int(ip.rank[b]) })
}

// ownerLines replays the op order with last-write-wins: the last
// complete pass, then the prefix a budget-cut pass managed to visit —
// exactly the ownership map a per-statement write during the passes
// would leave behind.
func (ip *interp) ownerLines() map[string][]string {
	lines := make([][]string, len(ip.files))
	if ip.full {
		ip.replayOwners(lines, len(ip.ops))
	}
	if ip.cut > 0 {
		ip.replayOwners(lines, ip.cut)
	}
	out := make(map[string][]string, len(ip.files))
	for f, ls := range lines {
		if ls != nil {
			out[ip.files[f].name] = ls
		}
	}
	return out
}

func (ip *interp) replayOwners(lines [][]string, end int) {
	start := 0
	for pi, stop := range ip.progEnd {
		if start >= end {
			return
		}
		f := ip.progFile[pi]
		ls := lines[f]
		for i := start; i < int(stop) && i < end; i++ {
			o := &ip.ops[i]
			if o.line <= 0 {
				continue
			}
			if ls == nil {
				ls = make([]string, ip.files[f].maxLine+1)
				lines[f] = ls
			}
			ls[o.line] = ip.ownerNames[o.owner]
		}
		start = int(stop)
	}
}

// exportClosure walks the export surface of every module: the values
// of module.exports plus the original exports object, through object
// properties (named and dynamic), stopping at functions — exactly the
// flows analysis.markExported traverses. It returns the exported
// function ids in discovery order.
func (ip *interp) exportClosure(r *Result) []int32 {
	type item struct {
		v     int32
		depth int32 // dots in name
		name  string
		file  string
	}
	var exported []int32
	var queue []item
	for pi, p := range ip.progs {
		file := p.FileName
		fs := &ip.files[ip.progFile[pi]]
		for _, v := range ip.sortedVals(ip.propVals(fs.module, ip.exportsProp)) {
			if v == fs.exports {
				continue // seeded alias; named "exports" below
			}
			if v < 0 {
				queue = append(queue, item{v, 1, "module.exports", file})
			} else {
				queue = append(queue, item{v, 0, "exports", file})
			}
		}
		queue = append(queue, item{fs.exports, 0, "exports", file})
	}

	seenObj := make([]bool, len(ip.objs))
	const maxDepth = 6 // matches the pollution query's version bound; API surfaces are shallow
	for len(queue) > 0 {
		if !ip.step() {
			return exported
		}
		it := queue[0]
		queue = queue[1:]
		if it.v < 0 {
			q := ip.fnNames[fnID(it.v)]
			if !r.Exported[q] {
				r.Exported[q] = true
				r.entryName[q] = it.name
				r.Exports = append(r.Exports, Export{Name: it.name, File: it.file, Func: q})
				exported = append(exported, fnID(it.v))
			}
			continue
		}
		if seenObj[it.v] || it.depth > maxDepth {
			continue
		}
		seenObj[it.v] = true
		// The closure runs after the fixpoint, so sorting the object's
		// property list in place is safe.
		props := ip.objs[it.v].props
		if len(props) > 1 {
			sort.Slice(props, func(i, j int) bool {
				return ip.propNames[props[i].prop] < ip.propNames[props[j].prop]
			})
		}
		for _, p := range props {
			pname := ip.propNames[p.prop]
			name := it.name + "." + pname
			depth := it.depth + 1 + int32(strings.Count(pname, "."))
			for _, v := range ip.sortedVals(p.vals) {
				queue = append(queue, item{v, depth, name, it.file})
			}
		}
		for _, v := range ip.sortedVals(ip.objs[it.v].dyn) {
			queue = append(queue, item{v, it.depth, it.name + "[*]", it.file})
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
	return exported
}

// sortedVals orders a value set for the export closure: objects by id,
// then functions by qname.
func (ip *interp) sortedVals(s []int32) []int32 {
	k := 0
	for k < len(s) && s[k] < 0 {
		k++
	}
	if k == 0 {
		return s
	}
	out := make([]int32, 0, len(s))
	out = append(out, s[k:]...)
	out = append(out, s[:k]...)
	fns := out[len(s)-k:]
	slices.SortFunc(fns, func(a, b int32) int { return int(ip.rank[fnID(a)]) - int(ip.rank[fnID(b)]) })
	return out
}

// solveReach runs the multi-source BFS over the call graph that
// yields both the reachable set and the provenance tree. Root layers
// in priority order — exported functions, module top-level code,
// escaped callbacks, then (under Fallback) every remaining function —
// so each function's provenance prefers an export-rooted path.
func (ip *interp) solveReach(r *Result, tops, exported []int32) {
	n := len(ip.ownerNames)
	r.reachable = make([]bool, n)
	r.rootEntry = make([]string, n)
	r.parent = make([]int32, n)
	for i := range r.parent {
		r.parent[i] = -1
	}
	queue := make([]int32, 0, n)
	enqueue := func(node int32, entry string) {
		if r.reachable[node] {
			return
		}
		r.reachable[node] = true
		r.rootEntry[node] = entry
		queue = append(queue, node)
	}

	ip.byName(exported)
	for _, fid := range exported {
		enqueue(ip.fnNode[fid], r.entryName[ip.fnNames[fid]])
	}
	for _, top := range tops {
		enqueue(top, "(module)")
	}
	var escaped []int32
	for fid, esc := range ip.escaped {
		if esc {
			escaped = append(escaped, int32(fid))
		}
	}
	ip.byName(escaped)
	for _, fid := range escaped {
		enqueue(ip.fnNode[fid], "(callback)")
	}
	if r.Fallback {
		for _, node := range ip.fnNode {
			enqueue(node, "(fallback)")
		}
	}

	for len(queue) > 0 {
		if !ip.step() {
			// Budget tripped mid-closure: degrade to keep-everything so
			// the caller never prunes on a half-computed graph.
			r.Fallback = true
			for _, node := range ip.fnNode {
				enqueue(node, "(fallback)")
			}
			for _, node := range ip.fnNode {
				r.reachable[node] = true
			}
			return
		}
		cur := queue[0]
		queue = queue[1:]
		if int(cur) >= len(ip.calls) {
			continue
		}
		for _, fid := range ip.calls[cur] {
			if callee := ip.fnNode[fid]; !r.reachable[callee] {
				r.reachable[callee] = true
				r.parent[callee] = cur
				r.rootEntry[callee] = r.rootEntry[cur]
				queue = append(queue, callee)
			}
		}
	}
}
