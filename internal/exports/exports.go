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

// PathTables returns a Result holding only what PathTo and Reachable
// read — the owner lines and the provenance tree — plus Fallback and
// Converged, sharing r's tables. A scan keeps it, not r, for a later
// scan's provenance. nil stays nil.
func (r *Result) PathTables() *Result {
	if r == nil {
		return nil
	}
	return &Result{
		Fallback: r.Fallback, Converged: r.Converged,
		ownerOf: r.ownerOf, nodes: r.nodes, names: r.names,
		parent: r.parent, rootEntry: r.rootEntry, reachable: r.reachable,
	}
}

// Analyze runs the export-graph pass over the normalized programs of
// one package. b may be nil; when set, the fixpoint consumes
// cooperative steps and aborts (to the fallback attack model) once
// the budget trips. It is Merge over one unit holding every file.
func Analyze(progs []*core.Program, b *budget.Budget) *Result {
	u := AnalyzeUnit(progs, b)
	// The unit is this call's alone, so its result is finished in
	// place.
	return finishReach(u.res, []*Unit{u}, u.res.Converged, len(u.res.Exported) > 0, b)
}

// Unit is the export pass over one require-closed group of a
// package's files, up to the decisions that need the whole package:
// the fixpoint, the call graph, the exported closure and the escaped
// set. Every variable and lazily materialized global of the pass is
// file-scoped and files interact only through require, so the pass
// over a package whose files are split into groups that contain every
// require target they can resolve to is the disjoint union of the
// groups' passes: Merge over the groups' units equals Analyze over
// all files. A unit is read-only once built; its FuncInfo.Def point
// into the programs it was built from.
type Unit struct {
	// res carries every Result field except Fallback and the
	// provenance tree, which Merge decides package-wide.
	res *Result
	// The post-fixpoint call graph over dense ids, for Merge's BFS:
	// tops are the files' top-level nodes in file order, calls is
	// node -> callee function ids (sorted by qname), fnNode is
	// function id -> node, and exported and escaped list function ids
	// sorted by qname.
	tops, fnNode      []int32
	exported, escaped []int32
	calls             [][]int32
}

// Nodes counts the unit's call-graph nodes: its functions and its
// files' top-level code.
func (u *Unit) Nodes() int { return len(u.res.names) }

// AnalyzeUnit runs the export pass over one group of files (see Unit).
// b may be nil; a budget that trips mid-pass leaves a unit that did
// not converge.
func AnalyzeUnit(progs []*core.Program, b *budget.Budget) *Unit {
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
	u := ip.finish(converged)
	ip.release()
	return u
}

// Merge combines the units of one package into its Result. progs are
// the package's programs in package order (the units' files, each
// once); they fix the order of Result.Order. The package-wide
// decisions are made here: the fallback attack model applies when a
// unit did not converge or no unit has export evidence (and then no
// export closure counts, as in a pass over all files that did not
// converge), and the reachability BFS runs under it. The BFS charges
// b one step per visited node; a budget that trips mid-BFS degrades
// the result to keep-everything.
func Merge(units []*Unit, progs []*core.Program, b *budget.Budget) *Result {
	converged, evidence := true, false
	//lint:allow budgetloop -- O(#units) flag fold, no nested work
	for _, u := range units {
		converged = converged && u.res.Converged
		evidence = evidence || len(u.res.Exported) > 0
	}
	var r *Result
	if len(units) == 1 {
		cp := *units[0].res
		r = &cp
	} else {
		r = mergeResults(units, progs, converged)
	}
	return finishReach(r, units, converged, evidence, b)
}

// finishReach makes the package-wide fallback decision on r and runs
// the reachability BFS under it.
func finishReach(r *Result, units []*Unit, converged, evidence bool, b *budget.Budget) *Result {
	r.Fallback = !converged || !evidence
	solveReach(r, units, converged, b)
	return r
}

// mergeResults concatenates the units' results: maps are unioned (the
// units' files, functions and call-graph nodes are disjoint), node ids
// are offset by the nodes of the units before, and Order follows the
// package's file order. It walks each unit's slices and looks its maps
// up, which is cheaper than iterating the small maps.
func mergeResults(units []*Unit, progs []*core.Program, converged bool) *Result {
	nf, nn, nc := 0, 0, 0
	for _, u := range units {
		nf += len(u.res.Funcs)
		nn += len(u.res.names)
		nc += len(u.res.Calls)
	}
	r := &Result{
		Funcs:     make(map[string]*FuncInfo, nf),
		Order:     make([]string, 0, nf),
		Calls:     make(map[string][]string, nc),
		Exported:  map[string]bool{},
		Escaped:   map[string]bool{},
		Converged: converged,
		entryName: map[string]string{},
		ownerOf:   make(map[string][]string, len(progs)),
		nodes:     make(map[string]int32, nn),
		names:     make([]string, 0, nn),
	}
	// A unit's Order runs file by file; byFile maps each file to its
	// run.
	byFile := make(map[string][]string, len(progs))
	for _, u := range units {
		res := u.res
		off := int32(len(r.names))
		for i, name := range res.names {
			r.nodes[name] = off + int32(i)
			if callees, ok := res.Calls[name]; ok {
				r.Calls[name] = callees
			}
		}
		r.names = append(r.names, res.names...)
		for _, top := range u.tops {
			file := strings.TrimSuffix(res.names[top], ":")
			if lines, ok := res.ownerOf[file]; ok {
				r.ownerOf[file] = lines
			}
		}
		for lo := 0; lo < len(res.Order); {
			f := res.Funcs[res.Order[lo]]
			hi := lo
			for ; hi < len(res.Order); hi++ {
				fi := res.Funcs[res.Order[hi]]
				if fi.File != f.File {
					break
				}
				r.Funcs[fi.QName] = fi
			}
			byFile[f.File] = res.Order[lo:hi]
			lo = hi
		}
		for _, fid := range u.escaped {
			r.Escaped[res.names[u.fnNode[fid]]] = true
		}
		if converged {
			for _, fid := range u.exported {
				q := res.names[u.fnNode[fid]]
				r.Exported[q] = true
				r.entryName[q] = res.entryName[q]
			}
			r.Exports = append(r.Exports, res.Exports...)
		}
	}
	for _, p := range progs {
		r.Order = append(r.Order, byFile[p.FileName]...)
		delete(byFile, p.FileName)
	}
	sortExports(r.Exports)
	return r
}

// ---------------------------------------------------------------------------
// Export closure, reachability and provenance
// ---------------------------------------------------------------------------

// finish turns the settled interpreter into a unit: the call graph,
// the escaped set, per-line ownership and (when the fixpoint
// converged) the export closure.
func (ip *interp) finish(converged bool) *Unit {
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
	u := &Unit{res: r, tops: tops, fnNode: ip.fnNode, calls: ip.calls}
	for fid, esc := range ip.escaped {
		if esc {
			r.Escaped[ip.fnNames[fid]] = true
			u.escaped = append(u.escaped, int32(fid))
		}
	}
	ip.rankFuncs()
	ip.byName(u.escaped)
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
	if converged {
		u.exported = ip.exportClosure(r)
		ip.byName(u.exported)
	}
	return u
}

// rankFuncs orders the function ids by qname, the order every
// qname-sorted output of the pass uses.
func (ip *interp) rankFuncs() {
	ip.rank = slices.Grow(ip.rank[:0], len(ip.fnNames))[:len(ip.fnNames)]
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
	sortExports(r.Exports)
	return exported
}

// sortExports orders the API surface by defining module, name and
// function.
func sortExports(es []Export) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Func < b.Func
	})
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
// so each function's provenance prefers an export-rooted path. Units
// share no node, so one BFS per unit, node ids offset into r's, gives
// every node the parent and entry of one BFS over the whole package:
// a FIFO queue restricted to one unit's nodes is that unit's own BFS
// queue. Exported roots count only when every unit converged (a
// package pass that did not converge computes no export closure).
func solveReach(r *Result, units []*Unit, converged bool, b *budget.Budget) {
	n := len(r.names)
	r.reachable = make([]bool, n)
	r.rootEntry = make([]string, n)
	r.parent = make([]int32, n)
	//lint:allow budgetloop -- O(#nodes) slice fill
	for i := range r.parent {
		r.parent[i] = -1
	}
	// Every unit's roots are enqueued before any BFS step, so a budget
	// trip leaves every top-level node rooted as "(module)".
	// One unit, as in every cold scan, needs no allocated slices here.
	var one [1][]int32
	var oneOff [1]int32
	queues, offs := one[:], oneOff[:]
	if len(units) > 1 {
		queues, offs = make([][]int32, len(units)), make([]int32, len(units))
	}
	// A node is enqueued at most once, so each unit's queue fits in its
	// own stretch of one buffer.
	buf := make([]int32, n)
	var off int32
	//lint:allow budgetloop -- root enqueueing, O(#roots); the BFS below charges a step per visited node
	for k, u := range units {
		offs[k] = off
		queue := buf[off : off : int(off)+len(u.res.names)]
		enqueue := func(node int32, entry string) {
			node += off
			if r.reachable[node] {
				return
			}
			r.reachable[node] = true
			r.rootEntry[node] = entry
			queue = append(queue, node)
		}
		if converged {
			for _, fid := range u.exported {
				node := u.fnNode[fid]
				enqueue(node, u.res.entryName[u.res.names[node]])
			}
		}
		for _, top := range u.tops {
			enqueue(top, "(module)")
		}
		for _, fid := range u.escaped {
			enqueue(u.fnNode[fid], "(callback)")
		}
		if r.Fallback {
			for _, node := range u.fnNode {
				enqueue(node, "(fallback)")
			}
		}
		queues[k] = queue
		off += int32(len(u.res.names))
	}

	for k, u := range units {
		queue, off := queues[k], offs[k]
		for len(queue) > 0 {
			if b.Step() != nil {
				// Budget tripped mid-closure: degrade to keep-everything
				// so the caller never prunes on a half-computed graph.
				r.Fallback = true
				//lint:allow budgetloop -- degrade-to-keep-everything after the budget tripped; must complete
				for k, u := range units {
					for _, node := range u.fnNode {
						if node += offs[k]; !r.reachable[node] {
							r.reachable[node] = true
							r.rootEntry[node] = "(fallback)"
						}
					}
				}
				return
			}
			cur := queue[0]
			queue = queue[1:]
			if int(cur-off) >= len(u.calls) {
				continue
			}
			//lint:allow budgetloop -- callee list of one visited node; the visit charged its step
			for _, fid := range u.calls[cur-off] {
				if callee := off + u.fnNode[fid]; !r.reachable[callee] {
					r.reachable[callee] = true
					r.parent[callee] = cur
					r.rootEntry[callee] = r.rootEntry[cur]
					queue = append(queue, callee)
				}
			}
		}
	}
}
