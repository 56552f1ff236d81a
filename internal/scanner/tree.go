package scanner

// Dependency-tree scanning (Options.Tree): instead of treating every
// bare require('pkg') as an opaque external module, the scanner
// resolves the package's node_modules tree with internal/deptree,
// builds one MDG fragment per package exactly as the incremental
// scanner builds per-component fragments, stitches the fragments into
// one graph, and then *links* the cross-package boundaries: every
// placeholder module node left behind by an unresolved require is
// grafted onto the real dependency's exports, so taint flows through
// require('dep').f(x) into the dependency's real exported function.
//
// The linker only replays edges the combined whole-program analysis
// would have created itself (the tree-equivalence oracle in
// tree_oracle_test.go enforces byte-identical findings against a
// flattened single-package scan), and per-package fragments stay
// independently cacheable: a warm re-scan after editing one dependency
// rebuilds only that package's fragment.

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/deptree"
	"repro/internal/mdg"
	"repro/internal/queries"
	"repro/internal/reach"
)

// treeKeyPrefix namespaces tree-mode fragment keys so they can share
// an IncrementalState (and its store) with per-component keys without
// either mode invalidating the other's entries.
const treeKeyPrefix = "tree|"

// treePackageKey identifies one package's fragment by its directory,
// its files' lowered-program keys, and the analysis options shaping it.
func treePackageKey(dir string, units []fileUnit, aoptsKey string) string {
	h := sha256.New()
	h.Write([]byte(aoptsKey))
	h.Write([]byte{0})
	h.Write([]byte(dir))
	h.Write([]byte{0})
	for _, u := range units {
		h.Write([]byte(u.rel))
		h.Write([]byte{0})
		h.Write(u.fe.key[:])
	}
	return treeKeyPrefix + fmt.Sprintf("%x", h.Sum(nil))
}

// ---------------------------------------------------------------------------
// Cross-package linker
// ---------------------------------------------------------------------------

// treeLinker grafts cross-package flows onto a stitched graph. All
// lookups are read-only graph queries (never the lazy-extending AP),
// and every added edge replays one the combined whole-program analysis
// would have created: resolved-require value edges, placeholder
// property flows, and call-summary linking into dependency functions.
type treeLinker struct {
	g     *mdg.Graph
	tree  *deptree.Tree
	byLoc map[mdg.Loc]*analysis.FuncSummary
	// ph maps each stitched placeholder module node to the package
	// that required it and the (bare) specifier it used.
	ph map[mdg.Loc]phInfo
	// fileEnv maps each module file to its stitched CommonJS globals.
	fileEnv map[string]analysis.ModuleLocs
	// resolved maps placeholder-derived nodes (placeholders and their
	// lazy property nodes) to the real value set they stand for.
	resolved map[mdg.Loc][]mdg.Loc
	// fileVals memoizes moduleVals per target file; a nil entry marks
	// in-progress computation, cutting require cycles.
	fileVals map[string][]mdg.Loc
	phVals   map[mdg.Loc][]mdg.Loc
	phBusy   map[mdg.Loc]bool
}

type phInfo struct {
	pkg  *deptree.Package
	spec string
}

// linkTree stitches the fragments' records into one acquired graph,
// in lives order, builds the merged analysis result over it and runs
// the cross-package linker. Each record's summaries and side tables
// are decoded afresh and moved to its stitch offset.
func linkTree(lives []liveFrag, tree *deptree.Tree, anyReal bool) (*analysis.Result, error) {
	g := mdg.Acquire()
	ln := &treeLinker{
		g:        g,
		tree:     tree,
		byLoc:    make(map[mdg.Loc]*analysis.FuncSummary),
		ph:       make(map[mdg.Loc]phInfo),
		fileEnv:  make(map[string]analysis.ModuleLocs),
		resolved: make(map[mdg.Loc][]mdg.Loc),
		fileVals: make(map[string][]mdg.Loc),
		phVals:   make(map[mdg.Loc][]mdg.Loc),
		phBusy:   make(map[mdg.Loc]bool),
	}

	// Merged result, keyed by package dir so same-named functions in
	// different packages cannot collide.
	merged := make(map[string]*analysis.FuncSummary)
	res := &analysis.Result{Graph: g, Functions: merged, HasRealExports: anyReal}
	parts := make([]linkPart, len(lives))
	for i, lv := range lives {
		fb, off, err := readFragEntry(lv.fe.enc, g)
		if err != nil {
			g.Release()
			return nil, err
		}
		parts[i] = linkPart{off: off, calleeLocs: fb.calleeLocs, callThis: fb.callThis}
		for j, name := range fb.names {
			fn := &fb.funcs[j]
			fn.Loc, fn.ThisLoc, fn.RetLoc = fn.Loc.Shift(off), fn.ThisLoc.Shift(off), fn.RetLoc.Shift(off)
			for k, p := range fn.Params {
				fn.Params[k] = p.Shift(off)
			}
			merged[lv.pkg.Dir+"|"+name] = fn
			ln.byLoc[fn.Loc] = fn
			if n := g.Node(fn.Loc); n != nil {
				n.Exported = fn.Exported
			}
		}
		for _, e := range fb.externals {
			ln.ph[e.loc.Shift(off)] = phInfo{pkg: lv.pkg, spec: e.spec}
		}
		for _, me := range fb.modEnv {
			ln.fileEnv[me.file] = analysis.ModuleLocs{
				Module:  me.locs.Module.Shift(off),
				Exports: me.locs.Exports.Shift(off),
			}
		}
	}

	ln.graft(parts)
	return res, nil
}

// linkPart is what the call-grafting pass reads of one stitched
// fragment: its offset and its fragment-local call tables, each in
// ascending call-location order.
type linkPart struct {
	off                  mdg.Loc
	calleeLocs, callThis []locRow
}

// graft runs the three linking passes in deterministic order.
func (ln *treeLinker) graft(parts []linkPart) {
	// Pass 1 — require grafting: every require('pkg') call node gains
	// value edges to the dependency's real exports, replaying the
	// resolved-require branch of the abstract interpreter.
	phs := make([]mdg.Loc, 0, len(ln.ph))
	for ml := range ln.ph {
		phs = append(phs, ml)
	}
	sort.Slice(phs, func(i, j int) bool { return phs[i] < phs[j] })
	for _, ml := range phs {
		vals := ln.resolvePlaceholder(ml)
		if len(vals) == 0 {
			continue
		}
		ln.resolved[ml] = vals
		ins := append([]mdg.Edge(nil), ln.g.In(ml)...)
		for _, e := range ins {
			if e.Type != mdg.Dep {
				continue
			}
			cn := ln.g.Node(e.From)
			if cn == nil || cn.Kind != mdg.KindCall || cn.CallName != "require" {
				continue
			}
			for _, v := range vals {
				ln.g.AddDep(e.From, v)
			}
		}
	}

	// Pass 2 — property grafting: lazy property nodes hanging off a
	// placeholder (require('dep').f reads) receive the dependency's
	// real property values, transitively through nested objects.
	type workItem struct {
		node mdg.Loc
		vals []mdg.Loc
	}
	queue := make([]workItem, 0, len(phs))
	for _, ml := range phs {
		if vals := ln.resolved[ml]; len(vals) > 0 {
			queue = append(queue, workItem{ml, vals})
		}
	}
	seen := map[mdg.Loc]bool{}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if seen[it.node] {
			continue
		}
		seen[it.node] = true
		outs := append([]mdg.Edge(nil), ln.g.Out(it.node)...)
		for _, e := range outs {
			if e.Type != mdg.Prop {
				continue
			}
			pn := e.To
			var tv []mdg.Loc
			for _, r := range it.vals {
				tv = append(tv, ln.g.Lookup(r, e.Prop).Values...)
			}
			tv = ln.expandLocs(tv)
			if len(tv) == 0 {
				continue
			}
			for _, v := range tv {
				ln.g.AddDep(v, pn)
			}
			ln.resolved[pn] = dedupeSortedLocs(append(ln.resolved[pn], tv...))
			if !seen[pn] {
				queue = append(queue, workItem{pn, ln.resolved[pn]})
			}
		}
	}

	// Pass 3 — call grafting: calls whose abstract callee set contains
	// a placeholder-derived node are linked to the real dependency
	// function summaries, replaying the interpreter's summary linking
	// (argument → parameter, this → ThisLoc, RetLoc → call).
	for _, part := range parts {
		off := part.off
		this := part.callThis
		for _, row := range part.calleeLocs {
			ncl := row.loc.Shift(off)
			cn := ln.g.Node(ncl)
			if cn == nil {
				continue
			}
			// Both tables ascend by call location: advance to row's.
			for len(this) > 0 && this[0].loc < row.loc {
				this = this[1:]
			}
			var thisLocs []mdg.Loc
			if len(this) > 0 && this[0].loc == row.loc {
				for _, tl := range this[0].vals {
					thisLocs = append(thisLocs, tl.Shift(off))
				}
			}
			for _, x := range row.vals {
				for _, t := range ln.resolved[x.Shift(off)] {
					sum := ln.byLoc[t]
					if sum == nil {
						continue
					}
					for ai, als := range cn.CallArgs {
						if ai >= len(sum.Params) {
							break
						}
						for _, al := range als {
							ln.g.AddDep(al, sum.Params[ai])
						}
					}
					for _, tl := range thisLocs {
						ln.g.AddDep(tl, sum.ThisLoc)
					}
					ln.g.AddDep(sum.RetLoc, ncl)
				}
			}
		}
	}
}

// resolvePlaceholder resolves one placeholder module node to the real
// export values of its dependency ("expanded": nested placeholders in
// re-export chains are resolved recursively, cycle-safe). External or
// unusable targets yield nil — the placeholder stays opaque, exactly
// like an unresolved require in a single-package scan.
func (ln *treeLinker) resolvePlaceholder(ml mdg.Loc) []mdg.Loc {
	if v, ok := ln.phVals[ml]; ok {
		return v
	}
	if ln.phBusy[ml] {
		return nil
	}
	ln.phBusy[ml] = true
	defer delete(ln.phBusy, ml)
	info, ok := ln.ph[ml]
	var vals []mdg.Loc
	if ok {
		if target, err := ln.tree.Resolve(info.pkg, info.spec); err == nil {
			vals = ln.moduleVals(target)
		}
	}
	ln.phVals[ml] = vals
	return vals
}

// moduleVals reproduces the resolved-require value set of the
// interpreter: the module's exports object plus everything any
// version of the module object holds under "exports".
func (ln *treeLinker) moduleVals(file string) []mdg.Loc {
	if v, ok := ln.fileVals[file]; ok {
		return v
	}
	ln.fileVals[file] = nil // in-progress: cuts require cycles
	me, ok := ln.fileEnv[file]
	if !ok {
		return nil
	}
	raw := []mdg.Loc{me.Exports}
	for _, mv := range allGraphVersions(ln.g, me.Module) {
		raw = append(raw, ln.g.Lookup(mv, "exports").Values...)
	}
	out := ln.expandLocs(raw)
	ln.fileVals[file] = out
	return out
}

// expandLocs replaces placeholder module nodes in a value set with
// their resolved dependency exports (recursively), drops the
// placeholders themselves, and dedupes in sorted order.
func (ln *treeLinker) expandLocs(ls []mdg.Loc) []mdg.Loc {
	var out []mdg.Loc
	for _, l := range ls {
		if _, isPH := ln.ph[l]; isPH {
			out = append(out, ln.resolvePlaceholder(l)...)
			continue
		}
		out = append(out, l)
	}
	return dedupeSortedLocs(out)
}

// allGraphVersions walks the version-successor closure of l (the
// linker's counterpart of the interpreter's allVersions).
func allGraphVersions(g *mdg.Graph, l mdg.Loc) []mdg.Loc {
	var out []mdg.Loc
	seen := map[mdg.Loc]bool{}
	var walk func(v mdg.Loc)
	walk = func(v mdg.Loc) {
		if seen[v] {
			return
		}
		seen[v] = true
		out = append(out, v)
		for _, s := range g.VersionSuccessors(v) {
			walk(s)
		}
	}
	walk(l)
	return out
}

// dedupeSortedLocs sorts and dedupes a location set (deterministic
// iteration for every graft pass).
func dedupeSortedLocs(ls []mdg.Loc) []mdg.Loc {
	if len(ls) == 0 {
		return nil
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	out := ls[:1]
	for _, l := range ls[1:] {
		if l != out[len(out)-1] {
			out = append(out, l)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Tree provenance
// ---------------------------------------------------------------------------

// annotateTreeProvenance attaches call-path provenance with uniform
// pkg:file:name hop qualification (same-named functions in different
// dependencies cannot collide) and a dependency-hop path: the chain of
// packages the call path crosses, root first. Every tree finding
// carries at least the sink's owning package.
func annotateTreeProvenance(rep *Report, rr *reach.Result, tree *deptree.Tree) {
	for i := range rep.Findings {
		f := &rep.Findings[i]
		var hops []string
		entry := "(unresolved)"
		fallback := true
		if rr != nil && rr.Exports != nil {
			if e, hs, ok := rr.Exports.PathTo(f.SinkFile, f.SinkLine); ok {
				entry, hops, fallback = e, hs, rr.Fallback
			} else {
				fallback = rr.Fallback
			}
		}
		qhops := make([]string, len(hops))
		depPath := []string{}
		lastPkg := ""
		addPkg := func(p *deptree.Package) {
			if p == nil {
				return
			}
			label := treePkgLabel(p)
			if label != lastPkg {
				depPath = append(depPath, label)
				lastPkg = label
			}
		}
		// The entry hop chain starts at the root package's API in the
		// common case; record each boundary crossing in order.
		for j, h := range hops {
			file := h
			if idx := strings.Index(h, ":"); idx >= 0 {
				file = h[:idx]
			}
			owner := tree.Owner(file)
			pkgName := "?"
			if owner != nil {
				pkgName = treePkgName(owner)
			}
			qhops[j] = pkgName + ":" + h
			addPkg(owner)
		}
		// The sink's own package always terminates the path, resolved
		// provenance or not — a tree finding is never package-less.
		addPkg(tree.Owner(f.SinkFile))
		if len(depPath) == 0 {
			depPath = append(depPath, "(unresolved)")
		}
		f.Provenance = queries.Provenance{
			Entry:    entry,
			Hops:     qhops,
			Fallback: fallback,
			DepPath:  depPath,
		}
		if len(qhops) > rep.ProvenanceDepth {
			rep.ProvenanceDepth = len(qhops)
		}
	}
}

// treePkgName names a package for hop qualification ("(root)" for the
// tree root when it has no package.json name).
func treePkgName(p *deptree.Package) string {
	if p.Name != "" {
		return p.Name
	}
	if p.Dir == "" {
		return "(root)"
	}
	return p.Dir
}

// treePkgLabel renders one dependency-path hop: the package name, its
// version when known, and the node_modules directory that supplied it.
func treePkgLabel(p *deptree.Package) string {
	name := treePkgName(p)
	if p.Dir == "" {
		return name
	}
	if p.Version != "" {
		return fmt.Sprintf("%s@%s (%s)", name, p.Version, p.Dir)
	}
	return fmt.Sprintf("%s (%s)", name, p.Dir)
}
