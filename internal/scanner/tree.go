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
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/deptree"
	"repro/internal/mdg"
	"repro/internal/queries"
	"repro/internal/reach"
)

// ScanTreeDir scans a package directory *including* its node_modules
// dependencies as one dependency tree. Unlike ScanPackage's walker it
// descends into node_modules and collects package.json manifests (for
// the resolver), while still skipping test directories and VCS
// internals.
func ScanTreeDir(dir string, opts Options) *Report {
	var files []SourceFile
	var readErr error
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			base := filepath.Base(path)
			if base == "test" || base == "tests" || base == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		isJS := strings.HasSuffix(path, ".js") && !strings.HasSuffix(path, ".min.js")
		if !isJS && filepath.Base(path) != "package.json" {
			return nil
		}
		rel, relErr := filepath.Rel(dir, path)
		if relErr != nil {
			rel = path
		}
		data, rdErr := os.ReadFile(path)
		if rdErr != nil {
			if readErr == nil {
				readErr = fmt.Errorf("scanner: %w", rdErr)
			}
			return nil
		}
		files = append(files, SourceFile{Rel: filepath.ToSlash(rel), Src: string(data)})
		return nil
	})
	if err != nil {
		return &Report{Name: dir, Err: fmt.Errorf("scanner: %w", err)}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Rel < files[j].Rel })
	opts.Tree = true
	return scanFiles(files, dir, opts, readErr)
}

// treeKeyPrefix namespaces tree-mode fragment keys so they can share
// an IncrementalState (and its store) with per-component keys without
// either mode invalidating the other's entries.
const treeKeyPrefix = "tree|"

// treePackageKey identifies one package's fragment by its directory,
// its files' content hashes, and the analysis options shaping it.
func treePackageKey(dir string, units []fileUnit, aoptsKey string) string {
	h := sha256.New()
	h.Write([]byte(aoptsKey))
	h.Write([]byte{0})
	h.Write([]byte(dir))
	h.Write([]byte{0})
	for _, u := range units {
		h.Write([]byte(u.rel))
		h.Write([]byte{0})
		h.Write(u.fe.hash[:])
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

// linkTree builds the merged analysis result for a stitched tree and
// runs the cross-package linker over it.
func linkTree(g *mdg.Graph, remaps []map[mdg.Loc]mdg.Loc, lives []liveFrag, tree *deptree.Tree, anyReal bool) *analysis.Result {
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

	// Merged result: per-scan summary copies with stitched locations
	// (cached fragment summaries are shared across scans and must not
	// be mutated), keyed by package dir so same-named functions in
	// different packages cannot collide.
	merged := make(map[string]*analysis.FuncSummary)
	res := &analysis.Result{Graph: g, Functions: merged, HasRealExports: anyReal}
	rm := func(remap map[mdg.Loc]mdg.Loc, l mdg.Loc) mdg.Loc {
		if l == mdg.NoLoc {
			return mdg.NoLoc
		}
		return remap[l]
	}
	for i, lv := range lives {
		remap := remaps[i]
		for fname, fn := range lv.fe.functions {
			nf := &analysis.FuncSummary{
				Loc:      rm(remap, fn.Loc),
				ThisLoc:  rm(remap, fn.ThisLoc),
				RetLoc:   rm(remap, fn.RetLoc),
				Exported: lv.fe.realExported[fname],
			}
			for _, p := range fn.Params {
				nf.Params = append(nf.Params, rm(remap, p))
			}
			merged[lv.pkg.Dir+"|"+fname] = nf
			ln.byLoc[nf.Loc] = nf
			if n := g.Node(nf.Loc); n != nil {
				n.Exported = nf.Exported
			}
		}
		for spec, ml := range lv.fe.externals {
			ln.ph[rm(remap, ml)] = phInfo{pkg: lv.pkg, spec: spec}
		}
		for file, me := range lv.fe.modEnv {
			ln.fileEnv[file] = analysis.ModuleLocs{
				Module:  rm(remap, me.Module),
				Exports: rm(remap, me.Exports),
			}
		}
	}

	ln.graft(lives, remaps)
	return res
}

// graft runs the three linking passes in deterministic order.
func (ln *treeLinker) graft(lives []liveFrag, remaps []map[mdg.Loc]mdg.Loc) {
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
	for i, lv := range lives {
		remap := remaps[i]
		cls := make([]mdg.Loc, 0, len(lv.fe.calleeLocs))
		for cl := range lv.fe.calleeLocs {
			cls = append(cls, cl)
		}
		sort.Slice(cls, func(a, b int) bool { return cls[a] < cls[b] })
		for _, cl := range cls {
			ncl := remap[cl]
			cn := ln.g.Node(ncl)
			if cn == nil {
				continue
			}
			var this []mdg.Loc
			for _, tl := range lv.fe.callThis[cl] {
				this = append(this, remap[tl])
			}
			for _, x := range lv.fe.calleeLocs[cl] {
				for _, t := range ln.resolved[remap[x]] {
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
					for _, tl := range this {
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
