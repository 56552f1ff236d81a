// Package deptree resolves node_modules-style dependency trees.
//
// A tree is a set of in-memory files (slash-separated relative paths)
// containing one root package plus any number of dependencies vendored
// under node_modules directories, possibly nested (npm's shadowing
// rules: the innermost node_modules that declares a package wins) and
// possibly scoped (@org/pkg). Build discovers every package directory,
// parses its package.json, and exposes Resolve — the npm-style bare
// specifier resolution the scanner's tree mode uses to link
// require('pkg') and require('pkg/sub') edges across package
// boundaries.
//
// The resolver never touches the filesystem and never escapes the
// tree: every candidate path is a cleaned relative path checked
// against the input file set, so a hostile package.json cannot direct
// resolution outside the files the caller handed in.
package deptree

import (
	"encoding/json"
	"fmt"
	"path"
	"sort"
	"strings"
)

// PackageJSON is the subset of package.json the resolver reads.
type PackageJSON struct {
	Name         string            `json:"name"`
	Version      string            `json:"version"`
	Main         string            `json:"main"`
	Dependencies map[string]string `json:"dependencies"`
}

// Package is one package directory in the tree.
type Package struct {
	// Name and Version come from package.json ("" when absent).
	Name    string
	Version string
	// Dir is the package directory relative to the tree root, "" for
	// the root package itself, "node_modules/a" for a direct
	// dependency, "node_modules/a/node_modules/b" for a nested one.
	Dir string
	// Main is the resolved entry-point file (relative to the tree
	// root), "" when the package has no resolvable entry.
	Main string
	// Files lists the package's .js files (relative to the tree root,
	// sorted), excluding files owned by nested node_modules packages.
	Files []string
	// Deps is the declared dependencies map from package.json.
	Deps map[string]string
	// Err is non-nil when the package directory is structurally broken
	// (unparseable package.json, missing entry point). Broken packages
	// still appear in the tree so Problems can report them.
	Err error
}

// Tree is a resolved dependency tree.
type Tree struct {
	// Files is the input file set (path → source).
	Files map[string]string
	// Packages lists every package directory: the root first, then
	// dependencies sorted by Dir.
	Packages []*Package

	byDir map[string]*Package
}

// MissingError reports a dependency declared in package.json with no
// node_modules directory anywhere on the resolution path.
type MissingError struct {
	From string // declaring package dir ("" = root)
	Spec string // the declared dependency name
}

func (e *MissingError) Error() string {
	return fmt.Sprintf("deptree: dependency %q declared by %q is not installed", e.Spec, fromDir(e.From))
}

// BrokenError reports a package directory that exists but cannot be
// used: its package.json does not parse, or its entry point is absent.
type BrokenError struct {
	Dir    string
	Reason string
}

func (e *BrokenError) Error() string {
	return fmt.Sprintf("deptree: package %q is broken: %s", e.Dir, e.Reason)
}

// ExternalError reports a bare specifier that is not declared and not
// installed anywhere — a Node builtin or a truly external module. It
// is not a tree problem: the scanner keeps such modules opaque exactly
// as single-package scans do.
type ExternalError struct {
	Spec string
}

func (e *ExternalError) Error() string {
	return fmt.Sprintf("deptree: %q is external to the tree", e.Spec)
}

func fromDir(dir string) string {
	if dir == "" {
		return "<root>"
	}
	return dir
}

// Build discovers every package in the file set and resolves each
// package's entry point and file ownership. It never returns an
// error: broken packages carry a non-nil Err, and Problems aggregates
// everything that would make a tree scan unsound.
func Build(files map[string]string) *Tree {
	t := &Tree{Files: files, byDir: map[string]*Package{}}

	// Every directory that directly contains a package.json — or is a
	// direct child (or scoped grandchild) of a node_modules directory
	// with .js files — is a package directory. The root package is the
	// tree root itself, package.json or not.
	dirs := map[string]bool{"": true}
	for rel := range files {
		rel = path.Clean(rel)
		if escapes(rel) {
			continue // hostile input path; not part of the tree
		}
		if path.Base(rel) == "package.json" {
			dirs[pkgDirOf(rel)] = true
			continue
		}
		// A package vendored without a package.json still owns its
		// directory: walk the path for node_modules components and
		// record each package dir they introduce.
		parts := strings.Split(rel, "/")
		for i, p := range parts[:len(parts)-1] {
			if p != "node_modules" {
				continue
			}
			if d := nodeModulesChild(parts, i); d != "" {
				dirs[d] = true
			}
		}
	}

	var pkgDirs []string
	for d := range dirs {
		pkgDirs = append(pkgDirs, d)
	}
	sort.Strings(pkgDirs)

	for _, d := range pkgDirs {
		t.addPackage(d)
	}

	// Assign each .js file to the innermost package directory that
	// prefixes it.
	var rels []string
	for rel := range files {
		rel = path.Clean(rel)
		if strings.HasSuffix(rel, ".js") && !escapes(rel) {
			rels = append(rels, rel)
		}
	}
	sort.Strings(rels)
	for _, rel := range rels {
		if p := t.Owner(rel); p != nil {
			p.Files = append(p.Files, rel)
		}
	}

	// Root first, then dependencies by dir.
	sort.Slice(t.Packages, func(i, j int) bool {
		a, b := t.Packages[i], t.Packages[j]
		if (a.Dir == "") != (b.Dir == "") {
			return a.Dir == ""
		}
		return a.Dir < b.Dir
	})
	return t
}

// nodeModulesChild returns the package dir introduced by the
// node_modules component at parts[i], honoring @scope/name two-level
// directories. Returns "" when the path is just node_modules/<file>.
func nodeModulesChild(parts []string, i int) string {
	// parts[i] == "node_modules"; the package dir is parts[:i+2]
	// joined, or parts[:i+3] for scoped packages.
	if i+1 >= len(parts)-1 {
		return "" // node_modules/<file> — not a package dir
	}
	name := parts[i+1]
	if strings.HasPrefix(name, "@") {
		if i+2 >= len(parts)-1 {
			return ""
		}
		return strings.Join(parts[:i+3], "/")
	}
	return strings.Join(parts[:i+2], "/")
}

// pkgDirOf maps a package.json path to its directory ("" for the tree
// root's own package.json).
func pkgDirOf(rel string) string {
	d := path.Dir(rel)
	if d == "." {
		return ""
	}
	return d
}

// addPackage parses dir's package.json and resolves its entry point.
func (t *Tree) addPackage(dir string) {
	p := &Package{Dir: dir}
	t.Packages = append(t.Packages, p)
	t.byDir[dir] = p

	pjPath := joinDir(dir, "package.json")
	if src, ok := t.Files[pjPath]; ok {
		var pj PackageJSON
		if err := json.Unmarshal([]byte(src), &pj); err != nil {
			p.Err = &BrokenError{Dir: fromDir(dir), Reason: fmt.Sprintf("package.json: %v", err)}
			deriveName(p)
			return
		}
		p.Name = pj.Name
		p.Version = pj.Version
		p.Deps = pj.Dependencies
		p.Main = t.resolveMain(dir, pj.Main)
		if p.Main == "" {
			p.Err = &BrokenError{Dir: fromDir(dir), Reason: entryReason(pj.Main)}
		}
		deriveName(p)
		return
	}
	// No package.json: npm-style index.js fallback. The tree root is
	// allowed to have neither (single-file trees); dependencies are
	// broken without an entry.
	p.Main = t.resolveMain(dir, "")
	if p.Main == "" && dir != "" {
		p.Err = &BrokenError{Dir: fromDir(dir), Reason: "no package.json and no index.js"}
	}
	deriveName(p)
}

// deriveName fills a missing package name from the directory layout
// (node_modules/@org/pkg → "@org/pkg").
func deriveName(p *Package) {
	if p.Name != "" || p.Dir == "" {
		return
	}
	p.Name = path.Base(p.Dir)
	if parent := path.Base(path.Dir(p.Dir)); strings.HasPrefix(parent, "@") {
		p.Name = parent + "/" + p.Name
	}
}

func entryReason(main string) string {
	if main == "" {
		return "no index.js entry point"
	}
	return fmt.Sprintf("main %q does not resolve", main)
}

// resolveMain resolves a package.json main field (or its absence) to a
// file in the tree, npm-style: main as-is, main+".js", main/index.js,
// falling back to index.js.
func (t *Tree) resolveMain(dir, main string) string {
	var cands []string
	if main != "" {
		m := path.Clean(main)
		if escapes(m) {
			return ""
		}
		cands = []string{m, m + ".js", m + "/index.js"}
	} else {
		cands = []string{"index.js"}
	}
	for _, c := range cands {
		rel := joinDir(dir, c)
		if escapesTree(rel) {
			continue
		}
		if _, ok := t.Files[rel]; ok && strings.HasSuffix(rel, ".js") {
			return rel
		}
	}
	return ""
}

// Owner returns the innermost package whose directory contains rel,
// nil for paths outside every package (cannot happen for cleaned
// relative paths, since the root owns everything not under a deeper
// package).
func (t *Tree) Owner(rel string) *Package {
	rel = path.Clean(rel)
	d := path.Dir(rel)
	if d == "." {
		d = ""
	}
	for {
		if p, ok := t.byDir[d]; ok {
			return p
		}
		if d == "" {
			return nil
		}
		d = path.Dir(d)
		if d == "." {
			d = ""
		}
	}
}

// Resolve resolves spec from the package from. Relative specifiers
// ("./x", "../x") resolve within from's directory tree exactly as the
// single-package scanner does and are not deptree's business — Resolve
// only handles bare specifiers ("pkg", "pkg/sub", "@org/pkg",
// "@org/pkg/sub"). The result is the entry file relative to the tree
// root.
//
// Resolution context is the *package* directory (not the requiring
// file's directory): all files of a package see the same dependency
// set, matching how the scanner builds one fragment per package.
//
// Error taxonomy: *ExternalError when the name is not installed
// anywhere on the path and not declared (a builtin like child_process,
// or a truly external module — kept opaque, not a failure);
// *MissingError when from declares the dependency but no node_modules
// provides it; *BrokenError when a directory is found but unusable.
func (t *Tree) Resolve(from *Package, spec string) (string, error) {
	name, sub, ok := splitSpec(spec)
	if !ok {
		return "", &ExternalError{Spec: spec}
	}

	// Walk up from the requiring package's dir looking for
	// node_modules/<name>, innermost first (npm shadowing).
	dir := from.Dir
	for {
		cand := joinDir(dir, "node_modules/"+name)
		if p, ok := t.byDir[cand]; ok {
			return t.entryOf(p, sub)
		}
		if dir == "" {
			break
		}
		// Pop one component; pop past an intervening node_modules
		// level too (node_modules/a → "" in one hop would skip the
		// root's own node_modules, so walk plain parent dirs).
		dir = parentDir(dir)
	}

	if _, declared := from.Deps[name]; declared {
		return "", &MissingError{From: from.Dir, Spec: name}
	}
	return "", &ExternalError{Spec: spec}
}

// entryOf resolves a found package to its entry file, honoring a
// subpath ("pkg/sub" → <pkgdir>/sub.js or <pkgdir>/sub/index.js).
func (t *Tree) entryOf(p *Package, sub string) (string, error) {
	if p.Err != nil {
		return "", p.Err
	}
	if sub == "" {
		if p.Main == "" {
			return "", &BrokenError{Dir: fromDir(p.Dir), Reason: "no entry point"}
		}
		return p.Main, nil
	}
	sub = path.Clean(sub)
	if escapes(sub) {
		return "", &BrokenError{Dir: fromDir(p.Dir), Reason: fmt.Sprintf("subpath %q escapes the package", sub)}
	}
	for _, c := range []string{sub, sub + ".js", sub + "/index.js"} {
		rel := joinDir(p.Dir, c)
		if escapesTree(rel) {
			continue
		}
		if _, ok := t.Files[rel]; ok && strings.HasSuffix(rel, ".js") {
			return rel, nil
		}
	}
	return "", &BrokenError{Dir: fromDir(p.Dir), Reason: fmt.Sprintf("subpath %q does not resolve", sub)}
}

// splitSpec splits a bare specifier into package name and subpath.
// Relative/absolute specifiers return ok=false (not deptree's job).
func splitSpec(spec string) (name, sub string, ok bool) {
	if spec == "" || strings.HasPrefix(spec, ".") || strings.HasPrefix(spec, "/") {
		return "", "", false
	}
	parts := strings.SplitN(spec, "/", 3)
	if strings.HasPrefix(spec, "@") {
		// @scope/name[/sub...]
		if len(parts) < 2 || parts[1] == "" {
			return "", "", false
		}
		name = parts[0] + "/" + parts[1]
		if len(parts) == 3 {
			sub = parts[2]
		}
	} else {
		name = parts[0]
		if len(parts) > 1 {
			sub = strings.Join(parts[1:], "/")
		}
	}
	if name == "" || strings.Contains(name, "..") {
		return "", "", false
	}
	return name, sub, true
}

// parentDir pops one path component, "" for top-level dirs.
func parentDir(dir string) string {
	d := path.Dir(dir)
	if d == "." {
		return ""
	}
	return d
}

func joinDir(dir, rel string) string {
	if dir == "" {
		return path.Clean(rel)
	}
	return path.Clean(dir + "/" + rel)
}

// escapes reports whether a cleaned package-relative path climbs out
// of its package directory.
func escapes(cleaned string) bool {
	return cleaned == ".." || strings.HasPrefix(cleaned, "../") || path.IsAbs(cleaned)
}

// escapesTree reports whether a cleaned tree-relative path climbs out
// of the tree root.
func escapesTree(rel string) bool {
	return escapes(path.Clean(rel))
}

// Problems statically audits the tree: every broken package, plus
// every declared dependency of every usable package that fails to
// resolve to a usable entry. External (undeclared, uninstalled) names
// are not problems. The result is deterministic (sorted by message).
func (t *Tree) Problems() []error {
	var errs []error
	for _, p := range t.Packages {
		if p.Err != nil {
			errs = append(errs, p.Err)
			continue
		}
		var names []string
		for name := range p.Deps {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if _, err := t.Resolve(p, name); err != nil {
				errs = append(errs, err)
			}
		}
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	// Dedupe: a broken package reachable from several dependents
	// reports once.
	out := errs[:0]
	var last string
	for _, e := range errs {
		if e.Error() == last {
			continue
		}
		last = e.Error()
		out = append(out, e)
	}
	return out
}
