package deptree

import (
	"strings"
	"testing"
)

// FuzzDepResolve feeds arbitrary file layouts, package.json contents
// and specifiers through Build/Resolve/Owner/Problems and asserts the
// resolver never panics and never resolves to a path outside the tree.
func FuzzDepResolve(f *testing.F) {
	f.Add("index.js", `{"name":"root","dependencies":{"a":"1"}}`, "a")
	f.Add("node_modules/a/index.js", `{"name":"a","main":"lib"}`, "a/sub")
	f.Add("node_modules/@o/p/index.js", `{"main":"../../x"}`, "@o/p")
	f.Add("node_modules/a/node_modules/b/index.js", `{nope}`, "b")
	f.Add("a/../../x.js", `{"main":"/etc/passwd"}`, "../escape")
	f.Add("..js", "0", "0") // a root file whose name starts with "..", not a parent path
	f.Fuzz(func(t *testing.T, rel, pkgjson, spec string) {
		files := map[string]string{
			"index.js":     "module.exports = 1;",
			"package.json": pkgjson,
		}
		// Place the fuzzed file and give its directory a package.json
		// too, so fuzzed paths exercise package discovery.
		if rel != "" && !strings.HasPrefix(rel, "/") {
			files[rel] = "x"
		}
		tree := Build(files)
		if tree.Root() == nil {
			t.Fatal("tree lost its root")
		}
		for _, p := range tree.Packages {
			for _, fr := range p.Files {
				if outsideTree(fr) {
					t.Fatalf("package %q owns file %q outside the tree", p.Dir, fr)
				}
			}
			got, err := tree.Resolve(p, spec)
			if err != nil {
				continue
			}
			if _, ok := files[got]; !ok {
				t.Fatalf("Resolve(%q, %q) = %q: not a tree file", p.Dir, spec, got)
			}
			if outsideTree(got) {
				t.Fatalf("Resolve(%q, %q) = %q escapes the tree", p.Dir, spec, got)
			}
		}
		_ = tree.Problems()
		for rel := range files {
			_ = tree.Owner(rel)
		}
	})
}

// outsideTree reports whether tree-relative path p leaves the tree: it is
// absolute or its first segment is "..".
func outsideTree(p string) bool {
	return p == ".." || strings.HasPrefix(p, "../") || strings.HasPrefix(p, "/")
}
