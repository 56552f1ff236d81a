package deptree

import (
	"errors"
	"strings"
	"testing"
)

// treeCase is one resolver edge case: a file set, a resolution to
// attempt, and the expected outcome.
type treeCase struct {
	name  string
	files map[string]string
	from  string // package dir to resolve from
	spec  string
	want  string // resolved entry ("" when an error is expected)
	// wantErr matches the error type: "missing", "broken", "external".
	wantErr string
	// wantProblems is the expected Problems() count.
	wantProblems int
}

// Root returns the tree's root package.
func (t *Tree) Root() *Package { return t.byDir[""] }

// ByDir returns the package at dir, nil when absent.
func (t *Tree) ByDir(dir string) *Package { return t.byDir[dir] }

func pj(s string) string { return s }

var treeCases = []treeCase{
	{
		name: "direct dependency via main field",
		files: map[string]string{
			"index.js":                     "module.exports = 1;",
			"package.json":                 pj(`{"name":"root","dependencies":{"a":"1.0.0"}}`),
			"node_modules/a/package.json":  pj(`{"name":"a","version":"1.0.0","main":"lib/entry.js"}`),
			"node_modules/a/lib/entry.js":  "module.exports = 2;",
			"node_modules/a/lib/other.js":  "module.exports = 3;",
			"node_modules/a/lib/extra.txt": "not js",
		},
		from: "", spec: "a", want: "node_modules/a/lib/entry.js",
	},
	{
		name: "main without extension",
		files: map[string]string{
			"index.js":                    "x",
			"node_modules/a/package.json": pj(`{"name":"a","main":"lib/entry"}`),
			"node_modules/a/lib/entry.js": "x",
		},
		from: "", spec: "a", want: "node_modules/a/lib/entry.js",
	},
	{
		name: "main directory resolves to its index.js",
		files: map[string]string{
			"index.js":                    "x",
			"node_modules/a/package.json": pj(`{"name":"a","main":"lib"}`),
			"node_modules/a/lib/index.js": "x",
		},
		from: "", spec: "a", want: "node_modules/a/lib/index.js",
	},
	{
		name: "index.js fallback when main is absent",
		files: map[string]string{
			"index.js":                    "x",
			"node_modules/a/package.json": pj(`{"name":"a"}`),
			"node_modules/a/index.js":     "x",
		},
		from: "", spec: "a", want: "node_modules/a/index.js",
	},
	{
		name: "index.js fallback when package.json is absent entirely",
		files: map[string]string{
			"index.js":                "x",
			"node_modules/a/index.js": "x",
		},
		from: "", spec: "a", want: "node_modules/a/index.js",
	},
	{
		name: "subpath require",
		files: map[string]string{
			"index.js":                    "x",
			"node_modules/a/package.json": pj(`{"name":"a"}`),
			"node_modules/a/index.js":     "x",
			"node_modules/a/sub.js":       "x",
		},
		from: "", spec: "a/sub", want: "node_modules/a/sub.js",
	},
	{
		name: "subpath directory require",
		files: map[string]string{
			"index.js":                      "x",
			"node_modules/a/index.js":       "x",
			"node_modules/a/util/index.js":  "x",
			"node_modules/a/util/helper.js": "x",
		},
		from: "", spec: "a/util", want: "node_modules/a/util/index.js",
	},
	{
		name: "scoped package",
		files: map[string]string{
			"index.js":                           "x",
			"node_modules/@org/pkg/index.js":     "x",
			"node_modules/@org/pkg/package.json": pj(`{"name":"@org/pkg"}`),
		},
		from: "", spec: "@org/pkg", want: "node_modules/@org/pkg/index.js",
	},
	{
		name: "scoped package subpath",
		files: map[string]string{
			"index.js":                       "x",
			"node_modules/@org/pkg/index.js": "x",
			"node_modules/@org/pkg/sub.js":   "x",
		},
		from: "", spec: "@org/pkg/sub", want: "node_modules/@org/pkg/sub.js",
	},
	{
		name: "nested node_modules shadows the outer version",
		files: map[string]string{
			"index.js":                               "x",
			"node_modules/a/index.js":                "x",
			"node_modules/a/node_modules/b/index.js": "inner",
			"node_modules/b/index.js":                "outer",
		},
		from: "node_modules/a", spec: "b", want: "node_modules/a/node_modules/b/index.js",
	},
	{
		name: "walk-up finds the hoisted dependency",
		files: map[string]string{
			"index.js":                "x",
			"node_modules/a/index.js": "x",
			"node_modules/b/index.js": "outer",
		},
		from: "node_modules/a", spec: "b", want: "node_modules/b/index.js",
	},
	{
		name: "missing declared dependency is a classified failure",
		files: map[string]string{
			"index.js":     "x",
			"package.json": pj(`{"name":"root","dependencies":{"ghost":"1.0.0"}}`),
		},
		from: "", spec: "ghost", wantErr: "missing", wantProblems: 1,
	},
	{
		name: "undeclared uninstalled name is external, not a problem",
		files: map[string]string{
			"index.js":     "x",
			"package.json": pj(`{"name":"root"}`),
		},
		from: "", spec: "child_process", wantErr: "external",
	},
	{
		name: "package.json parse error is a broken package",
		files: map[string]string{
			"index.js":                    "x",
			"package.json":                pj(`{"name":"root","dependencies":{"a":"1.0.0"}}`),
			"node_modules/a/package.json": pj(`{"name": "a", nope}`),
			"node_modules/a/index.js":     "x",
		},
		from: "", spec: "a", wantErr: "broken", wantProblems: 1,
	},
	{
		name: "main pointing nowhere is a broken package",
		files: map[string]string{
			"index.js":                    "x",
			"node_modules/a/package.json": pj(`{"name":"a","main":"gone.js"}`),
			"node_modules/a/other.js":     "x",
		},
		from: "", spec: "a", wantErr: "broken", wantProblems: 1,
	},
	{
		name: "dependency cycle resolves structurally",
		files: map[string]string{
			"index.js":                    "x",
			"package.json":                pj(`{"name":"root","dependencies":{"a":"1"}}`),
			"node_modules/a/package.json": pj(`{"name":"a","dependencies":{"b":"1"}}`),
			"node_modules/a/index.js":     "x",
			"node_modules/b/package.json": pj(`{"name":"b","dependencies":{"a":"1"}}`),
			"node_modules/b/index.js":     "x",
		},
		from: "node_modules/b", spec: "a", want: "node_modules/a/index.js",
	},
	{
		name: "main escaping the package does not resolve",
		files: map[string]string{
			"index.js":                    "x",
			"secret.js":                   "x",
			"node_modules/a/package.json": pj(`{"name":"a","main":"../../secret.js"}`),
		},
		from: "", spec: "a", wantErr: "broken", wantProblems: 1,
	},
	{
		name: "subpath escaping the package does not resolve",
		files: map[string]string{
			"index.js":                "x",
			"secret.js":               "x",
			"node_modules/a/index.js": "x",
		},
		from: "", spec: "a/../../secret", wantErr: "broken",
	},
}

func TestResolveCases(t *testing.T) {
	for _, tc := range treeCases {
		t.Run(tc.name, func(t *testing.T) {
			tree := Build(tc.files)
			from := tree.ByDir(tc.from)
			if from == nil {
				t.Fatalf("no package at %q", tc.from)
			}
			got, err := tree.Resolve(from, tc.spec)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Resolve(%q) error: %v", tc.spec, err)
				}
				if got != tc.want {
					t.Fatalf("Resolve(%q) = %q, want %q", tc.spec, got, tc.want)
				}
			} else {
				if err == nil {
					t.Fatalf("Resolve(%q) = %q, want %s error", tc.spec, got, tc.wantErr)
				}
				var me *MissingError
				var be *BrokenError
				var ee *ExternalError
				switch tc.wantErr {
				case "missing":
					if !errors.As(err, &me) {
						t.Fatalf("want MissingError, got %T: %v", err, err)
					}
				case "broken":
					if !errors.As(err, &be) {
						t.Fatalf("want BrokenError, got %T: %v", err, err)
					}
				case "external":
					if !errors.As(err, &ee) {
						t.Fatalf("want ExternalError, got %T: %v", err, err)
					}
				}
			}
			if got := len(tree.Problems()); got != tc.wantProblems {
				for _, e := range tree.Problems() {
					t.Logf("problem: %v", e)
				}
				t.Fatalf("Problems() = %d, want %d", got, tc.wantProblems)
			}
		})
	}
}

func TestOwnerAndFiles(t *testing.T) {
	files := map[string]string{
		"index.js":                               "x",
		"lib.js":                                 "x",
		"package.json":                           `{"name":"root","dependencies":{"a":"1"}}`,
		"node_modules/a/index.js":                "x",
		"node_modules/a/node_modules/b/index.js": "x",
		"node_modules/@org/c/index.js":           "x",
	}
	tree := Build(files)
	if got := len(tree.Packages); got != 4 {
		for _, p := range tree.Packages {
			t.Logf("pkg %q", p.Dir)
		}
		t.Fatalf("packages = %d, want 4", got)
	}
	if tree.Packages[0].Dir != "" {
		t.Fatalf("root must sort first, got %q", tree.Packages[0].Dir)
	}
	cases := map[string]string{
		"index.js":                               "",
		"lib.js":                                 "",
		"node_modules/a/index.js":                "node_modules/a",
		"node_modules/a/node_modules/b/index.js": "node_modules/a/node_modules/b",
		"node_modules/@org/c/index.js":           "node_modules/@org/c",
	}
	for rel, dir := range cases {
		p := tree.Owner(rel)
		if p == nil || p.Dir != dir {
			t.Fatalf("Owner(%q) = %v, want dir %q", rel, p, dir)
		}
	}
	root := tree.Root()
	if len(root.Files) != 2 {
		t.Fatalf("root files = %v, want [index.js lib.js]", root.Files)
	}
	a := tree.ByDir("node_modules/a")
	if len(a.Files) != 1 || a.Files[0] != "node_modules/a/index.js" {
		t.Fatalf("a files = %v", a.Files)
	}
	if c := tree.ByDir("node_modules/@org/c"); c == nil || c.Name != "@org/c" {
		t.Fatalf("scoped package name: %+v", c)
	}
}

func TestRootWithoutPackageJSON(t *testing.T) {
	tree := Build(map[string]string{"index.js": "x"})
	root := tree.Root()
	if root == nil || root.Err != nil {
		t.Fatalf("bare root must be usable: %+v", root)
	}
	if root.Main != "index.js" {
		t.Fatalf("root main = %q", root.Main)
	}
	if n := len(tree.Problems()); n != 0 {
		t.Fatalf("problems = %d", n)
	}
}

// TestResolveNeverEscapes drives every resolution through hostile
// inputs and asserts results stay inside the tree.
func TestResolveNeverEscapes(t *testing.T) {
	files := map[string]string{
		"index.js":                    "x",
		"node_modules/a/package.json": `{"name":"a","main":"../../../etc/passwd"}`,
		"node_modules/a/index.js":     "x",
	}
	tree := Build(files)
	for _, spec := range []string{"a", "a/../../x", "a/../../../etc/passwd", "../x", "/abs"} {
		got, err := tree.Resolve(tree.Root(), spec)
		if err != nil {
			continue
		}
		if _, ok := files[got]; !ok {
			t.Fatalf("Resolve(%q) = %q escapes the tree", spec, got)
		}
		if strings.HasPrefix(got, "..") || strings.HasPrefix(got, "/") {
			t.Fatalf("Resolve(%q) = %q is not tree-relative", spec, got)
		}
	}
}
