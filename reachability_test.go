package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// reachWaivers are the production declarations the reachability guard
// accepts although no binary reaches them. A key is a package import
// path (the whole package) or a declaration as the guard prints it.
var reachWaivers = map[string]string{
	"repro/internal/js/printer":       "the Core-JS printer backs the planned metamorphic oracle (print, re-parse, compare); BenchmarkPrinter times it",
	"budget.SetFaultPlan":             "the deterministic fault-injection hook the chaos and pathological suites install",
	"dataset.ExportAlias":             "the export-alias corpus the reach-gate oracles in internal/scanner sweep, generated beside the corpora it extends",
	"dataset.ExportAliasForTest":      "renders one export-alias shape for the reach-gate pin tests",
	"dataset.NewGenForTest":           "exposes the corpus generator to the dataset-driven oracles in other packages",
	"dataset.RenderForTest":           "exposes the template renderer to the dataset-driven oracles in other packages",
	"metrics.SweepGraphJSIncremental": "the warm sweep the BenchmarkIncrementalSweep timing bar compares against SweepGraphJS",
}

// TestProductionCodeIsReachable fails on any non-test declaration of
// the module that no binary reaches. It type-checks the module and
// perfbench (a nested module that replays the pipeline layers) and
// walks, from every main and init function and every package-level
// variable initializer of a package some binary links, the
// declarations each reached body names. A method counts as reached
// when its receiver type is reached and its name is selected somewhere
// in reached code or the type satisfies an interface (from the
// standard library, or reached in the module) that has the method, so
// dynamic dispatch is covered without a call graph. Code that only
// tests call belongs in a _test.go file.
//
// It also keeps the CFG off the scan path: the MDG build never reads a
// control-flow graph, so internal/scanner must not import internal/cfg.
func TestProductionCodeIsReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	if deps := goList(t, ".", "-deps", "./internal/scanner"); hasPackage(deps, "repro/internal/cfg") {
		t.Error("internal/scanner depends on internal/cfg: no scan builds a CFG (Table 7 counts CFG nodes from the sources)")
	}

	pkgs := goList(t, ".", "-deps", "-export", "./...")
	pkgs = append(pkgs, goList(t, "perfbench", "-deps", "-export", ".")...)
	u := newReachUniverse(t, pkgs)
	for key := range reachWaivers {
		objs := u.waived(key)
		if len(objs) == 0 {
			t.Errorf("reachability waiver %q names no package or declaration", key)
		}
		for _, obj := range objs {
			if u.reached[obj] {
				t.Errorf("reachability waiver %q: %s is reached by a binary; drop the waiver", key, u.names[obj])
				break
			}
		}
	}
	// Waived code is kept on purpose, and so is what only it calls.
	for key := range reachWaivers {
		for _, obj := range u.waived(key) {
			u.mark(obj)
		}
	}
	u.run()
	for _, obj := range u.unreached() {
		t.Errorf("%s (%s) is reached by no binary: delete it, or move it into a _test.go file if a test needs it",
			u.names[obj], u.fset.Position(obj.Pos()))
	}
}

// listedPackage is the part of `go list -json` the guard reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	Standard   bool
	Deps       []string
}

func goList(t *testing.T, dir string, args ...string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-e", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %v in %s: %v\n%s", args, dir, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

func hasPackage(pkgs []listedPackage, path string) bool {
	for _, p := range pkgs {
		if p.ImportPath == path {
			return true
		}
	}
	return false
}

// reachUniverse is the type-checked module with its declarations and
// the reachability state.
type reachUniverse struct {
	fset  *token.FileSet
	info  *types.Info
	decls map[types.Object]ast.Node // module declarations → the node to walk when reached
	names map[types.Object]string   // as the guard prints them: pkg.Func, pkg.(*T).Method
	paths map[string]bool           // module package paths

	reached  map[types.Object]bool
	queue    []ast.Node
	selected map[string]bool // method names selected in reached code
	// ifaces indexes the interfaces module types may be called
	// through (every standard-library one, the module's reached ones)
	// by method name.
	ifaces map[string][]*types.Interface
}

func newReachUniverse(t *testing.T, listed []listedPackage) *reachUniverse {
	t.Helper()
	u := &reachUniverse{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		decls:    map[types.Object]ast.Node{},
		names:    map[types.Object]string{},
		paths:    map[string]bool{},
		reached:  map[types.Object]bool{},
		selected: map[string]bool{},
		ifaces:   map[string][]*types.Interface{},
	}
	exports := map[string]string{}
	var module []listedPackage
	for _, p := range listed {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else if len(p.GoFiles) > 0 && !u.paths[p.ImportPath] {
			u.paths[p.ImportPath] = true
			module = append(module, p) // go list -deps orders dependencies first
		}
	}
	std := importer.ForCompiler(u.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok && f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	type checkedPkg struct {
		files []*ast.File
		pkg   *types.Package
	}
	linked := map[string]bool{} // packages some binary links
	var all []checkedPkg
	for _, p := range module {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(u.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, u.fset, files, u.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		all = append(all, checkedPkg{files, pkg})
		if p.Name == "main" {
			linked[p.ImportPath] = true
			for _, d := range p.Deps {
				linked[d] = true
			}
		}
		u.declare(pkg, files)
	}
	u.collectStdInterfaces(checked)

	for _, r := range all {
		if !linked[r.pkg.Path()] {
			continue
		}
		for _, f := range r.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && r.pkg.Name() == "main") {
						u.queue = append(u.queue, d)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						for _, s := range d.Specs {
							for _, v := range s.(*ast.ValueSpec).Values {
								u.queue = append(u.queue, v)
							}
						}
					}
				}
			}
		}
	}
	u.run()
	return u
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declare records pkg's package-level declarations and methods.
func (u *reachUniverse) declare(pkg *types.Package, files []*ast.File) {
	add := func(obj types.Object, n ast.Node, name string) {
		if obj == nil || obj.Name() == "_" {
			return
		}
		u.decls[obj] = n
		u.names[obj] = name
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main") {
					continue
				}
				obj := u.info.Defs[d.Name]
				name := pkg.Name() + "." + d.Name.Name
				if d.Recv != nil {
					recv := obj.Type().(*types.Signature).Recv().Type()
					tn := ""
					if p, ok := recv.(*types.Pointer); ok {
						tn = "(*" + p.Elem().(*types.Named).Obj().Name() + ")"
					} else {
						tn = recv.(*types.Named).Obj().Name()
					}
					name = pkg.Name() + "." + tn + "." + d.Name.Name
				}
				add(obj, d, name)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(u.info.Defs[s.Name], s, pkg.Name()+"."+s.Name.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							// A variable's initializer is already a root;
							// a constant's is walked when it is reached.
							add(u.info.Defs[id], s.Type, pkg.Name()+"."+id.Name)
							if d.Tok == token.CONST && len(s.Values) > 0 {
								u.decls[u.info.Defs[id]] = s
							}
						}
					}
				}
			}
		}
	}
}

// collectStdInterfaces indexes every interface type declared in an
// imported standard-library package: a module type satisfying one (a
// fmt.Stringer, a sort.Interface, an error) is called through it.
func (u *reachUniverse) collectStdInterfaces(checked map[string]*types.Package) {
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if !u.paths[p.Path()] {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					u.addInterface(tn.Type())
				}
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range checked {
		visit(p)
	}
	u.addInterface(types.Universe.Lookup("error").Type())
}

func (u *reachUniverse) addInterface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			u.ifaces[name] = append(u.ifaces[name], it)
		}
	}
}

// viaInterface reports whether the method name of t satisfies an
// indexed interface, so a dynamic call may reach it.
func (u *reachUniverse) viaInterface(t types.Type, name string) bool {
	for _, it := range u.ifaces[name] {
		if types.Implements(t, it) {
			return true
		}
	}
	return false
}

// run drains the worklist to a fixpoint. Whenever it empties, the
// method sets of the reached types are re-checked, since the selected
// names and the indexed interfaces have grown; a promoted method
// counts through the type that embeds it.
func (u *reachUniverse) run() {
	for {
		for len(u.queue) > 0 {
			n := u.queue[len(u.queue)-1]
			u.queue = u.queue[:len(u.queue)-1]
			u.walk(n)
		}
		for obj := range u.decls {
			tn, ok := obj.(*types.TypeName)
			if !ok || !u.reached[obj] || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			generic := named.TypeParams().Len() > 0
			for _, t := range []types.Type{named, types.NewPointer(named)} {
				ms := types.NewMethodSet(t)
				for i := 0; i < ms.Len(); i++ {
					fn := ms.At(i).Obj().(*types.Func).Origin()
					if u.reached[fn] || u.decls[fn] == nil {
						continue
					}
					if u.selected[fn.Name()] || generic || u.viaInterface(t, fn.Name()) {
						u.mark(fn)
					}
				}
			}
		}
		if len(u.queue) == 0 {
			return
		}
	}
}

func (u *reachUniverse) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if u.reached[obj] {
		return
	}
	u.reached[obj] = true
	if n := u.decls[obj]; n != nil {
		u.queue = append(u.queue, n)
	}
}

func (u *reachUniverse) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := u.info.Uses[n]
			if obj == nil {
				return true
			}
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				u.selected[fn.Name()] = true
			}
			u.mark(obj)
		case *ast.InterfaceType:
			if tv, ok := u.info.Types[n]; ok {
				u.addInterface(tv.Type)
			}
		}
		return true
	})
}

// unreached lists the module's unreached declarations by name.
func (u *reachUniverse) unreached() []types.Object {
	var out []types.Object
	for obj := range u.names {
		if !u.reached[obj] {
			out = append(out, obj)
		}
	}
	sort.Slice(out, func(i, j int) bool { return u.names[out[i]] < u.names[out[j]] })
	return out
}

// waived resolves a waiver key to the declarations it covers.
func (u *reachUniverse) waived(key string) []types.Object {
	var out []types.Object
	for obj, name := range u.names {
		if name == key || obj.Pkg().Path() == key {
			out = append(out, obj)
		}
	}
	return out
}
