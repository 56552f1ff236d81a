// Package lint implements the repo-invariant checks enforced by
// cmd/graphjslint. The checks encode conventions the scanner's fault
// containment depends on but the compiler cannot see:
//
//   - nakedpanic: library code under internal/ must not panic outside a
//     budget.Guard fence. Guards are dynamic, so every deliberate panic
//     site must carry a //lint:allow nakedpanic waiver stating which
//     fence recovers it.
//   - budgetloop: a function that receives a *budget.Budget must
//     consult it inside every loop — otherwise the cooperative
//     deadline/step accounting the fault-containment layer relies on
//     has a blind spot exactly where the work happens.
//   - fragmutate: the incremental scanner's cached fragment records
//     (the enc bytes of a fragEntry) are immutable: graphs and findings
//     decoded from a record share its string bytes. A record may only
//     be written in the function that constructs its entry
//     (&fragEntry{...}); any later write through an .enc field — an
//     assignment, an element write, copy into it, append onto it — is
//     cache corruption.
//   - syncclose: the Close/Sync result of a writable file (os.Create,
//     os.OpenFile with write flags) must be checked. A write error can
//     surface only at close/fsync time; discarding it turns silent
//     data loss into a "successful" run — exactly the failure mode the
//     persistent store and sweep journal are built to prevent.
//   - ctxdrop: a function that receives a context.Context (or an
//     *http.Request carrying one) must thread it into any budget it
//     creates — a budget.New call wants a .WithContext, and a
//     scanner.Options literal wants a Context: key (or a later
//     .Context assignment). Dropping the context silently re-creates
//     the bug this check was born from: a disconnected client whose
//     scan runs to completion, holding a worker slot nobody will read.
//
// The analyzers are plain go/ast walks (no go/analysis dependency) so
// the lint suite builds with the standard library alone. A finding is
// suppressed by a `//lint:allow <check> -- reason` comment on the same
// line or the line directly above the flagged statement.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one invariant violation.
type Finding struct {
	File  string
	Line  int
	Check string
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Check, f.Msg)
}

// Dirs lints every non-test .go file under the given roots and returns
// the findings sorted by file and line.
func Dirs(roots ...string) ([]Finding, error) {
	var out []Finding
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			fs, err := File(path, nil)
			if err != nil {
				return err
			}
			out = append(out, fs...)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out, nil
}

// File lints a single file. src may be nil (read from disk) or the
// file's contents (used by tests). Which checks run depends on the
// path: nakedpanic and budgetloop apply to internal/* library code,
// fragmutate applies everywhere.
func File(path string, src any) ([]Finding, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	l := &linter{
		fset:     fset,
		path:     filepath.ToSlash(path),
		allow:    allowedLines(fset, file),
		internal: strings.Contains(filepath.ToSlash(path), "internal/"),
	}
	if l.internal {
		l.nakedPanic(file)
		if !strings.Contains(l.path, "internal/budget/") {
			l.budgetLoop(file)
		}
		l.ctxDrop(file)
	}
	l.fragMutate(file)
	l.syncClose(file)
	return l.out, nil
}

type linter struct {
	fset     *token.FileSet
	path     string
	allow    map[int]map[string]bool
	internal bool
	out      []Finding
}

// allowedLines maps line numbers to the set of checks waived there. A
// `//lint:allow check1,check2 -- reason` comment waives its own line
// and the line directly below it, so it works both as a trailing
// comment and on a line of its own above the statement.
func allowedLines(fset *token.FileSet, file *ast.File) map[int]map[string]bool {
	allow := map[int]map[string]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "lint:allow") {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:allow"))
			if i := strings.Index(rest, "--"); i >= 0 {
				rest = rest[:i]
			}
			line := fset.Position(c.Pos()).Line
			for _, check := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' }) {
				for _, ln := range []int{line, line + 1} {
					if allow[ln] == nil {
						allow[ln] = map[string]bool{}
					}
					allow[ln][check] = true
				}
			}
		}
	}
	return allow
}

func (l *linter) report(pos token.Pos, check, msg string) {
	line := l.fset.Position(pos).Line
	if l.allow[line][check] {
		return
	}
	l.out = append(l.out, Finding{File: l.path, Line: line, Check: check, Msg: msg})
}

// nakedPanic flags every panic(...) call. Library code must return
// classified errors; deliberate panics (fault injection, internal
// invariants recovered by a Guard fence) carry explicit waivers naming
// the fence that catches them.
func (l *linter) nakedPanic(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			l.report(call.Pos(), "nakedpanic",
				"panic in library code outside a Guard fence; return a classified error or waive with the recovering fence")
		}
		return true
	})
}

// budgetLoop flags loops in budget-carrying functions that never
// consult the budget. A function "carries" a budget when it has a
// *budget.Budget parameter; a loop "consults" it when the parameter
// identifier appears anywhere in the loop body (a method call, or
// passing it to a callee that checks). Only the outermost
// non-consulting loop is flagged — fixing it covers its children.
func (l *linter) budgetLoop(file *ast.File) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		buds := budgetParams(fn)
		if len(buds) == 0 {
			continue
		}
		l.checkLoops(fn.Body, fn.Name.Name, buds)
	}
}

// budgetParams returns the names of *budget.Budget parameters.
func budgetParams(fn *ast.FuncDecl) map[string]bool {
	buds := map[string]bool{}
	if fn.Type.Params == nil {
		return buds
	}
	for _, field := range fn.Type.Params.List {
		star, ok := field.Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		sel, ok := star.X.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Budget" {
			continue
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "budget" {
			continue
		}
		for _, name := range field.Names {
			if name.Name != "_" {
				buds[name.Name] = true
			}
		}
	}
	return buds
}

// checkLoops walks n flagging loops whose subtree never mentions a
// budget identifier. Descent stops at the first flagged loop and at
// function literals (which do not inherit the parameter obligation).
func (l *linter) checkLoops(n ast.Node, fname string, buds map[string]bool) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch loop := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			if mentionsAny(loop, buds) {
				return true // cooperative; inner loops judged on their own
			}
			l.report(loop.Pos(), "budgetloop",
				fmt.Sprintf("loop in %s never consults budget parameter; add a Step/CheckDeadline call or thread the budget through", fname))
			return false
		}
		return true
	})
}

func mentionsAny(n ast.Node, names map[string]bool) bool {
	found := false
	ast.Inspect(n, func(node ast.Node) bool {
		if found {
			return false
		}
		if id, ok := node.(*ast.Ident); ok && names[id.Name] {
			found = true
			return false
		}
		return true
	})
	return found
}

// fragMutate flags writes through a cached fragment record — an
// .enc selector, or an element or slice of one — outside a function
// that constructs a fragEntry: assignments and increments with such
// a left-hand side, and copy or append with it as the destination.
// Reading a record is free.
func (l *linter) fragMutate(file *ast.File) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || constructsFragEntry(fn.Body) {
			continue
		}
		flag := func(pos token.Pos) {
			l.report(pos, "fragmutate",
				fmt.Sprintf("write to a cached fragment record in %s; records are immutable once their entry is made", fn.Name.Name))
		}
		ast.Inspect(fn.Body, func(node ast.Node) bool {
			switch st := node.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					if isRecordExpr(lhs) {
						flag(st.Pos())
					}
				}
			case *ast.IncDecStmt:
				if isRecordExpr(st.X) {
					flag(st.Pos())
				}
			case *ast.CallExpr:
				if id, ok := st.Fun.(*ast.Ident); ok && (id.Name == "copy" || id.Name == "append") &&
					len(st.Args) > 0 && isRecordExpr(st.Args[0]) {
					flag(st.Pos())
				}
			}
			return true
		})
	}
}

// isRecordExpr matches x.enc and its elements and slices.
func isRecordExpr(e ast.Expr) bool {
	for {
		switch ee := e.(type) {
		case *ast.SelectorExpr:
			return ee.Sel.Name == "enc"
		case *ast.IndexExpr:
			e = ee.X
		case *ast.SliceExpr:
			e = ee.X
		case *ast.ParenExpr:
			e = ee.X
		default:
			return false
		}
	}
}

// constructsFragEntry reports whether body builds a fragEntry
// composite literal.
func constructsFragEntry(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(node ast.Node) bool {
		if lit, ok := node.(*ast.CompositeLit); ok {
			if id, ok := lit.Type.(*ast.Ident); ok && id.Name == "fragEntry" {
				found = true
			}
		}
		return !found
	})
	return found
}

// syncClose flags discarded Close()/Sync() results on files opened
// writable in the same function. Covered discard shapes: a bare
// expression statement, `defer f.Close()`, and `_ = f.Close()`. The
// check is syntactic and per-function — a writable *os.File passed to
// another function is that function's responsibility.
func (l *linter) syncClose(file *ast.File) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		writable := writableFileIdents(fn.Body)
		if len(writable) == 0 {
			continue
		}
		ast.Inspect(fn.Body, func(node ast.Node) bool {
			switch st := node.(type) {
			case *ast.ExprStmt:
				l.reportSyncClose(st.X, writable, "")
			case *ast.DeferStmt:
				l.reportSyncClose(st.Call, writable, "defer ")
			case *ast.AssignStmt:
				for i, lhs := range st.Lhs {
					if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
						continue
					}
					if i < len(st.Rhs) {
						l.reportSyncClose(st.Rhs[i], writable, "_ = ")
					}
				}
			}
			return true
		})
	}
}

// reportSyncClose reports e when it is a Close/Sync call on a known
// writable file identifier whose result the surrounding context drops.
func (l *linter) reportSyncClose(e ast.Expr, writable map[string]bool, context string) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Close" && sel.Sel.Name != "Sync") {
		return
	}
	recv, ok := sel.X.(*ast.Ident)
	if !ok || !writable[recv.Name] {
		return
	}
	l.report(call.Pos(), "syncclose",
		fmt.Sprintf("%s%s.%s() discards the error of a writable file; a failed write can surface only here — check it or waive with the reason",
			context, recv.Name, sel.Sel.Name))
}

// writableFileIdents collects identifiers assigned from os.Create or a
// write-mode os.OpenFile anywhere in body.
func writableFileIdents(body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(node ast.Node) bool {
		asg, ok := node.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 {
			return true
		}
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok || !isWritableOpen(call) {
			return true
		}
		// os.Create/os.OpenFile return (*os.File, error): the file is
		// the first LHS.
		if id, ok := asg.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			out[id.Name] = true
		}
		return true
	})
	return out
}

// isWritableOpen matches os.Create(...) and os.OpenFile(...) whose flag
// argument requests write access (mentions any of the O_* write flags).
// Plain os.Open and read-only OpenFile calls are exempt: their Close
// cannot lose data.
func isWritableOpen(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "os" {
		return false
	}
	switch sel.Sel.Name {
	case "Create":
		return true
	case "OpenFile":
		if len(call.Args) < 2 {
			return false
		}
		writeFlags := map[string]bool{
			"O_WRONLY": true, "O_RDWR": true, "O_APPEND": true,
			"O_CREATE": true, "O_TRUNC": true,
		}
		found := false
		ast.Inspect(call.Args[1], func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && writeFlags[id.Name] {
				found = true
				return false
			}
			return !found
		})
		return found
	}
	return false
}

// ctxDrop flags functions that have a context available — a
// context.Context parameter or an *http.Request (whose .Context() is
// one call away) — yet build a budget that cannot observe it: a
// budget.New(...) call in a body with no .WithContext(...) call, or a
// scanner.Options composite literal with no Context: key in a body
// that never assigns a .Context field afterwards. The check is
// syntactic and per-function, like budgetloop: it cannot prove the
// right context reaches the right budget, only that cancellation was
// wired at all.
func (l *linter) ctxDrop(file *ast.File) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || !hasContextParam(fn) {
			continue
		}
		withContext, ctxAssign := false, false
		ast.Inspect(fn.Body, func(node ast.Node) bool {
			switch n := node.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "WithContext" {
					withContext = true
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Context" {
						ctxAssign = true
					}
				}
			}
			return true
		})
		ast.Inspect(fn.Body, func(node ast.Node) bool {
			switch n := node.(type) {
			case *ast.CallExpr:
				if !withContext && isPkgCall(n, "budget", "New") {
					l.report(n.Pos(), "ctxdrop",
						fmt.Sprintf("%s has a context available but budget.New is never given it; chain .WithContext or waive with the reason", fn.Name.Name))
				}
			case *ast.CompositeLit:
				if !ctxAssign && l.isScannerOptions(n.Type) && !hasCompositeKey(n, "Context") {
					l.report(n.Pos(), "ctxdrop",
						fmt.Sprintf("%s has a context available but the scanner.Options literal drops it; set Context: or waive with the reason", fn.Name.Name))
				}
			}
			return true
		})
	}
}

// hasContextParam reports whether fn receives a context.Context or an
// *http.Request parameter.
func hasContextParam(fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		t := field.Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		sel, ok := t.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			continue
		}
		if (pkg.Name == "context" && sel.Sel.Name == "Context") ||
			(pkg.Name == "http" && sel.Sel.Name == "Request") {
			return true
		}
	}
	return false
}

// isPkgCall matches pkg.Fn(...) calls.
func isPkgCall(call *ast.CallExpr, pkg, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

// isScannerOptions matches scanner.Options composite-literal types —
// and the bare Options spelling inside internal/scanner itself.
func (l *linter) isScannerOptions(t ast.Expr) bool {
	switch tt := t.(type) {
	case *ast.SelectorExpr:
		pkg, ok := tt.X.(*ast.Ident)
		return ok && pkg.Name == "scanner" && tt.Sel.Name == "Options"
	case *ast.Ident:
		return tt.Name == "Options" && strings.Contains(l.path, "internal/scanner/")
	}
	return false
}

// hasCompositeKey reports whether a composite literal sets the named
// field.
func hasCompositeKey(lit *ast.CompositeLit, name string) bool {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == name {
			return true
		}
	}
	return false
}
