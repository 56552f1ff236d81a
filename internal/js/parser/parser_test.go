package parser

import (
	"testing"

	"repro/internal/js/ast"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return prog
}

func mustParseExpr(t *testing.T, src string) ast.Expr {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func TestVarDecl(t *testing.T) {
	prog := mustParse(t, "var a = 1, b;")
	vd, ok := prog.Body[0].(*ast.VarDecl)
	if !ok {
		t.Fatalf("not a VarDecl: %T", prog.Body[0])
	}
	if vd.Kind != "var" || len(vd.Decls) != 2 {
		t.Fatalf("got %+v", vd)
	}
	if vd.Decls[0].Name != "a" || vd.Decls[0].Init == nil {
		t.Errorf("decl[0] = %+v", vd.Decls[0])
	}
	if vd.Decls[1].Name != "b" || vd.Decls[1].Init != nil {
		t.Errorf("decl[1] = %+v", vd.Decls[1])
	}
}

func TestLetConst(t *testing.T) {
	prog := mustParse(t, "let x = 1; const y = 2;")
	if prog.Body[0].(*ast.VarDecl).Kind != "let" {
		t.Error("expected let")
	}
	if prog.Body[1].(*ast.VarDecl).Kind != "const" {
		t.Error("expected const")
	}
}

func TestPrecedence(t *testing.T) {
	// a + b * c parses as a + (b*c)
	e := mustParseExpr(t, "a + b * c")
	add, ok := e.(*ast.BinaryExpr)
	if !ok || add.Op != "+" {
		t.Fatalf("top = %#v", e)
	}
	mul, ok := add.R.(*ast.BinaryExpr)
	if !ok || mul.Op != "*" {
		t.Fatalf("right = %#v", add.R)
	}
}

func TestLeftAssociativity(t *testing.T) {
	// a - b - c parses as (a-b) - c
	e := mustParseExpr(t, "a - b - c")
	out, ok := e.(*ast.BinaryExpr)
	if !ok || out.Op != "-" {
		t.Fatalf("top = %#v", e)
	}
	if _, ok := out.L.(*ast.BinaryExpr); !ok {
		t.Fatalf("left should be nested: %#v", out.L)
	}
}

func TestPowRightAssociative(t *testing.T) {
	// a ** b ** c parses as a ** (b ** c)
	e := mustParseExpr(t, "a ** b ** c")
	out := e.(*ast.BinaryExpr)
	if _, ok := out.R.(*ast.BinaryExpr); !ok {
		t.Fatalf("right should be nested: %#v", out.R)
	}
}

func TestLogicalVsBinary(t *testing.T) {
	e := mustParseExpr(t, "a && b || c")
	or, ok := e.(*ast.LogicalExpr)
	if !ok || or.Op != "||" {
		t.Fatalf("top = %#v", e)
	}
	and, ok := or.L.(*ast.LogicalExpr)
	if !ok || and.Op != "&&" {
		t.Fatalf("left = %#v", or.L)
	}
}

func TestTernary(t *testing.T) {
	e := mustParseExpr(t, "a ? b : c ? d : e")
	top, ok := e.(*ast.CondExpr)
	if !ok {
		t.Fatalf("top = %#v", e)
	}
	if _, ok := top.Else.(*ast.CondExpr); !ok {
		t.Fatalf("else should be nested ternary: %#v", top.Else)
	}
}

func TestTernaryOnLeadingDotNumber(t *testing.T) {
	// Minified code writes `c?.5:1`; `?.` before a digit is not an
	// optional chain.
	prog := mustParse(t, "var x = c?.5:1;")
	if len(prog.Body) != 1 {
		t.Fatalf("body = %#v", prog.Body)
	}
	e := mustParseExpr(t, "c?.5:1")
	cond, ok := e.(*ast.CondExpr)
	if !ok {
		t.Fatalf("top = %#v", e)
	}
	if lit, ok := cond.Then.(*ast.Literal); !ok || lit.Kind != ast.LitNumber || lit.Value != ".5" {
		t.Fatalf("then = %#v", cond.Then)
	}
}

func TestMemberChain(t *testing.T) {
	e := mustParseExpr(t, "a.b.c[d]")
	m, ok := e.(*ast.MemberExpr)
	if !ok || !m.Computed {
		t.Fatalf("top = %#v", e)
	}
	inner := m.Obj.(*ast.MemberExpr)
	if inner.Computed || keyNameT(t, inner.Prop) != "c" {
		t.Fatalf("inner = %#v", inner)
	}
}

func keyNameT(t *testing.T, e ast.Expr) string {
	t.Helper()
	id, ok := e.(*ast.Ident)
	if !ok {
		t.Fatalf("not ident: %#v", e)
	}
	return id.Name
}

func TestCallChain(t *testing.T) {
	e := mustParseExpr(t, "f(a)(b).g(c)")
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		t.Fatalf("top = %#v", e)
	}
	mem := call.Callee.(*ast.MemberExpr)
	if keyNameT(t, mem.Prop) != "g" {
		t.Fatalf("callee = %#v", mem)
	}
}

func TestNewExpr(t *testing.T) {
	e := mustParseExpr(t, "new Foo(1, 2)")
	n, ok := e.(*ast.NewExpr)
	if !ok || len(n.Args) != 2 {
		t.Fatalf("got %#v", e)
	}
	// new a.b.C() — member binds tighter.
	e = mustParseExpr(t, "new a.b.C()")
	n = e.(*ast.NewExpr)
	if _, ok := n.Callee.(*ast.MemberExpr); !ok {
		t.Fatalf("callee = %#v", n.Callee)
	}
	// new without args.
	e = mustParseExpr(t, "new Date")
	if _, ok := e.(*ast.NewExpr); !ok {
		t.Fatalf("got %#v", e)
	}
}

func TestObjectLiteral(t *testing.T) {
	e := mustParseExpr(t, `{a: 1, "b": two, [k]: 3, c, m() { return 1 }, ...rest}`)
	obj, ok := e.(*ast.ObjectLit)
	if !ok || len(obj.Props) != 6 {
		t.Fatalf("got %#v", e)
	}
	if !obj.Props[2].Computed {
		t.Error("prop[2] should be computed")
	}
	if _, ok := obj.Props[4].Value.(*ast.FunctionLit); !ok {
		t.Error("prop[4] should be a method")
	}
	if !obj.Props[5].Spread {
		t.Error("prop[5] should be spread")
	}
	// Shorthand {c} references identifier c.
	if id, ok := obj.Props[3].Value.(*ast.Ident); !ok || id.Name != "c" {
		t.Errorf("shorthand = %#v", obj.Props[3].Value)
	}
}

func TestArrayLiteral(t *testing.T) {
	e := mustParseExpr(t, "[1, , x, ...xs]")
	arr := e.(*ast.ArrayLit)
	if len(arr.Elems) != 4 {
		t.Fatalf("len = %d", len(arr.Elems))
	}
	if arr.Elems[1] != nil {
		t.Error("elision should be nil")
	}
	if _, ok := arr.Elems[3].(*ast.SpreadExpr); !ok {
		t.Error("last should be spread")
	}
}

func TestFunctionForms(t *testing.T) {
	prog := mustParse(t, `
function f(a, b) { return a + b; }
var g = function(x) { return x; };
var h = x => x + 1;
var k = (a, b) => { return a * b; };
var m = () => 0;
var n = async (q) => q;
`)
	if len(prog.Body) != 6 {
		t.Fatalf("body len = %d", len(prog.Body))
	}
	fd := prog.Body[0].(*ast.FuncDecl)
	if fd.Fn.Name != "f" || len(fd.Fn.Params) != 2 {
		t.Fatalf("f = %+v", fd.Fn)
	}
	h := prog.Body[2].(*ast.VarDecl).Decls[0].Init.(*ast.FunctionLit)
	if !h.Arrow || h.ExprBody == nil {
		t.Fatalf("h = %+v", h)
	}
	k := prog.Body[3].(*ast.VarDecl).Decls[0].Init.(*ast.FunctionLit)
	if !k.Arrow || k.Body == nil || len(k.Params) != 2 {
		t.Fatalf("k = %+v", k)
	}
	m := prog.Body[4].(*ast.VarDecl).Decls[0].Init.(*ast.FunctionLit)
	if len(m.Params) != 0 {
		t.Fatalf("m = %+v", m)
	}
}

func TestDefaultAndRestParams(t *testing.T) {
	prog := mustParse(t, "function f(a = 1, ...rest) {}")
	fn := prog.Body[0].(*ast.FuncDecl).Fn
	if fn.Params[0].Default == nil {
		t.Error("param a should have default")
	}
	if !fn.Params[1].Rest {
		t.Error("param rest should be rest")
	}
}

func TestIfElseChain(t *testing.T) {
	prog := mustParse(t, "if (a) b; else if (c) d; else e;")
	s := prog.Body[0].(*ast.IfStmt)
	if s.Else == nil {
		t.Fatal("missing else")
	}
	inner := s.Else.(*ast.IfStmt)
	if inner.Else == nil {
		t.Fatal("missing inner else")
	}
}

func TestLoops(t *testing.T) {
	prog := mustParse(t, `
while (x) { y(); }
do { z(); } while (q);
for (var i = 0; i < 10; i++) { body(); }
for (;;) { break; }
for (var k in obj) { use(k); }
for (const v of arr) { use(v); }
for (x in obj) {}
`)
	if _, ok := prog.Body[0].(*ast.WhileStmt); !ok {
		t.Error("want while")
	}
	if _, ok := prog.Body[1].(*ast.DoWhileStmt); !ok {
		t.Error("want do-while")
	}
	f := prog.Body[2].(*ast.ForStmt)
	if f.Init == nil || f.Cond == nil || f.Post == nil {
		t.Error("three-clause for should have all clauses")
	}
	f2 := prog.Body[3].(*ast.ForStmt)
	if f2.Init != nil || f2.Cond != nil || f2.Post != nil {
		t.Error("for(;;) should have nil clauses")
	}
	fi := prog.Body[4].(*ast.ForInStmt)
	if fi.Of || fi.DeclKind != "var" {
		t.Errorf("for-in = %+v", fi)
	}
	fo := prog.Body[5].(*ast.ForInStmt)
	if !fo.Of || fo.DeclKind != "const" {
		t.Errorf("for-of = %+v", fo)
	}
	fb := prog.Body[6].(*ast.ForInStmt)
	if fb.DeclKind != "" {
		t.Errorf("bare for-in = %+v", fb)
	}
}

func TestSwitch(t *testing.T) {
	prog := mustParse(t, `switch (x) { case 1: a(); break; case 2: case 3: b(); break; default: c(); }`)
	s := prog.Body[0].(*ast.SwitchStmt)
	if len(s.Cases) != 4 {
		t.Fatalf("cases = %d", len(s.Cases))
	}
	if s.Cases[3].Test != nil {
		t.Error("default case should have nil test")
	}
	if len(s.Cases[1].Body) != 0 {
		t.Error("fallthrough case should have empty body")
	}
}

func TestTryCatchFinally(t *testing.T) {
	prog := mustParse(t, "try { a(); } catch (e) { b(e); } finally { c(); }")
	s := prog.Body[0].(*ast.TryStmt)
	if s.CatchParam != "e" || s.CatchBlock == nil || s.FinallyBody == nil {
		t.Fatalf("got %+v", s)
	}
	// Param-less catch (ES2019).
	prog = mustParse(t, "try { a(); } catch { b(); }")
	s = prog.Body[0].(*ast.TryStmt)
	if s.CatchParam != "" || s.CatchBlock == nil {
		t.Fatalf("got %+v", s)
	}
	if _, err := Parse("try { a(); }"); err == nil {
		t.Error("try without catch/finally should fail")
	}
}

func TestASI(t *testing.T) {
	prog := mustParse(t, "a = 1\nb = 2\nreturn")
	if len(prog.Body) != 3 {
		t.Fatalf("body len = %d: %#v", len(prog.Body), prog.Body)
	}
	// return\nx — restricted production: return takes no argument.
	prog = mustParse(t, "function f() { return\nx }")
	fn := prog.Body[0].(*ast.FuncDecl).Fn
	ret := fn.Body.Body[0].(*ast.ReturnStmt)
	if ret.X != nil {
		t.Error("return across newline must not take operand")
	}
	// a\n++b — ++ binds to b, not postfix on a.
	prog = mustParse(t, "a\n++b")
	if len(prog.Body) != 2 {
		t.Fatalf("restricted ++: body len = %d", len(prog.Body))
	}
}

func TestMissingSemicolonError(t *testing.T) {
	if _, err := Parse("a = 1 b = 2"); err == nil {
		t.Fatal("expected error for missing semicolon on one line")
	}
}

func TestTemplateExpr(t *testing.T) {
	e := mustParseExpr(t, "`cmd ${a} and ${b.c}`")
	tpl := e.(*ast.TemplateLiteral)
	if len(tpl.Exprs) != 2 || len(tpl.Quasis) != 3 {
		t.Fatalf("got %+v", tpl)
	}
	if _, ok := tpl.Exprs[1].(*ast.MemberExpr); !ok {
		t.Errorf("exprs[1] = %#v", tpl.Exprs[1])
	}
}

func TestOptionalChaining(t *testing.T) {
	e := mustParseExpr(t, "a?.b?.[c]?.(d)")
	call := e.(*ast.CallExpr)
	if !call.Optional {
		t.Error("call should be optional")
	}
	idx := call.Callee.(*ast.MemberExpr)
	if !idx.Optional || !idx.Computed {
		t.Error("index should be optional computed")
	}
}

func TestUpdateExpr(t *testing.T) {
	e := mustParseExpr(t, "x++")
	u := e.(*ast.UpdateExpr)
	if u.Prefix || u.Op != "++" {
		t.Fatalf("got %+v", u)
	}
	e = mustParseExpr(t, "--y")
	u = e.(*ast.UpdateExpr)
	if !u.Prefix || u.Op != "--" {
		t.Fatalf("got %+v", u)
	}
}

func TestAssignOps(t *testing.T) {
	e := mustParseExpr(t, "x += 2")
	a := e.(*ast.AssignExpr)
	if a.Op != "+" {
		t.Fatalf("op = %q", a.Op)
	}
	e = mustParseExpr(t, "x ||= y")
	a = e.(*ast.AssignExpr)
	if a.Op != "||" {
		t.Fatalf("op = %q", a.Op)
	}
	if _, err := ParseExpr("1 = x"); err == nil {
		t.Error("assignment to literal should fail")
	}
}

func TestSequenceExpr(t *testing.T) {
	e := mustParseExpr(t, "(a, b, c)")
	seq := e.(*ast.SeqExpr)
	if len(seq.Exprs) != 3 {
		t.Fatalf("got %+v", seq)
	}
}

func TestUnaryOps(t *testing.T) {
	for _, src := range []string{"!x", "-x", "+x", "~x", "typeof x", "void 0", "delete a.b"} {
		e := mustParseExpr(t, src)
		if _, ok := e.(*ast.UnaryExpr); !ok {
			t.Errorf("%q: got %#v", src, e)
		}
	}
}

func TestClassDecl(t *testing.T) {
	prog := mustParse(t, `
class Animal {
  constructor(name) { this.name = name; }
  speak() { return this.name; }
  static create(n) { return new Animal(n); }
  get label() { return this.name; }
}
class Dog extends Animal {}
`)
	cd := prog.Body[0].(*ast.ClassDecl)
	if cd.Name != "Animal" || len(cd.Methods) != 4 {
		t.Fatalf("got %+v", cd)
	}
	if cd.Methods[0].Kind != "constructor" {
		t.Error("first method should be constructor")
	}
	if !cd.Methods[2].Static {
		t.Error("create should be static")
	}
	if cd.Methods[3].Kind != "get" {
		t.Error("label should be a getter")
	}
	dog := prog.Body[1].(*ast.ClassDecl)
	if dog.Super == nil {
		t.Error("Dog should extend Animal")
	}
}

func TestLabeledStatement(t *testing.T) {
	prog := mustParse(t, "outer: for (;;) { break outer; }")
	ls := prog.Body[0].(*ast.LabeledStmt)
	if ls.Label != "outer" {
		t.Fatalf("got %+v", ls)
	}
	brk := ls.Body.(*ast.ForStmt).Body.(*ast.BlockStmt).Body[0].(*ast.BreakStmt)
	if brk.Label != "outer" {
		t.Fatalf("break label = %q", brk.Label)
	}
}

func TestImportDesugaring(t *testing.T) {
	prog := mustParse(t, `import fs from 'fs';`)
	vd := prog.Body[0].(*ast.VarDecl)
	call := vd.Decls[0].Init.(*ast.CallExpr)
	if keyNameT(t, call.Callee) != "require" {
		t.Fatalf("got %#v", call.Callee)
	}
	prog = mustParse(t, `import {exec, spawn as sp} from 'child_process';`)
	vd = prog.Body[0].(*ast.VarDecl)
	if vd.Decls[0].Pattern == nil {
		t.Fatal("named import should produce a pattern declarator")
	}
	prog = mustParse(t, `import * as path from 'path';`)
	vd = prog.Body[0].(*ast.VarDecl)
	if vd.Decls[0].Name != "path" {
		t.Fatalf("got %+v", vd.Decls[0])
	}
	prog = mustParse(t, `import 'side-effect';`)
	if _, ok := prog.Body[0].(*ast.ExprStmt); !ok {
		t.Fatal("bare import should be expression statement")
	}
}

func TestExportDesugaring(t *testing.T) {
	prog := mustParse(t, `export function run(x) { return x; }`)
	blk := prog.Body[0].(*ast.BlockStmt)
	if len(blk.Body) != 2 {
		t.Fatalf("got %d stmts", len(blk.Body))
	}
	assign := blk.Body[1].(*ast.ExprStmt).X.(*ast.AssignExpr)
	tgt := assign.Target.(*ast.MemberExpr)
	if keyNameT(t, tgt.Prop) != "run" {
		t.Fatalf("target = %#v", tgt)
	}
	prog = mustParse(t, `export default function(x) { return x; }`)
	es := prog.Body[0].(*ast.ExprStmt).X.(*ast.AssignExpr)
	if _, ok := es.Value.(*ast.FunctionLit); !ok {
		t.Fatalf("value = %#v", es.Value)
	}
	prog = mustParse(t, `export const a = 1, b = 2;`)
	blk = prog.Body[0].(*ast.BlockStmt)
	if len(blk.Body) != 3 { // decl + 2 assigns
		t.Fatalf("got %d stmts", len(blk.Body))
	}
}

func TestCommonJSExports(t *testing.T) {
	prog := mustParse(t, "module.exports = function(a) { return a; };\nexports.helper = helper;")
	if len(prog.Body) != 2 {
		t.Fatalf("body len = %d", len(prog.Body))
	}
}

func TestDestructuringDecl(t *testing.T) {
	prog := mustParse(t, "var {a, b} = obj; var [x, y] = arr;")
	vd := prog.Body[0].(*ast.VarDecl)
	if vd.Decls[0].Pattern == nil || vd.Decls[0].Init == nil {
		t.Fatalf("got %+v", vd.Decls[0])
	}
	vd2 := prog.Body[1].(*ast.VarDecl)
	if _, ok := vd2.Decls[0].Pattern.(*ast.ArrayLit); !ok {
		t.Fatalf("got %#v", vd2.Decls[0].Pattern)
	}
}

func TestGitResetExample(t *testing.T) {
	// The paper's Fig. 1a motivating example must parse.
	src := `
const { exec } = require('child_process');

function git_reset(config, op, branch_name, url) {
	var options = config[op];
	options[branch_name] = url;
	options.cmd = 'git reset HEAD~';
	exec(options.cmd + options.commit);
}
module.exports = git_reset;
`
	prog := mustParse(t, src)
	if len(prog.Body) != 3 {
		t.Fatalf("body len = %d", len(prog.Body))
	}
	fd := prog.Body[1].(*ast.FuncDecl)
	if fd.Fn.Name != "git_reset" || len(fd.Fn.Params) != 4 {
		t.Fatalf("got %+v", fd.Fn)
	}
}

func TestSetValueExample(t *testing.T) {
	// The paper's §5.5 case study shape must parse.
	src := `
function setValue(obj, prop, value) {
	var path = prop.split('.');
	var len = path.length;
	for (var i = 0; i < len; i++) {
		var p = path[i];
		if (i === len - 1) {
			obj[p] = value;
		}
		obj = obj[p];
	}
	return obj;
}
module.exports = setValue;
`
	mustParse(t, src)
}

func TestParseErrorsHavePositions(t *testing.T) {
	_, err := Parse("var = 3;")
	if err == nil {
		t.Fatal("expected error")
	}
	pe, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type = %T", err)
	}
	if pe.Pos.Line != 1 {
		t.Errorf("pos = %v", pe.Pos)
	}
}

func TestRegexLiteralExpr(t *testing.T) {
	e := mustParseExpr(t, "/a+b/g")
	lit := e.(*ast.Literal)
	if lit.Kind != ast.LitRegex {
		t.Fatalf("got %+v", lit)
	}
}

func TestSpreadCall(t *testing.T) {
	e := mustParseExpr(t, "f(...args, x)")
	call := e.(*ast.CallExpr)
	if _, ok := call.Args[0].(*ast.SpreadExpr); !ok {
		t.Fatalf("got %#v", call.Args[0])
	}
}

func TestThisExpr(t *testing.T) {
	e := mustParseExpr(t, "this.x")
	m := e.(*ast.MemberExpr)
	if _, ok := m.Obj.(*ast.ThisExpr); !ok {
		t.Fatalf("got %#v", m.Obj)
	}
}

func TestInOperatorInsideFor(t *testing.T) {
	// `in` must act as for-in only at top level of the for header.
	prog := mustParse(t, "for (var i = ('a' in x) ? 0 : 1; i < 2; i++) {}")
	if _, ok := prog.Body[0].(*ast.ForStmt); !ok {
		t.Fatalf("got %T", prog.Body[0])
	}
}

func TestDeeplyNested(t *testing.T) {
	src := "a("
	for i := 0; i < 50; i++ {
		src += "b("
	}
	src += "x"
	for i := 0; i < 50; i++ {
		src += ")"
	}
	src += ")"
	mustParseExpr(t, src)
}

func TestWalkCount(t *testing.T) {
	prog := mustParse(t, "function f(a) { if (a) { return a + 1; } return 0; }")
	n := ast.Count(prog)
	if n < 8 {
		t.Fatalf("Count = %d, want >= 8", n)
	}
}

func TestArrowDisambiguation(t *testing.T) {
	// Parenthesized expression is NOT an arrow.
	e := mustParseExpr(t, "(a + b) * c")
	if _, ok := e.(*ast.BinaryExpr); !ok {
		t.Fatalf("got %#v", e)
	}
	// Nested parens then arrow: parenthesized parameter patterns are not
	// supported — must error cleanly, not crash.
	if _, err := ParseExpr("((a)) => a"); err == nil {
		t.Log("parenthesized arrow param accepted (fine)")
	}
}

func TestConditionalExprAssignment(t *testing.T) {
	e := mustParseExpr(t, "x = a ? f(1) : g(2)")
	a := e.(*ast.AssignExpr)
	if _, ok := a.Value.(*ast.CondExpr); !ok {
		t.Fatalf("got %#v", a.Value)
	}
}
