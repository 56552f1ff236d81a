// Package parser implements a recursive-descent parser for the
// JavaScript subset used by the scanner: the full expression grammar
// with standard precedence, statements, function/arrow/class forms,
// template literals, spread, and light destructuring. Automatic
// semicolon insertion follows the ECMAScript rules closely enough for
// real npm-package code.
package parser

import (
	"fmt"
	"sync"

	"repro/internal/budget"
	"repro/internal/js/ast"
	"repro/internal/js/lexer"
	"repro/internal/js/token"
)

// Error is a syntax error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

type parser struct {
	toks []token.Token
	pos  int
	err  *Error
	// noIn disables the `in` binary operator while parsing the head of a
	// for statement, so `for (x in y)` is recognized as for-in.
	noIn bool

	// depth bounds grammar recursion. A Go stack overflow cannot be
	// recovered, so deeply nested input (thousands of parens, unary
	// chains, nested blocks) must be rejected with an explicit limit —
	// this is the parser's only user-input path that could otherwise
	// kill the process.
	depth int

	// bud is the scan-wide fault-containment budget: one step is
	// charged per statement parsed, so the parser cooperates with the
	// scan deadline and step cap. budErr preserves the budget error's
	// classification (p.err would flatten it into a syntax error).
	bud    *budget.Budget
	budErr error
}

// maxNestDepth bounds grammar recursion (statements + expressions).
// Real code nests tens of levels; pathological input nests thousands.
// Each level costs ~10 stack frames, so 2000 levels stay well inside
// the runtime's stack ceiling.
const maxNestDepth = 2000

// enter charges one recursion level; callers defer p.leave().
func (p *parser) enter() bool {
	p.depth++
	if p.depth > maxNestDepth {
		// errorf jumps to EOF, so the whole recursion tower unwinds
		// without doing further work.
		p.errorf(p.cur().Pos, "nesting exceeds %d levels", maxNestDepth)
		return false
	}
	return true
}

func (p *parser) leave() { p.depth-- }

// Parse parses a whole program.
func Parse(src string) (*ast.Program, error) {
	return ParseBudget(src, nil)
}

// ParseBudget is Parse under a fault-containment budget: one step per
// statement. When the budget trips, the returned error is the budget's
// classified error (timeout or cap), not a syntax error.
func ParseBudget(src string, b *budget.Budget) (*ast.Program, error) {
	buf, toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, bud: b}
	prog := &ast.Program{Base: ast.Base{P: token.Pos{Line: 1, Column: 1}}}
	//lint:allow budgetloop -- parseStmt consults the budget per token via p.budErr
	for !p.at(token.EOF) && p.err == nil && p.budErr == nil {
		s := p.parseStmt()
		if s != nil {
			prog.Body = append(prog.Body, s)
		}
	}
	if p.budErr != nil {
		return nil, p.budErr
	}
	releaseTokens(buf, toks)
	if p.err != nil {
		return nil, p.err
	}
	return prog, nil
}

// tokenPool holds token buffers between parses. Tokens are values and
// the AST keeps only their strings, so a buffer is cleared and pooled
// once its parse ends. A parse that panics or trips its budget drops
// its buffer, and a buffer grown past maxPooled is dropped so one
// huge file cannot pin memory.
var tokenPool = sync.Pool{New: func() any { return new([]token.Token) }}

// maxPooled caps a pooled buffer's capacity (tokens).
const maxPooled = 1 << 14

// lex tokenizes src into a pooled buffer. On a lexing error the buffer
// goes straight back to the pool.
func lex(src string) (*[]token.Token, []token.Token, error) {
	buf := tokenPool.Get().(*[]token.Token)
	// Sources average about three bytes per token.
	if need := len(src)/3 + 16; cap(*buf) < need && need <= maxPooled {
		*buf = make([]token.Token, 0, need)
	}
	toks, err := lexer.AppendAll((*buf)[:0], src)
	if err != nil {
		releaseTokens(buf, toks)
		return nil, nil, err
	}
	return buf, toks, nil
}

// releaseTokens clears toks, the tokens lexed into buf, and pools buf.
func releaseTokens(buf *[]token.Token, toks []token.Token) {
	if cap(toks) > maxPooled {
		return
	}
	clear(toks)
	*buf = toks[:0]
	tokenPool.Put(buf)
}

// ---------------------------------------------------------------------------
// Token plumbing
// ---------------------------------------------------------------------------

func (p *parser) cur() token.Token { return p.toks[p.pos] }

func (p *parser) peekTok(n int) token.Token {
	if p.pos+n < len(p.toks) {
		return p.toks[p.pos+n]
	}
	return p.toks[len(p.toks)-1] // EOF
}

func (p *parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *parser) atKeyword(kw string) bool {
	t := p.cur()
	return t.Kind == token.KEYWORD && t.Lit == kw
}

func (p *parser) atIdent(name string) bool {
	t := p.cur()
	return t.Kind == token.IDENT && t.Lit == name
}

func (p *parser) next() token.Token {
	t := p.cur()
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errorf(pos token.Pos, format string, args ...any) {
	if p.err == nil {
		p.err = &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
	// Skip to EOF so parsing terminates quickly after an error.
	p.pos = len(p.toks) - 1
}

func (p *parser) expect(k token.Kind) token.Token {
	if !p.at(k) {
		p.errorf(p.cur().Pos, "expected %s, found %s", k, p.cur())
		return p.cur()
	}
	return p.next()
}

func (p *parser) expectKeyword(kw string) token.Token {
	if !p.atKeyword(kw) {
		p.errorf(p.cur().Pos, "expected %q, found %s", kw, p.cur())
		return p.cur()
	}
	return p.next()
}

// consumeSemi implements automatic semicolon insertion: an explicit ';',
// a '}' ahead, EOF, or a preceding line terminator all end the statement.
func (p *parser) consumeSemi() {
	switch {
	case p.at(token.SEMI):
		p.next()
	case p.at(token.RBRACE), p.at(token.EOF):
	case p.cur().NewlineBefore:
	default:
		p.errorf(p.cur().Pos, "expected ';', found %s", p.cur())
	}
}

func at(t token.Token) ast.Base { return ast.Base{P: t.Pos} }

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (p *parser) parseStmt() ast.Stmt {
	if p.bud != nil && p.budErr == nil {
		if err := p.bud.Step(); err != nil {
			p.budErr = err
			p.pos = len(p.toks) - 1 // jump to EOF: terminate quickly
			return nil
		}
	}
	if !p.enter() {
		return nil
	}
	defer p.leave()
	t := p.cur()
	switch {
	case t.Kind == token.SEMI:
		p.next()
		return &ast.EmptyStmt{Base: at(t)}
	case t.Kind == token.LBRACE:
		return p.parseBlock()
	case t.Kind == token.KEYWORD:
		switch t.Lit {
		case "var", "let", "const":
			s := p.parseVarDecl()
			p.consumeSemi()
			return s
		case "if":
			return p.parseIf()
		case "while":
			return p.parseWhile()
		case "do":
			return p.parseDoWhile()
		case "for":
			return p.parseFor()
		case "function":
			return p.parseFuncDecl()
		case "return":
			return p.parseReturn()
		case "break":
			p.next()
			s := &ast.BreakStmt{Base: at(t)}
			if p.at(token.IDENT) && !p.cur().NewlineBefore {
				s.Label = p.next().Lit
			}
			p.consumeSemi()
			return s
		case "continue":
			p.next()
			s := &ast.ContinueStmt{Base: at(t)}
			if p.at(token.IDENT) && !p.cur().NewlineBefore {
				s.Label = p.next().Lit
			}
			p.consumeSemi()
			return s
		case "throw":
			p.next()
			x := p.parseExpr()
			p.consumeSemi()
			return &ast.ThrowStmt{Base: at(t), X: x}
		case "try":
			return p.parseTry()
		case "switch":
			return p.parseSwitch()
		case "class":
			return p.parseClass()
		case "debugger":
			p.next()
			p.consumeSemi()
			return &ast.EmptyStmt{Base: at(t)}
		case "import":
			return p.parseImport()
		case "export":
			return p.parseExport()
		case "with":
			p.errorf(t.Pos, "'with' statements are not supported")
			return nil
		}
	case t.Kind == token.IDENT && p.peekTok(1).Kind == token.COLON:
		// Labeled statement.
		p.next()
		p.next()
		body := p.parseStmt()
		return &ast.LabeledStmt{Base: at(t), Label: t.Lit, Body: body}
	}
	// Expression statement.
	x := p.parseExpr()
	p.consumeSemi()
	return &ast.ExprStmt{Base: at(t), X: x}
}

func (p *parser) parseBlock() *ast.BlockStmt {
	lb := p.expect(token.LBRACE)
	b := &ast.BlockStmt{Base: at(lb)}
	for !p.at(token.RBRACE) && !p.at(token.EOF) && p.err == nil {
		if s := p.parseStmt(); s != nil {
			b.Body = append(b.Body, s)
		}
	}
	p.expect(token.RBRACE)
	return b
}

func (p *parser) parseVarDecl() *ast.VarDecl {
	kw := p.next() // var/let/const
	d := &ast.VarDecl{Base: at(kw), Kind: kw.Lit}
	for {
		var decl ast.Declarator
		switch {
		case p.at(token.IDENT):
			decl.Name = p.next().Lit
		case p.at(token.LBRACE), p.at(token.LBRACKET):
			decl.Pattern = p.parsePrimary()
		default:
			p.errorf(p.cur().Pos, "expected binding identifier, found %s", p.cur())
			return d
		}
		if p.at(token.ASSIGN) {
			p.next()
			decl.Init = p.parseAssign()
		}
		d.Decls = append(d.Decls, decl)
		if !p.at(token.COMMA) {
			break
		}
		p.next()
	}
	return d
}

func (p *parser) parseIf() ast.Stmt {
	kw := p.expectKeyword("if")
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	then := p.parseStmt()
	s := &ast.IfStmt{Base: at(kw), Cond: cond, Then: then}
	if p.atKeyword("else") {
		p.next()
		s.Else = p.parseStmt()
	}
	return s
}

func (p *parser) parseWhile() ast.Stmt {
	kw := p.expectKeyword("while")
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	body := p.parseStmt()
	return &ast.WhileStmt{Base: at(kw), Cond: cond, Body: body}
}

func (p *parser) parseDoWhile() ast.Stmt {
	kw := p.expectKeyword("do")
	body := p.parseStmt()
	p.expectKeyword("while")
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	if p.at(token.SEMI) {
		p.next()
	}
	return &ast.DoWhileStmt{Base: at(kw), Body: body, Cond: cond}
}

func (p *parser) parseFor() ast.Stmt {
	kw := p.expectKeyword("for")
	p.expect(token.LPAREN)

	// Detect for-in / for-of by scanning ahead for `in`/`of` before ';'.
	var init ast.Stmt
	declKind := ""
	var left ast.Expr
	if p.atKeyword("var") || p.atKeyword("let") || p.atKeyword("const") {
		declKind = p.cur().Lit
		save := p.pos
		vd := p.parseVarDecl()
		if (p.atKeyword("in") || p.atIdent("of")) && len(vd.Decls) == 1 && vd.Decls[0].Init == nil {
			if vd.Decls[0].Name != "" {
				left = &ast.Ident{Base: vd.Base, Name: vd.Decls[0].Name}
			} else {
				left = vd.Decls[0].Pattern
			}
			return p.parseForInTail(kw, declKind, left)
		}
		_ = save
		init = vd
	} else if !p.at(token.SEMI) {
		p.noIn = true
		left = p.parseExpr()
		p.noIn = false
		if p.atKeyword("in") || p.atIdent("of") {
			return p.parseForInTail(kw, "", left)
		}
		init = &ast.ExprStmt{Base: at(kw), X: left}
	}
	p.expect(token.SEMI)
	var cond, post ast.Expr
	if !p.at(token.SEMI) {
		cond = p.parseExpr()
	}
	p.expect(token.SEMI)
	if !p.at(token.RPAREN) {
		post = p.parseExpr()
	}
	p.expect(token.RPAREN)
	body := p.parseStmt()
	return &ast.ForStmt{Base: at(kw), Init: init, Cond: cond, Post: post, Body: body}
}

func (p *parser) parseForInTail(kw token.Token, declKind string, left ast.Expr) ast.Stmt {
	of := p.atIdent("of")
	p.next() // in / of
	right := p.parseAssign()
	p.expect(token.RPAREN)
	body := p.parseStmt()
	return &ast.ForInStmt{Base: at(kw), DeclKind: declKind, Left: left, Right: right, Body: body, Of: of}
}

func (p *parser) parseFuncDecl() ast.Stmt {
	kw := p.cur()
	fn := p.parseFunctionLit(false)
	if fn.Name == "" {
		p.errorf(kw.Pos, "function declaration requires a name")
	}
	return &ast.FuncDecl{Base: at(kw), Fn: fn}
}

func (p *parser) parseReturn() ast.Stmt {
	kw := p.expectKeyword("return")
	s := &ast.ReturnStmt{Base: at(kw)}
	if !p.at(token.SEMI) && !p.at(token.RBRACE) && !p.at(token.EOF) && !p.cur().NewlineBefore {
		s.X = p.parseExpr()
	}
	p.consumeSemi()
	return s
}

func (p *parser) parseTry() ast.Stmt {
	kw := p.expectKeyword("try")
	s := &ast.TryStmt{Base: at(kw)}
	s.Block = p.parseBlock()
	if p.atKeyword("catch") {
		p.next()
		if p.at(token.LPAREN) {
			p.next()
			if p.at(token.IDENT) {
				s.CatchParam = p.next().Lit
			} else if p.at(token.LBRACE) || p.at(token.LBRACKET) {
				p.parsePrimary() // pattern param: names are dropped
			}
			p.expect(token.RPAREN)
		}
		s.CatchBlock = p.parseBlock()
	}
	if p.atKeyword("finally") {
		p.next()
		s.FinallyBody = p.parseBlock()
	}
	if s.CatchBlock == nil && s.FinallyBody == nil {
		p.errorf(kw.Pos, "try statement requires catch or finally")
	}
	return s
}

func (p *parser) parseSwitch() ast.Stmt {
	kw := p.expectKeyword("switch")
	p.expect(token.LPAREN)
	disc := p.parseExpr()
	p.expect(token.RPAREN)
	p.expect(token.LBRACE)
	s := &ast.SwitchStmt{Base: at(kw), Disc: disc}
	for !p.at(token.RBRACE) && !p.at(token.EOF) && p.err == nil {
		var c ast.SwitchCase
		if p.atKeyword("case") {
			p.next()
			c.Test = p.parseExpr()
		} else if p.atKeyword("default") {
			p.next()
		} else {
			p.errorf(p.cur().Pos, "expected 'case' or 'default', found %s", p.cur())
			break
		}
		p.expect(token.COLON)
		for !p.atKeyword("case") && !p.atKeyword("default") && !p.at(token.RBRACE) && !p.at(token.EOF) && p.err == nil {
			if st := p.parseStmt(); st != nil {
				c.Body = append(c.Body, st)
			}
		}
		s.Cases = append(s.Cases, c)
	}
	p.expect(token.RBRACE)
	return s
}

func (p *parser) parseClass() ast.Stmt {
	kw := p.expectKeyword("class")
	s := &ast.ClassDecl{Base: at(kw)}
	if p.at(token.IDENT) {
		s.Name = p.next().Lit
	}
	if p.atKeyword("extends") {
		p.next()
		s.Super = p.parseLeftHandSide()
	}
	p.expect(token.LBRACE)
	for !p.at(token.RBRACE) && !p.at(token.EOF) && p.err == nil {
		if p.at(token.SEMI) {
			p.next()
			continue
		}
		m := ast.ClassMethod{Kind: "method"}
		if p.atIdent("static") && p.peekTok(1).Kind != token.LPAREN {
			m.Static = true
			p.next()
		}
		if p.atIdent("async") && p.peekTok(1).Kind != token.LPAREN {
			p.next() // async methods analyze like plain methods
		}
		if p.at(token.STAR) { // generator method
			p.next()
		}
		if (p.atIdent("get") || p.atIdent("set")) && p.peekTok(1).Kind != token.LPAREN {
			m.Kind = p.next().Lit
		}
		nameTok := p.cur()
		switch nameTok.Kind {
		case token.IDENT, token.KEYWORD, token.STRING, token.NUMBER:
			p.next()
			m.Name = nameTok.Lit
		default:
			p.errorf(nameTok.Pos, "expected method name, found %s", nameTok)
			return s
		}
		if m.Name == "constructor" {
			m.Kind = "constructor"
		}
		if p.at(token.LPAREN) {
			fn := &ast.FunctionLit{Base: at(nameTok), Name: m.Name}
			fn.Params = p.parseParams()
			fn.Body = p.parseBlock()
			m.Fn = fn
			s.Methods = append(s.Methods, m)
		} else if p.at(token.ASSIGN) {
			// Class field: desugar to a method-less property; record as a
			// zero-arg getter returning the initializer.
			p.next()
			val := p.parseAssign()
			p.consumeSemi()
			fn := &ast.FunctionLit{Base: at(nameTok), Name: m.Name, ExprBody: val, Arrow: true}
			m.Kind = "field"
			m.Fn = fn
			s.Methods = append(s.Methods, m)
		} else {
			p.consumeSemi()
		}
	}
	p.expect(token.RBRACE)
	return s
}

// parseImport handles `import x from 'm'`, `import {a, b} from 'm'`,
// `import * as ns from 'm'` and bare `import 'm'`. These are desugared
// to require() calls so the downstream analysis sees a single form.
func (p *parser) parseImport() ast.Stmt {
	kw := p.expectKeyword("import")
	mk := func(name string, modTok token.Token) ast.Declarator {
		req := &ast.CallExpr{
			Base:   at(kw),
			Callee: &ast.Ident{Base: at(kw), Name: "require"},
			Args: []ast.Expr{&ast.Literal{
				Base: at(modTok), Kind: ast.LitString, Value: modTok.Lit,
			}},
		}
		return ast.Declarator{Name: name, Init: req}
	}
	// import 'm';
	if p.at(token.STRING) {
		mod := p.next()
		p.consumeSemi()
		d := mk("", mod)
		return &ast.ExprStmt{Base: at(kw), X: d.Init}
	}
	var decls []ast.Declarator
	var names []string
	var pattern *ast.ObjectLit
	switch {
	case p.at(token.IDENT):
		names = append(names, p.next().Lit)
		if p.at(token.COMMA) {
			p.next()
		}
	}
	if p.at(token.STAR) {
		p.next()
		if !p.atIdent("as") {
			p.errorf(p.cur().Pos, "expected 'as' in namespace import")
			return nil
		}
		p.next()
		names = append(names, p.expect(token.IDENT).Lit)
	} else if p.at(token.LBRACE) {
		pattern = &ast.ObjectLit{Base: at(p.next())}
		for !p.at(token.RBRACE) && !p.at(token.EOF) && p.err == nil {
			n := p.cur()
			if n.Kind != token.IDENT && n.Kind != token.KEYWORD {
				p.errorf(n.Pos, "expected import name, found %s", n)
				return nil
			}
			p.next()
			local := n.Lit
			if p.atIdent("as") {
				p.next()
				local = p.expect(token.IDENT).Lit
			}
			pattern.Props = append(pattern.Props, ast.Property{
				Key:   &ast.Ident{Base: at(n), Name: n.Lit},
				Value: &ast.Ident{Base: at(n), Name: local},
			})
			if p.at(token.COMMA) {
				p.next()
			}
		}
		p.expect(token.RBRACE)
	}
	if !p.atIdent("from") {
		p.errorf(p.cur().Pos, "expected 'from' in import")
		return nil
	}
	p.next()
	mod := p.expect(token.STRING)
	p.consumeSemi()
	for _, n := range names {
		decls = append(decls, mk(n, mod))
	}
	if pattern != nil {
		d := mk("", mod)
		d.Pattern = pattern
		decls = append(decls, d)
	}
	return &ast.VarDecl{Base: at(kw), Kind: "const", Decls: decls}
}

// parseExport desugars `export function f(){}` / `export const x = ...` /
// `export default e` into assignments to module.exports, matching the
// CommonJS attack-surface model used by the analysis.
func (p *parser) parseExport() ast.Stmt {
	kw := p.expectKeyword("export")
	moduleExports := func(prop string) ast.Expr {
		me := &ast.MemberExpr{
			Base: at(kw),
			Obj:  &ast.Ident{Base: at(kw), Name: "module"},
			Prop: &ast.Ident{Base: at(kw), Name: "exports"},
		}
		if prop == "" {
			return me
		}
		return &ast.MemberExpr{Base: at(kw), Obj: me, Prop: &ast.Ident{Base: at(kw), Name: prop}}
	}
	switch {
	case p.atKeyword("default"):
		p.next()
		var val ast.Expr
		if p.atKeyword("function") {
			val = p.parseFunctionLit(false)
		} else if p.atKeyword("class") {
			cd := p.parseClass()
			return cd // class decl registered; export linkage dropped
		} else {
			val = p.parseAssign()
			p.consumeSemi()
		}
		return &ast.ExprStmt{Base: at(kw), X: &ast.AssignExpr{
			Base: at(kw), Target: moduleExports(""), Value: val,
		}}
	case p.atKeyword("function"):
		fd := p.parseFuncDecl().(*ast.FuncDecl)
		assign := &ast.ExprStmt{Base: at(kw), X: &ast.AssignExpr{
			Base:   at(kw),
			Target: moduleExports(fd.Fn.Name),
			Value:  &ast.Ident{Base: fd.Base, Name: fd.Fn.Name},
		}}
		return &ast.BlockStmt{Base: at(kw), Body: []ast.Stmt{fd, assign}}
	case p.atKeyword("var") || p.atKeyword("let") || p.atKeyword("const"):
		vd := p.parseVarDecl()
		p.consumeSemi()
		stmts := []ast.Stmt{vd}
		for _, d := range vd.Decls {
			if d.Name == "" {
				continue
			}
			stmts = append(stmts, &ast.ExprStmt{Base: at(kw), X: &ast.AssignExpr{
				Base:   at(kw),
				Target: moduleExports(d.Name),
				Value:  &ast.Ident{Base: vd.Base, Name: d.Name},
			}})
		}
		return &ast.BlockStmt{Base: at(kw), Body: stmts}
	case p.atKeyword("class"):
		return p.parseClass()
	case p.at(token.LBRACE):
		// export {a, b as c}
		p.next()
		var stmts []ast.Stmt
		for !p.at(token.RBRACE) && !p.at(token.EOF) && p.err == nil {
			n := p.expect(token.IDENT)
			exported := n.Lit
			if p.atIdent("as") {
				p.next()
				exported = p.expect(token.IDENT).Lit
			}
			stmts = append(stmts, &ast.ExprStmt{Base: at(kw), X: &ast.AssignExpr{
				Base:   at(kw),
				Target: moduleExports(exported),
				Value:  &ast.Ident{Base: at(n), Name: n.Lit},
			}})
			if p.at(token.COMMA) {
				p.next()
			}
		}
		p.expect(token.RBRACE)
		if p.atIdent("from") {
			p.next()
			p.expect(token.STRING)
		}
		p.consumeSemi()
		return &ast.BlockStmt{Base: at(kw), Body: stmts}
	default:
		p.errorf(p.cur().Pos, "unsupported export form")
		return nil
	}
}
