package parser

import (
	"strings"

	"repro/internal/js/ast"
	"repro/internal/js/token"
)

// Binding powers for binary operators, following the ECMAScript grammar.
var binaryPrec = map[string]int{
	"??": 1,
	"||": 2, "&&": 3,
	"|": 4, "^": 5, "&": 6,
	"==": 7, "!=": 7, "===": 7, "!==": 7,
	"<": 8, ">": 8, "<=": 8, ">=": 8, "in": 8, "instanceof": 8,
	"<<": 9, ">>": 9, ">>>": 9,
	"+": 10, "-": 10,
	"*": 11, "/": 11, "%": 11,
	"**": 12,
}

func isLogicalOp(op string) bool { return op == "&&" || op == "||" || op == "??" }

// parseExpr parses a full expression including the comma operator.
func (p *parser) parseExpr() ast.Expr {
	first := p.parseAssign()
	if !p.at(token.COMMA) {
		return first
	}
	seq := &ast.SeqExpr{Base: ast.Base{P: first.Pos()}, Exprs: []ast.Expr{first}}
	for p.at(token.COMMA) {
		p.next()
		seq.Exprs = append(seq.Exprs, p.parseAssign())
	}
	return seq
}

// parseAssign parses an AssignmentExpression (arrow functions, ternary,
// assignment operators).
func (p *parser) parseAssign() ast.Expr {
	if !p.enter() {
		return &ast.Literal{Base: at(p.cur()), Kind: ast.LitUndefined, Value: "undefined"}
	}
	defer p.leave()
	// Arrow-function lookahead: `ident =>` or `( ... ) =>` or `async (...) =>`.
	if fn, ok := p.tryParseArrow(); ok {
		return fn
	}
	left := p.parseConditional()
	if tk := p.cur(); token.IsAssign(tk.Kind) {
		switch left.(type) {
		case *ast.Ident, *ast.MemberExpr, *ast.ObjectLit, *ast.ArrayLit:
		default:
			p.errorf(tk.Pos, "invalid assignment target")
			return left
		}
		p.next()
		right := p.parseAssign()
		return &ast.AssignExpr{
			Base: ast.Base{P: left.Pos()}, Op: token.Assignment[tk.Kind],
			Target: left, Value: right,
		}
	}
	return left
}

// tryParseArrow speculatively parses an arrow function. It reports
// ok=false (with position restored) when the tokens do not form one.
func (p *parser) tryParseArrow() (ast.Expr, bool) {
	start := p.pos
	if p.atIdent("async") && !p.peekTok(1).NewlineBefore &&
		(p.peekTok(1).Kind == token.IDENT || p.peekTok(1).Kind == token.LPAREN) {
		p.next() // treat async fns as plain fns: the analysis is flow-insensitive across awaits
	}
	t := p.cur()
	switch t.Kind {
	case token.IDENT:
		if p.peekTok(1).Kind == token.ARROW {
			p.next()
			p.next()
			fn := &ast.FunctionLit{Base: at(t), Arrow: true, Params: []ast.Param{{Name: t.Lit}}}
			p.parseArrowBody(fn)
			return fn, true
		}
	case token.LPAREN:
		if !p.parenStartsArrow() {
			break
		}
		p.next() // (
		fn := &ast.FunctionLit{Base: at(t), Arrow: true}
		fn.Params = p.parseParamListTail()
		p.expect(token.ARROW)
		p.parseArrowBody(fn)
		return fn, true
	}
	p.pos = start
	return nil, false
}

// parenStartsArrow scans forward from a '(' to the matching ')' and
// reports whether the next token is '=>'.
func (p *parser) parenStartsArrow() bool {
	depth := 0
	for i := p.pos; i < len(p.toks); i++ {
		switch p.toks[i].Kind {
		case token.LPAREN, token.LBRACKET, token.LBRACE:
			depth++
		case token.RPAREN, token.RBRACKET, token.RBRACE:
			depth--
			if depth == 0 {
				return i+1 < len(p.toks) && p.toks[i+1].Kind == token.ARROW
			}
		case token.EOF:
			return false
		}
	}
	return false
}

func (p *parser) parseArrowBody(fn *ast.FunctionLit) {
	if p.at(token.LBRACE) {
		fn.Body = p.parseBlock()
	} else {
		fn.ExprBody = p.parseAssign()
	}
}

func (p *parser) parseConditional() ast.Expr {
	cond := p.parseBinary(0)
	if !p.at(token.QUESTION) {
		return cond
	}
	p.next()
	then := p.parseAssign()
	p.expect(token.COLON)
	els := p.parseAssign()
	return &ast.CondExpr{Base: ast.Base{P: cond.Pos()}, Cond: cond, Then: then, Else: els}
}

// parseBinary is a precedence climber over binaryPrec.
func (p *parser) parseBinary(minPrec int) ast.Expr {
	left := p.parseUnary()
	for {
		opTok := p.cur()
		var op string
		switch {
		case opTok.Kind == token.KEYWORD && (opTok.Lit == "in" || opTok.Lit == "instanceof"):
			if opTok.Lit == "in" && p.noIn {
				return left
			}
			op = opTok.Lit
		case opTok.Kind >= token.PLUS && opTok.Kind <= token.USHR && opTok.Lit != "":
			op = opTok.Lit
		default:
			return left
		}
		prec, ok := binaryPrec[op]
		if !ok || prec < minPrec {
			return left
		}
		p.next()
		// ** is right-associative; everything else left-associative.
		nextMin := prec + 1
		if op == "**" {
			nextMin = prec
		}
		right := p.parseBinary(nextMin)
		if isLogicalOp(op) {
			left = &ast.LogicalExpr{Base: ast.Base{P: left.Pos()}, Op: op, L: left, R: right}
		} else {
			left = &ast.BinaryExpr{Base: ast.Base{P: left.Pos()}, Op: op, L: left, R: right}
		}
	}
}

func (p *parser) parseUnary() ast.Expr {
	if !p.enter() {
		return &ast.Literal{Base: at(p.cur()), Kind: ast.LitUndefined, Value: "undefined"}
	}
	defer p.leave()
	t := p.cur()
	switch {
	case t.Kind == token.NOT || t.Kind == token.TILD || t.Kind == token.PLUS || t.Kind == token.MINUS:
		p.next()
		x := p.parseUnary()
		return &ast.UnaryExpr{Base: at(t), Op: t.Lit, X: x}
	case t.Kind == token.KEYWORD && (t.Lit == "typeof" || t.Lit == "void" || t.Lit == "delete"):
		p.next()
		x := p.parseUnary()
		return &ast.UnaryExpr{Base: at(t), Op: t.Lit, X: x}
	case t.Kind == token.INC || t.Kind == token.DEC:
		p.next()
		x := p.parseUnary()
		return &ast.UpdateExpr{Base: at(t), Op: t.Lit, X: x, Prefix: true}
	case t.Kind == token.IDENT && t.Lit == "await":
		// Treat `await e` as transparent: taint flows through promises.
		p.next()
		return p.parseUnary()
	case t.Kind == token.KEYWORD && t.Lit == "yield":
		p.next()
		if p.at(token.SEMI) || p.at(token.RPAREN) || p.at(token.RBRACE) || p.cur().NewlineBefore {
			return &ast.Literal{Base: at(t), Kind: ast.LitUndefined, Value: "undefined"}
		}
		if p.at(token.STAR) {
			p.next()
		}
		return p.parseAssign()
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() ast.Expr {
	x := p.parseLeftHandSide()
	t := p.cur()
	if (t.Kind == token.INC || t.Kind == token.DEC) && !t.NewlineBefore {
		p.next()
		return &ast.UpdateExpr{Base: ast.Base{P: x.Pos()}, Op: t.Lit, X: x}
	}
	return x
}

// parseLeftHandSide parses member accesses, calls and `new` chains.
func (p *parser) parseLeftHandSide() ast.Expr {
	var x ast.Expr
	if p.atKeyword("new") {
		x = p.parseNew()
	} else {
		x = p.parsePrimary()
	}
	return p.parseCallTail(x)
}

func (p *parser) parseNew() ast.Expr {
	kw := p.expectKeyword("new")
	if p.at(token.DOT) { // new.target
		p.next()
		p.expect(token.IDENT)
		return &ast.Ident{Base: at(kw), Name: "new.target"}
	}
	var callee ast.Expr
	if p.atKeyword("new") {
		callee = p.parseNew()
	} else {
		callee = p.parsePrimary()
	}
	// Member accesses bind tighter than the new's argument list.
	for {
		switch {
		case p.at(token.DOT):
			p.next()
			callee = p.parseMemberTail(callee, false)
		case p.at(token.LBRACKET):
			p.next()
			prop := p.parseExpr()
			p.expect(token.RBRACKET)
			callee = &ast.MemberExpr{Base: ast.Base{P: callee.Pos()}, Obj: callee, Prop: prop, Computed: true}
		default:
			n := &ast.NewExpr{Base: at(kw), Callee: callee}
			if p.at(token.LPAREN) {
				n.Args = p.parseArgs()
			}
			return n
		}
	}
}

func (p *parser) parseMemberTail(obj ast.Expr, optional bool) ast.Expr {
	t := p.cur()
	if t.Kind != token.IDENT && t.Kind != token.KEYWORD {
		p.errorf(t.Pos, "expected property name, found %s", t)
		return obj
	}
	p.next()
	return &ast.MemberExpr{
		Base: ast.Base{P: obj.Pos()}, Obj: obj,
		Prop:     &ast.Ident{Base: at(t), Name: t.Lit},
		Optional: optional,
	}
}

func (p *parser) parseCallTail(x ast.Expr) ast.Expr {
	for {
		switch {
		case p.at(token.DOT):
			p.next()
			x = p.parseMemberTail(x, false)
		case p.at(token.OPTCHAIN):
			p.next()
			switch {
			case p.at(token.LPAREN):
				x = &ast.CallExpr{Base: ast.Base{P: x.Pos()}, Callee: x, Args: p.parseArgs(), Optional: true}
			case p.at(token.LBRACKET):
				p.next()
				prop := p.parseExpr()
				p.expect(token.RBRACKET)
				x = &ast.MemberExpr{Base: ast.Base{P: x.Pos()}, Obj: x, Prop: prop, Computed: true, Optional: true}
			default:
				x = p.parseMemberTail(x, true)
			}
		case p.at(token.LBRACKET):
			p.next()
			prop := p.parseExpr()
			p.expect(token.RBRACKET)
			x = &ast.MemberExpr{Base: ast.Base{P: x.Pos()}, Obj: x, Prop: prop, Computed: true}
		case p.at(token.LPAREN):
			x = &ast.CallExpr{Base: ast.Base{P: x.Pos()}, Callee: x, Args: p.parseArgs()}
		case p.at(token.TEMPLATE):
			// Tagged template: model as a call with the template pieces.
			t := p.next()
			tpl := p.buildTemplate(t)
			x = &ast.CallExpr{Base: ast.Base{P: x.Pos()}, Callee: x, Args: []ast.Expr{tpl}}
		default:
			return x
		}
	}
}

func (p *parser) parseArgs() []ast.Expr {
	p.expect(token.LPAREN)
	var args []ast.Expr
	for !p.at(token.RPAREN) && !p.at(token.EOF) && p.err == nil {
		if p.at(token.ELLIPSIS) {
			t := p.next()
			args = append(args, &ast.SpreadExpr{Base: at(t), X: p.parseAssign()})
		} else {
			args = append(args, p.parseAssign())
		}
		if p.at(token.COMMA) {
			p.next()
		}
	}
	p.expect(token.RPAREN)
	return args
}

func (p *parser) parsePrimary() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.IDENT:
		p.next()
		if t.Lit == "async" && p.atKeyword("function") {
			return p.parseFunctionLit(false)
		}
		return &ast.Ident{Base: at(t), Name: t.Lit}
	case token.NUMBER:
		p.next()
		return &ast.Literal{Base: at(t), Kind: ast.LitNumber, Value: t.Lit}
	case token.STRING:
		p.next()
		return &ast.Literal{Base: at(t), Kind: ast.LitString, Value: t.Lit}
	case token.REGEX:
		p.next()
		return &ast.Literal{Base: at(t), Kind: ast.LitRegex, Value: t.Lit}
	case token.TEMPLATE:
		p.next()
		return p.buildTemplate(t)
	case token.LPAREN:
		p.next()
		saveNoIn := p.noIn
		p.noIn = false // parens re-enable `in` inside for-headers
		x := p.parseExpr()
		p.noIn = saveNoIn
		p.expect(token.RPAREN)
		return x
	case token.LBRACKET:
		return p.parseArrayLit()
	case token.LBRACE:
		return p.parseObjectLit()
	case token.KEYWORD:
		switch t.Lit {
		case "function":
			return p.parseFunctionLit(false)
		case "this":
			p.next()
			return &ast.ThisExpr{Base: at(t)}
		case "true", "false":
			p.next()
			return &ast.Literal{Base: at(t), Kind: ast.LitBool, Value: t.Lit}
		case "null":
			p.next()
			return &ast.Literal{Base: at(t), Kind: ast.LitNull, Value: "null"}
		case "undefined":
			p.next()
			return &ast.Literal{Base: at(t), Kind: ast.LitUndefined, Value: "undefined"}
		case "new":
			return p.parseNew()
		case "class":
			// Class expression: parse and reference by name (or dummy).
			cd := p.parseClass().(*ast.ClassDecl)
			name := cd.Name
			if name == "" {
				name = "anonymousClass"
			}
			return &ast.Ident{Base: at(t), Name: name}
		case "super":
			p.next()
			return &ast.Ident{Base: at(t), Name: "super"}
		case "import":
			// Dynamic import(...) — treat the callee as an identifier.
			p.next()
			return &ast.Ident{Base: at(t), Name: "import"}
		}
	}
	p.errorf(t.Pos, "unexpected token %s", t)
	return &ast.Literal{Base: at(t), Kind: ast.LitUndefined, Value: "undefined"}
}

func (p *parser) parseArrayLit() ast.Expr {
	lb := p.expect(token.LBRACKET)
	arr := &ast.ArrayLit{Base: at(lb)}
	for !p.at(token.RBRACKET) && !p.at(token.EOF) && p.err == nil {
		if p.at(token.COMMA) { // elision
			p.next()
			arr.Elems = append(arr.Elems, nil)
			continue
		}
		if p.at(token.ELLIPSIS) {
			t := p.next()
			arr.Elems = append(arr.Elems, &ast.SpreadExpr{Base: at(t), X: p.parseAssign()})
		} else {
			arr.Elems = append(arr.Elems, p.parseAssign())
		}
		if p.at(token.COMMA) {
			p.next()
		}
	}
	p.expect(token.RBRACKET)
	return arr
}

func (p *parser) parseObjectLit() ast.Expr {
	lb := p.expect(token.LBRACE)
	obj := &ast.ObjectLit{Base: at(lb)}
	for !p.at(token.RBRACE) && !p.at(token.EOF) && p.err == nil {
		var prop ast.Property
		switch {
		case p.at(token.ELLIPSIS):
			p.next()
			prop.Spread = true
			prop.Value = p.parseAssign()
		case p.at(token.LBRACKET): // computed key
			p.next()
			prop.Key = p.parseAssign()
			prop.Computed = true
			p.expect(token.RBRACKET)
			if p.at(token.LPAREN) { // computed method
				prop.Value = p.parseMethodValue("")
			} else {
				p.expect(token.COLON)
				prop.Value = p.parseAssign()
			}
		default:
			// get/set accessors.
			if (p.atIdent("get") || p.atIdent("set")) &&
				p.peekTok(1).Kind != token.COLON && p.peekTok(1).Kind != token.COMMA &&
				p.peekTok(1).Kind != token.RBRACE && p.peekTok(1).Kind != token.LPAREN {
				p.next() // accessor kind is irrelevant to the analysis
			}
			keyTok := p.cur()
			switch keyTok.Kind {
			case token.IDENT, token.KEYWORD:
				p.next()
				prop.Key = &ast.Ident{Base: at(keyTok), Name: keyTok.Lit}
			case token.STRING:
				p.next()
				prop.Key = &ast.Literal{Base: at(keyTok), Kind: ast.LitString, Value: keyTok.Lit}
			case token.NUMBER:
				p.next()
				prop.Key = &ast.Literal{Base: at(keyTok), Kind: ast.LitNumber, Value: keyTok.Lit}
			default:
				p.errorf(keyTok.Pos, "expected property key, found %s", keyTok)
				return obj
			}
			switch {
			case p.at(token.COLON):
				p.next()
				prop.Value = p.parseAssign()
			case p.at(token.LPAREN): // shorthand method
				prop.Value = p.parseMethodValue(keyName(prop.Key))
			default: // shorthand property {a}
				prop.Value = &ast.Ident{Base: at(keyTok), Name: keyTok.Lit}
			}
		}
		obj.Props = append(obj.Props, prop)
		if p.at(token.COMMA) {
			p.next()
		} else {
			break
		}
	}
	p.expect(token.RBRACE)
	return obj
}

func keyName(e ast.Expr) string {
	switch k := e.(type) {
	case *ast.Ident:
		return k.Name
	case *ast.Literal:
		return k.Value
	}
	return ""
}

func (p *parser) parseMethodValue(name string) ast.Expr {
	fn := &ast.FunctionLit{Base: ast.Base{P: p.cur().Pos}, Name: name}
	fn.Params = p.parseParams()
	fn.Body = p.parseBlock()
	return fn
}

// parseFunctionLit parses `function name(params) { body }`.
func (p *parser) parseFunctionLit(requireName bool) *ast.FunctionLit {
	kw := p.expectKeyword("function")
	if p.at(token.STAR) { // generator
		p.next()
	}
	fn := &ast.FunctionLit{Base: at(kw)}
	if p.at(token.IDENT) {
		fn.Name = p.next().Lit
	} else if requireName {
		p.errorf(p.cur().Pos, "expected function name")
	}
	fn.Params = p.parseParams()
	fn.Body = p.parseBlock()
	return fn
}

func (p *parser) parseParams() []ast.Param {
	p.expect(token.LPAREN)
	return p.parseParamListTail()
}

// parseParamListTail parses parameters up to and including ')'; the '('
// has already been consumed.
func (p *parser) parseParamListTail() []ast.Param {
	var params []ast.Param
	for !p.at(token.RPAREN) && !p.at(token.EOF) && p.err == nil {
		var prm ast.Param
		if p.at(token.ELLIPSIS) {
			p.next()
			prm.Rest = true
		}
		switch {
		case p.at(token.IDENT):
			prm.Name = p.next().Lit
		case p.at(token.LBRACE), p.at(token.LBRACKET):
			// Destructuring parameter: bind a synthetic name; the
			// normalizer expands the pattern from it.
			pat := p.parsePrimary()
			prm.Name = "@patparam"
			prm.Default = pat // reuse Default to carry the pattern
		default:
			p.errorf(p.cur().Pos, "expected parameter, found %s", p.cur())
			return params
		}
		if p.at(token.ASSIGN) {
			p.next()
			def := p.parseAssign()
			if prm.Default == nil {
				prm.Default = def
			}
		}
		params = append(params, prm)
		if p.at(token.COMMA) {
			p.next()
		}
	}
	p.expect(token.RPAREN)
	return params
}

// buildTemplate re-scans a TEMPLATE token's raw text into a
// TemplateLiteral with quasis and embedded expressions.
func (p *parser) buildTemplate(t token.Token) ast.Expr {
	raw := t.Lit // contents between the backticks
	tpl := &ast.TemplateLiteral{Base: at(t)}
	var quasi strings.Builder
	i := 0
	for i < len(raw) {
		if raw[i] == '\\' && i+1 < len(raw) {
			quasi.WriteByte(raw[i])
			quasi.WriteByte(raw[i+1])
			i += 2
			continue
		}
		if raw[i] == '$' && i+1 < len(raw) && raw[i+1] == '{' {
			// Find matching close brace.
			depth := 1
			j := i + 2
			for j < len(raw) && depth > 0 {
				switch raw[j] {
				case '{':
					depth++
				case '}':
					depth--
				}
				j++
			}
			exprSrc := raw[i+2 : j-1]
			tpl.Quasis = append(tpl.Quasis, quasi.String())
			quasi.Reset()
			sub, err := parseSubExpr(exprSrc)
			if err != nil {
				p.errorf(t.Pos, "in template substitution: %v", err)
				return tpl
			}
			tpl.Exprs = append(tpl.Exprs, sub)
			i = j
			continue
		}
		quasi.WriteByte(raw[i])
		i++
	}
	tpl.Quasis = append(tpl.Quasis, quasi.String())
	return tpl
}

func parseSubExpr(src string) (ast.Expr, error) {
	buf, toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	sp := &parser{toks: toks}
	e := sp.parseExpr()
	releaseTokens(buf, toks)
	if sp.err != nil {
		return nil, sp.err
	}
	return e, nil
}
