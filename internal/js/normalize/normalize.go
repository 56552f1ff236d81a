// Package normalize lowers the JavaScript AST into the Core JavaScript
// IR of the paper (§3.2). Compound expressions are flattened into
// sequences of simple statements over compiler temporaries, control
// flow is reduced to if/while/for-in, and every value-producing
// statement receives a unique index used as its abstract allocation
// site.
package normalize

import (
	"fmt"
	"strconv"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/js/ast"
	"repro/internal/js/parser"
)

// Normalize lowers a parsed program to Core JavaScript.
func Normalize(prog *ast.Program, fileName string) *core.Program {
	return NormalizeBudget(prog, fileName, nil)
}

// NormalizeBudget is Normalize under a fault-containment budget: one
// step per statement lowered. The normalizer has no error returns, so
// a budget trip aborts by panicking with the budget's classified
// error; budget.Guard (which wraps the scanner's front-end phase)
// converts exactly this panic back into that error instead of
// recording a crash.
func NormalizeBudget(prog *ast.Program, fileName string, b *budget.Budget) *core.Program {
	n := &normalizer{bud: b}
	var body []core.Stmt
	//lint:allow budgetloop -- n.stmt consults the budget per statement
	for _, s := range prog.Body {
		n.stmt(s, &body)
	}
	return &core.Program{FileName: fileName, Body: body, MaxIndex: n.idx + 1}
}

// File parses and normalizes src in one step.
func File(src, fileName string) (*core.Program, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return Normalize(prog, fileName), nil
}

type normalizer struct {
	idx   int // statement index counter
	tmp   int // temporary counter
	anon  int // anonymous function counter
	names map[string]int
	bud   *budget.Budget
}

func (n *normalizer) nextIdx() int {
	n.idx++
	return n.idx
}

func (n *normalizer) fresh() string {
	n.tmp++
	return "$t" + strconv.Itoa(n.tmp)
}

func (n *normalizer) freshFn(hint string) string {
	if hint == "" {
		n.anon++
		return "__anon" + strconv.Itoa(n.anon)
	}
	if n.names == nil {
		n.names = make(map[string]int)
	}
	n.names[hint]++
	if c := n.names[hint]; c > 1 {
		return hint + "$" + strconv.Itoa(c)
	}
	return hint
}

func (n *normalizer) meta(node ast.Node) core.Meta {
	p := node.Pos()
	return core.Meta{Idx: n.nextIdx(), Ln: p.Line, Col: p.Column}
}

// metaNoIdx is for statements that compute no new value.
func (n *normalizer) metaNoIdx(node ast.Node) core.Meta {
	p := node.Pos()
	return core.Meta{Ln: p.Line, Col: p.Column}
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (n *normalizer) stmt(s ast.Stmt, out *[]core.Stmt) {
	if err := n.bud.Step(); err != nil {
		panic(err) //lint:allow nakedpanic -- unwound by budget.Guard, classification intact
	}
	switch st := s.(type) {
	case *ast.VarDecl:
		for _, d := range st.Decls {
			n.declarator(st, d, out)
		}
	case *ast.ExprStmt:
		n.expr(st.X, out)
	case *ast.BlockStmt:
		for _, inner := range st.Body {
			n.stmt(inner, out)
		}
	case *ast.EmptyStmt:
	case *ast.IfStmt:
		cond := n.expr(st.Cond, out)
		iff := &core.If{Meta: n.metaNoIdx(st), Cond: cond}
		n.stmt(st.Then, &iff.Then)
		if st.Else != nil {
			n.stmt(st.Else, &iff.Else)
		}
		*out = append(*out, iff)
	case *ast.WhileStmt:
		n.whileLoop(st, st.Cond, nil, st.Body, out)
	case *ast.DoWhileStmt:
		// Body runs at least once, then behaves like while.
		n.stmt(st.Body, out)
		n.whileLoop(st, st.Cond, nil, st.Body, out)
	case *ast.ForStmt:
		if st.Init != nil {
			n.stmt(st.Init, out)
		}
		cond := st.Cond
		if cond == nil {
			cond = &ast.Literal{Base: ast.Base{P: st.Pos()}, Kind: ast.LitBool, Value: "true"}
		}
		n.whileLoop(st, cond, st.Post, st.Body, out)
	case *ast.ForInStmt:
		n.forIn(st, out)
	case *ast.ReturnStmt:
		r := &core.Return{Meta: n.metaNoIdx(st)}
		if st.X != nil {
			r.E = n.expr(st.X, out)
		}
		*out = append(*out, r)
	case *ast.BreakStmt:
		*out = append(*out, &core.Break{Meta: n.metaNoIdx(st)})
	case *ast.ContinueStmt:
		*out = append(*out, &core.Continue{Meta: n.metaNoIdx(st)})
	case *ast.FuncDecl:
		name := st.Fn.Name
		fd := n.funcDef(st.Fn, name)
		*out = append(*out, fd)
		if fd.Name != name {
			// Shadowed duplicate: rebind the original name.
			*out = append(*out, &core.Assign{Meta: n.metaNoIdx(st), X: name, E: core.Var{Name: fd.Name}})
		}
	case *ast.ThrowStmt:
		n.expr(st.X, out) // evaluate for its dependencies
	case *ast.TryStmt:
		// Over-approximate: all three blocks execute in sequence.
		for _, inner := range st.Block.Body {
			n.stmt(inner, out)
		}
		if st.CatchBlock != nil {
			if st.CatchParam != "" {
				*out = append(*out, &core.NewObj{Meta: n.meta(st), X: st.CatchParam})
			}
			for _, inner := range st.CatchBlock.Body {
				n.stmt(inner, out)
			}
		}
		if st.FinallyBody != nil {
			for _, inner := range st.FinallyBody.Body {
				n.stmt(inner, out)
			}
		}
	case *ast.SwitchStmt:
		// Desugar to a nested if/else chain (default last). Trailing
		// `break` statements exit the switch and are dropped;
		// fallthrough between cases is not modelled (the abstract
		// analysis joins all branches regardless).
		disc := n.expr(st.Disc, out)
		var defaultBody []ast.Stmt
		type armT struct {
			cond core.Expr
			body []ast.Stmt
		}
		var arms []armT
		for _, c := range st.Cases {
			if c.Test == nil {
				defaultBody = c.Body
				continue
			}
			condVar := n.fresh()
			test := n.expr(c.Test, out)
			*out = append(*out, &core.BinOp{Meta: n.meta(st), X: condVar, Op: "===", L: disc, R: test})
			arms = append(arms, armT{cond: core.Var{Name: condVar}, body: c.Body})
		}
		emitBody := func(body []ast.Stmt, dst *[]core.Stmt) {
			for _, inner := range body {
				if _, isBreak := inner.(*ast.BreakStmt); isBreak {
					continue // exits the switch
				}
				n.stmt(inner, dst)
			}
		}
		var build func(i int, dst *[]core.Stmt)
		build = func(i int, dst *[]core.Stmt) {
			if i == len(arms) {
				emitBody(defaultBody, dst)
				return
			}
			iff := &core.If{Meta: n.metaNoIdx(st), Cond: arms[i].cond}
			emitBody(arms[i].body, &iff.Then)
			build(i+1, &iff.Else)
			*dst = append(*dst, iff)
		}
		build(0, out)
	case *ast.LabeledStmt:
		n.stmt(st.Body, out)
	case *ast.ClassDecl:
		n.classDecl(st, out)
	default:
		// Unknown statements are skipped; the analysis stays sound for
		// the constructs it models.
	}
}

// whileLoop lowers a loop with condition cond, optional post expression
// and body into Core's While. Condition-evaluation statements execute
// once before the loop and once at the end of every iteration so the
// fixpoint sees their effects.
func (n *normalizer) whileLoop(at ast.Node, cond ast.Expr, post ast.Expr, body ast.Stmt, out *[]core.Stmt) {
	var pre []core.Stmt
	cv := n.expr(cond, &pre)
	*out = append(*out, pre...)
	w := &core.While{Meta: n.metaNoIdx(at), Cond: cv}
	n.stmt(body, &w.Body)
	if post != nil {
		n.expr(post, &w.Body)
	}
	// Re-evaluate the condition at the end of the body, updating the
	// variable the loop tests.
	var again []core.Stmt
	av := n.expr(cond, &again)
	w.Body = append(w.Body, again...)
	if cvVar, ok := cv.(core.Var); ok {
		if avVar, isVar := av.(core.Var); !isVar || avVar.Name != cvVar.Name {
			w.Body = append(w.Body, &core.Assign{Meta: n.metaNoIdx(at), X: cvVar.Name, E: av})
		}
	}
	*out = append(*out, w)
}

func (n *normalizer) forIn(st *ast.ForInStmt, out *[]core.Stmt) {
	obj := n.expr(st.Right, out)
	key := ""
	switch l := st.Left.(type) {
	case *ast.Ident:
		key = l.Name
	default:
		key = n.fresh()
	}
	f := &core.ForIn{Meta: n.meta(st), Key: key, Obj: obj, Of: st.Of}
	// Destructuring loop variable: expand from the synthetic key.
	if pat, ok := st.Left.(*ast.ObjectLit); ok {
		n.objectPattern(pat, core.Var{Name: key}, &f.Body)
	}
	if pat, ok := st.Left.(*ast.ArrayLit); ok {
		n.arrayPattern(pat, core.Var{Name: key}, &f.Body)
	}
	n.stmt(st.Body, &f.Body)
	*out = append(*out, f)
}

func (n *normalizer) declarator(vd *ast.VarDecl, d ast.Declarator, out *[]core.Stmt) {
	switch {
	case d.Name != "":
		if d.Init != nil {
			n.assignTo(d.Name, d.Init, vd, out)
		} else {
			*out = append(*out, &core.Assign{
				Meta: n.metaNoIdx(vd), X: d.Name,
				E: core.Lit{Kind: core.LitUndefined, Value: "undefined"},
			})
		}
	case d.Pattern != nil && d.Init != nil:
		src := n.expr(d.Init, out)
		if pat, ok := d.Pattern.(*ast.ObjectLit); ok {
			n.objectPattern(pat, src, out)
		}
		if pat, ok := d.Pattern.(*ast.ArrayLit); ok {
			n.arrayPattern(pat, src, out)
		}
	}
}

// objectPattern expands `{a, b: c, ...}` reading from src.
func (n *normalizer) objectPattern(pat *ast.ObjectLit, src core.Expr, out *[]core.Stmt) {
	for _, p := range pat.Props {
		if p.Spread {
			// {...rest}: rest depends on src.
			if id, ok := p.Value.(*ast.Ident); ok {
				*out = append(*out, &core.Assign{Meta: n.metaNoIdx(pat), X: id.Name, E: src})
			}
			continue
		}
		keyName := ""
		switch k := p.Key.(type) {
		case *ast.Ident:
			keyName = k.Name
		case *ast.Literal:
			keyName = k.Value
		}
		switch v := p.Value.(type) {
		case *ast.Ident:
			*out = append(*out, &core.Lookup{Meta: n.meta(pat), X: v.Name, Obj: src, Prop: keyName})
		case *ast.ObjectLit: // nested pattern
			tmp := n.fresh()
			*out = append(*out, &core.Lookup{Meta: n.meta(pat), X: tmp, Obj: src, Prop: keyName})
			n.objectPattern(v, core.Var{Name: tmp}, out)
		case *ast.ArrayLit:
			tmp := n.fresh()
			*out = append(*out, &core.Lookup{Meta: n.meta(pat), X: tmp, Obj: src, Prop: keyName})
			n.arrayPattern(v, core.Var{Name: tmp}, out)
		case *ast.AssignExpr: // default value: {a = 1}
			if id, ok := v.Target.(*ast.Ident); ok {
				*out = append(*out, &core.Lookup{Meta: n.meta(pat), X: id.Name, Obj: src, Prop: keyName})
			}
		}
	}
}

// arrayPattern expands `[x, y, ...rest]` reading from src.
func (n *normalizer) arrayPattern(pat *ast.ArrayLit, src core.Expr, out *[]core.Stmt) {
	for i, el := range pat.Elems {
		if el == nil {
			continue
		}
		prop := fmt.Sprintf("%d", i)
		switch v := el.(type) {
		case *ast.Ident:
			*out = append(*out, &core.Lookup{Meta: n.meta(pat), X: v.Name, Obj: src, Prop: prop})
		case *ast.SpreadExpr:
			if id, ok := v.X.(*ast.Ident); ok {
				*out = append(*out, &core.Assign{Meta: n.metaNoIdx(pat), X: id.Name, E: src})
			}
		case *ast.ObjectLit:
			tmp := n.fresh()
			*out = append(*out, &core.Lookup{Meta: n.meta(pat), X: tmp, Obj: src, Prop: prop})
			n.objectPattern(v, core.Var{Name: tmp}, out)
		case *ast.ArrayLit:
			tmp := n.fresh()
			*out = append(*out, &core.Lookup{Meta: n.meta(pat), X: tmp, Obj: src, Prop: prop})
			n.arrayPattern(v, core.Var{Name: tmp}, out)
		}
	}
}

func (n *normalizer) classDecl(st *ast.ClassDecl, out *[]core.Stmt) {
	// class C { constructor(...) {...} m() {...} }  lowers to:
	//   func C(...) { ctor body }          (constructor under class name)
	//   C.prototype := {}
	//   C.prototype.m := <func>
	var ctor *ast.FunctionLit
	for _, m := range st.Methods {
		if m.Kind == "constructor" {
			ctor = m.Fn
		}
	}
	if ctor == nil {
		ctor = &ast.FunctionLit{Base: ast.Base{P: st.Pos()}, Name: st.Name,
			Body: &ast.BlockStmt{Base: ast.Base{P: st.Pos()}}}
	}
	fd := n.funcDef(ctor, st.Name)
	*out = append(*out, fd)
	protoTmp := n.fresh()
	*out = append(*out, &core.NewObj{Meta: n.meta(st), X: protoTmp})
	*out = append(*out, &core.Update{Meta: n.meta(st), Obj: core.Var{Name: fd.Name},
		Prop: "prototype", Val: core.Var{Name: protoTmp}})
	for _, m := range st.Methods {
		if m.Kind == "constructor" || m.Fn == nil {
			continue
		}
		mfd := n.funcDef(m.Fn, fd.Name+"$"+m.Name)
		*out = append(*out, mfd)
		target := core.Var{Name: protoTmp}
		if m.Static {
			target = core.Var{Name: fd.Name}
		}
		*out = append(*out, &core.Update{Meta: n.meta(st), Obj: target,
			Prop: m.Name, Val: core.Var{Name: mfd.Name}})
	}
}

// funcDef lowers a function literal to a FuncDef with a unique name,
// expanding parameter patterns and defaults.
func (n *normalizer) funcDef(fn *ast.FunctionLit, nameHint string) *core.FuncDef {
	name := n.freshFn(nameHint)
	fd := &core.FuncDef{Meta: n.meta(fn), Name: name}
	for i, p := range fn.Params {
		pname := p.Name
		if pname == "@patparam" {
			pname = fmt.Sprintf("$p%d", i)
		}
		fd.Params = append(fd.Params, pname)
		// Parameter pattern: expand inside the body.
		if pat, ok := p.Default.(*ast.ObjectLit); ok && p.Name == "@patparam" {
			n.objectPattern(pat, core.Var{Name: pname}, &fd.Body)
		} else if pat, ok := p.Default.(*ast.ArrayLit); ok && p.Name == "@patparam" {
			n.arrayPattern(pat, core.Var{Name: pname}, &fd.Body)
		}
	}
	if fn.Body != nil {
		for _, s := range fn.Body.Body {
			n.stmt(s, &fd.Body)
		}
	} else if fn.ExprBody != nil {
		var body []core.Stmt
		v := n.expr(fn.ExprBody, &body)
		body = append(body, &core.Return{Meta: n.metaNoIdx(fn), E: v})
		fd.Body = append(fd.Body, body...)
	}
	return fd
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// expr lowers e, emitting statements into out, and returns the Core
// expression (a variable or literal) holding e's value.
func (n *normalizer) expr(e ast.Expr, out *[]core.Stmt) core.Expr {
	switch x := e.(type) {
	case *ast.Ident:
		return core.Var{Name: x.Name}
	case *ast.Literal:
		return core.Lit{Kind: litKind(x.Kind), Value: x.Value}
	case *ast.ThisExpr:
		return core.Var{Name: "this"}
	case *ast.TemplateLiteral:
		return n.template(x, out)
	case *ast.ObjectLit:
		return n.objectLit(x, out)
	case *ast.ArrayLit:
		return n.arrayLit(x, out)
	case *ast.FunctionLit:
		fd := n.funcDef(x, x.Name)
		*out = append(*out, fd)
		return core.Var{Name: fd.Name}
	case *ast.BinaryExpr:
		l := n.expr(x.L, out)
		r := n.expr(x.R, out)
		t := n.fresh()
		*out = append(*out, &core.BinOp{Meta: n.meta(x), X: t, Op: x.Op, L: l, R: r})
		return core.Var{Name: t}
	case *ast.LogicalExpr:
		// Dependencies flow from both operands; short-circuit control
		// flow is over-approximated.
		l := n.expr(x.L, out)
		r := n.expr(x.R, out)
		t := n.fresh()
		*out = append(*out, &core.BinOp{Meta: n.meta(x), X: t, Op: x.Op, L: l, R: r})
		return core.Var{Name: t}
	case *ast.UnaryExpr:
		v := n.expr(x.X, out)
		if x.Op == "delete" || x.Op == "void" {
			return core.Lit{Kind: core.LitUndefined, Value: "undefined"}
		}
		t := n.fresh()
		*out = append(*out, &core.UnOp{Meta: n.meta(x), X: t, Op: x.Op, E: v})
		return core.Var{Name: t}
	case *ast.UpdateExpr:
		return n.update(x, out)
	case *ast.AssignExpr:
		return n.assignExpr(x, out)
	case *ast.CondExpr:
		cond := n.expr(x.Cond, out)
		t := n.fresh()
		*out = append(*out, &core.Assign{Meta: n.metaNoIdx(x), X: t,
			E: core.Lit{Kind: core.LitUndefined, Value: "undefined"}})
		iff := &core.If{Meta: n.metaNoIdx(x), Cond: cond}
		tv := n.expr(x.Then, &iff.Then)
		iff.Then = append(iff.Then, &core.Assign{Meta: n.metaNoIdx(x), X: t, E: tv})
		ev := n.expr(x.Else, &iff.Else)
		iff.Else = append(iff.Else, &core.Assign{Meta: n.metaNoIdx(x), X: t, E: ev})
		*out = append(*out, iff)
		return core.Var{Name: t}
	case *ast.CallExpr:
		return n.call(x, out)
	case *ast.NewExpr:
		return n.newExpr(x, out)
	case *ast.MemberExpr:
		return n.memberRead(x, out)
	case *ast.SeqExpr:
		var last core.Expr = core.Lit{Kind: core.LitUndefined, Value: "undefined"}
		for _, sub := range x.Exprs {
			last = n.expr(sub, out)
		}
		return last
	case *ast.SpreadExpr:
		return n.expr(x.X, out)
	}
	return core.Lit{Kind: core.LitUndefined, Value: "undefined"}
}

func litKind(k ast.LiteralKind) core.LitKind {
	switch k {
	case ast.LitNumber:
		return core.LitNumber
	case ast.LitString:
		return core.LitString
	case ast.LitBool:
		return core.LitBool
	case ast.LitNull:
		return core.LitNull
	case ast.LitRegex:
		return core.LitRegex
	default:
		return core.LitUndefined
	}
}

func (n *normalizer) template(x *ast.TemplateLiteral, out *[]core.Stmt) core.Expr {
	var acc core.Expr = core.Lit{Kind: core.LitString, Value: x.Quasis[0]}
	for i, sub := range x.Exprs {
		v := n.expr(sub, out)
		t := n.fresh()
		*out = append(*out, &core.BinOp{Meta: n.meta(x), X: t, Op: "+", L: acc, R: v})
		acc = core.Var{Name: t}
		if q := x.Quasis[i+1]; q != "" {
			t2 := n.fresh()
			*out = append(*out, &core.BinOp{Meta: n.meta(x), X: t2, Op: "+", L: acc,
				R: core.Lit{Kind: core.LitString, Value: q}})
			acc = core.Var{Name: t2}
		}
	}
	return acc
}

func (n *normalizer) objectLit(x *ast.ObjectLit, out *[]core.Stmt) core.Expr {
	t := n.fresh()
	*out = append(*out, &core.NewObj{Meta: n.meta(x), X: t})
	for _, p := range x.Props {
		if p.Spread {
			src := n.expr(p.Value, out)
			*out = append(*out, &core.DynUpdate{Meta: n.meta(x),
				Obj: core.Var{Name: t}, Prop: src, Val: src})
			continue
		}
		val := n.expr(p.Value, out)
		if p.Computed {
			key := n.expr(p.Key, out)
			*out = append(*out, &core.DynUpdate{Meta: n.meta(x),
				Obj: core.Var{Name: t}, Prop: key, Val: val})
			continue
		}
		name := ""
		switch k := p.Key.(type) {
		case *ast.Ident:
			name = k.Name
		case *ast.Literal:
			name = k.Value
		}
		*out = append(*out, &core.Update{Meta: n.meta(x),
			Obj: core.Var{Name: t}, Prop: name, Val: val})
	}
	return core.Var{Name: t}
}

func (n *normalizer) arrayLit(x *ast.ArrayLit, out *[]core.Stmt) core.Expr {
	t := n.fresh()
	*out = append(*out, &core.NewObj{Meta: n.meta(x), X: t})
	for i, el := range x.Elems {
		if el == nil {
			continue
		}
		if sp, ok := el.(*ast.SpreadExpr); ok {
			src := n.expr(sp.X, out)
			*out = append(*out, &core.DynUpdate{Meta: n.meta(x),
				Obj: core.Var{Name: t}, Prop: src, Val: src})
			continue
		}
		val := n.expr(el, out)
		*out = append(*out, &core.Update{Meta: n.meta(x),
			Obj: core.Var{Name: t}, Prop: fmt.Sprintf("%d", i), Val: val})
	}
	return core.Var{Name: t}
}

func (n *normalizer) update(x *ast.UpdateExpr, out *[]core.Stmt) core.Expr {
	op := "+"
	if x.Op == "--" {
		op = "-"
	}
	one := core.Lit{Kind: core.LitNumber, Value: "1"}
	switch tgt := x.X.(type) {
	case *ast.Ident:
		old := core.Var{Name: tgt.Name}
		t := n.fresh()
		*out = append(*out, &core.BinOp{Meta: n.meta(x), X: t, Op: op, L: old, R: one})
		*out = append(*out, &core.Assign{Meta: n.metaNoIdx(x), X: tgt.Name, E: core.Var{Name: t}})
		if x.Prefix {
			return core.Var{Name: tgt.Name}
		}
		return old
	case *ast.MemberExpr:
		cur := n.memberRead(tgt, out)
		t := n.fresh()
		*out = append(*out, &core.BinOp{Meta: n.meta(x), X: t, Op: op, L: cur, R: one})
		n.memberWrite(tgt, core.Var{Name: t}, out)
		return core.Var{Name: t}
	}
	return core.Lit{Kind: core.LitUndefined, Value: "undefined"}
}

// assignTo lowers `name = init`, short-circuiting the extra temp for
// simple initializers.
func (n *normalizer) assignTo(name string, init ast.Expr, at ast.Node, out *[]core.Stmt) {
	switch v := init.(type) {
	case *ast.FunctionLit:
		hint := v.Name
		if hint == "" {
			hint = name
		}
		fd := n.funcDef(v, hint)
		*out = append(*out, fd)
		if fd.Name != name {
			*out = append(*out, &core.Assign{Meta: n.metaNoIdx(at), X: name, E: core.Var{Name: fd.Name}})
		}
		return
	}
	val := n.expr(init, out)
	*out = append(*out, &core.Assign{Meta: n.metaNoIdx(at), X: name, E: val})
}

func (n *normalizer) assignExpr(x *ast.AssignExpr, out *[]core.Stmt) core.Expr {
	// Compound assignment: read-modify-write.
	mkValue := func(read func() core.Expr) core.Expr {
		if x.Op == "" {
			return n.expr(x.Value, out)
		}
		cur := read()
		rhs := n.expr(x.Value, out)
		t := n.fresh()
		*out = append(*out, &core.BinOp{Meta: n.meta(x), X: t, Op: x.Op, L: cur, R: rhs})
		return core.Var{Name: t}
	}
	switch tgt := x.Target.(type) {
	case *ast.Ident:
		if x.Op == "" {
			n.assignTo(tgt.Name, x.Value, x, out)
			return core.Var{Name: tgt.Name}
		}
		val := mkValue(func() core.Expr { return core.Var{Name: tgt.Name} })
		*out = append(*out, &core.Assign{Meta: n.metaNoIdx(x), X: tgt.Name, E: val})
		return core.Var{Name: tgt.Name}
	case *ast.MemberExpr:
		val := mkValue(func() core.Expr { return n.memberRead(tgt, out) })
		n.memberWrite(tgt, val, out)
		return val
	case *ast.ObjectLit: // destructuring assignment
		src := n.expr(x.Value, out)
		n.objectPattern(tgt, src, out)
		return src
	case *ast.ArrayLit:
		src := n.expr(x.Value, out)
		n.arrayPattern(tgt, src, out)
		return src
	}
	return core.Lit{Kind: core.LitUndefined, Value: "undefined"}
}

func (n *normalizer) memberRead(x *ast.MemberExpr, out *[]core.Stmt) core.Expr {
	obj := n.expr(x.Obj, out)
	t := n.fresh()
	if x.Computed {
		if lit, ok := x.Prop.(*ast.Literal); ok && lit.Kind == ast.LitString {
			// Constant string index behaves like a static lookup.
			*out = append(*out, &core.Lookup{Meta: n.meta(x), X: t, Obj: obj, Prop: lit.Value})
			return core.Var{Name: t}
		}
		prop := n.expr(x.Prop, out)
		*out = append(*out, &core.DynLookup{Meta: n.meta(x), X: t, Obj: obj, Prop: prop})
		return core.Var{Name: t}
	}
	name := ""
	if id, ok := x.Prop.(*ast.Ident); ok {
		name = id.Name
	}
	*out = append(*out, &core.Lookup{Meta: n.meta(x), X: t, Obj: obj, Prop: name})
	return core.Var{Name: t}
}

func (n *normalizer) memberWrite(x *ast.MemberExpr, val core.Expr, out *[]core.Stmt) {
	obj := n.expr(x.Obj, out)
	if x.Computed {
		if lit, ok := x.Prop.(*ast.Literal); ok && lit.Kind == ast.LitString {
			*out = append(*out, &core.Update{Meta: n.meta(x), Obj: obj, Prop: lit.Value, Val: val})
			return
		}
		prop := n.expr(x.Prop, out)
		*out = append(*out, &core.DynUpdate{Meta: n.meta(x), Obj: obj, Prop: prop, Val: val})
		return
	}
	name := ""
	if id, ok := x.Prop.(*ast.Ident); ok {
		name = id.Name
	}
	*out = append(*out, &core.Update{Meta: n.meta(x), Obj: obj, Prop: name, Val: val})
}

// calleePath renders the source-level callee path for sink matching,
// e.g. `child_process.exec` or `fs.readFile`.
func calleePath(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.MemberExpr:
		if id, ok := x.Prop.(*ast.Ident); ok {
			base := calleePath(x.Obj)
			if base == "" {
				return id.Name
			}
			return base + "." + id.Name
		}
		return calleePath(x.Obj) + ".*"
	case *ast.ThisExpr:
		return "this"
	case *ast.CallExpr:
		return calleePath(x.Callee) + "()"
	}
	return ""
}

func (n *normalizer) call(x *ast.CallExpr, out *[]core.Stmt) core.Expr {
	name := calleePath(x.Callee)
	var callee core.Expr
	var thisV core.Expr
	if mem, ok := x.Callee.(*ast.MemberExpr); ok {
		thisV = n.expr(mem.Obj, out)
		t := n.fresh()
		if mem.Computed {
			if lit, ok := mem.Prop.(*ast.Literal); ok && lit.Kind == ast.LitString {
				*out = append(*out, &core.Lookup{Meta: n.meta(x), X: t, Obj: thisV, Prop: lit.Value})
			} else {
				prop := n.expr(mem.Prop, out)
				*out = append(*out, &core.DynLookup{Meta: n.meta(x), X: t, Obj: thisV, Prop: prop})
			}
		} else {
			pn := ""
			if id, ok := mem.Prop.(*ast.Ident); ok {
				pn = id.Name
			}
			*out = append(*out, &core.Lookup{Meta: n.meta(x), X: t, Obj: thisV, Prop: pn})
		}
		callee = core.Var{Name: t}
	} else {
		callee = n.expr(x.Callee, out)
	}
	var args []core.Expr
	for _, a := range x.Args {
		args = append(args, n.expr(a, out))
	}
	t := n.fresh()
	*out = append(*out, &core.Call{Meta: n.meta(x), X: t, Callee: callee,
		CalleeName: name, This: thisV, Args: args})
	return core.Var{Name: t}
}

func (n *normalizer) newExpr(x *ast.NewExpr, out *[]core.Stmt) core.Expr {
	name := calleePath(x.Callee)
	callee := n.expr(x.Callee, out)
	var args []core.Expr
	for _, a := range x.Args {
		args = append(args, n.expr(a, out))
	}
	t := n.fresh()
	*out = append(*out, &core.Call{Meta: n.meta(x), X: t, Callee: callee,
		CalleeName: name, Args: args, IsNew: true})
	return core.Var{Name: t}
}
