package analysis

import (
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/mdg"
)

// Lowering: before interpreting a package, every module's top level and
// every function body is translated once into ops over lexically
// addressed variables. The abstract store is a chain of frames — the
// global frame, the module frame, then one frame per enclosing
// function — and a variable occurrence resolves to the frames whose
// slot table holds its name, innermost first. A function frame's slots
// are its parameters, `this`, `arguments` and every name assigned in
// its own body; a module frame's are `module`, `exports` and the names
// assigned at top level. No other name can ever be bound in those
// frames (an assignment binds in the innermost frame that already
// binds the name, else in the current one), so trying the candidate
// frames in order and taking the first whose slot is bound is exactly
// the dynamic "innermost scope that binds x" rule. The global frame
// holds lazily created globals, keyed by an analysis-wide name id.
//
// Lowering also computes, once per analysis, every allocation key and
// label an op needs (literal keys, parameter keys, `arguments`
// property names, call labels, qualified function names) and
// classifies built-in callees, so the interpreter formats no strings.

// addr is a frame level (0 global, 1 module, 2+ functions) and a slot.
type addr struct{ level, slot int32 }

// varRef is one variable of one scope: its name, its analysis-wide id
// (the global frame's key) and the frames that may bind it.
type varRef struct {
	name  string
	id    int32
	cands []addr
}

// litRef is a literal's allocation key and node label, and the
// location allocated for it (once allocated).
type litRef struct {
	key, label string
	loc        mdg.Loc
}

// operand is a lowered Core expression: a variable or a literal (both
// nil for an absent expression).
type operand struct {
	v   *varRef
	lit *litRef
}

type opKind uint8

const (
	opAssign opKind = iota
	opBinOp
	opUnOp
	opNewObj
	opLookup
	opDynLookup
	opUpdate
	opDynUpdate
	opIf
	opWhile
	opForIn
	opCall
	opFuncDef
	opReturn
	opNop // break, continue
)

// op is one lowered statement.
type op struct {
	kind    opKind
	of      bool // ForIn: for-of
	idx, ln int
	x       *varRef // assigned variable
	a, b, c operand // operands, in Core order
	prop    string  // static property / for-in key name
	then    []op    // If then-branch; loop body
	els     []op    // If else-branch
	call    *callOp
	fn      *funcOp
	loc     mdg.Loc // the node the op allocates (once allocated)
}

// builtinKind selects a built-in model (builtins.go).
type builtinKind uint8

const (
	_ builtinKind = iota // not a built-in
	builtinObjectAssign
	builtinJSONParse
	builtinObjectKeys
	builtinArrayPush
	builtinConcat
)

// callOp is a lowered call.
type callOp struct {
	name    string // source-level callee path
	label   string // call node label
	callee  operand
	this    operand
	args    []operand
	isNew   bool
	builtin builtinKind
	// require('spec') with one literal argument: spec, and the sibling
	// module file it resolves to (when reqOK).
	isRequire bool
	reqOK     bool
	reqSpec   string
	reqFile   string
	// objLoc is the built-in model's result object or the external
	// module object (once allocated).
	objLoc mdg.Loc
}

// funcOp is a lowered function definition.
type funcOp struct {
	def       *core.FuncDef
	qname     string
	qid       int32
	name      *varRef // the function's binding in the enclosing scope
	nslots    int
	params    []int32  // slot of each parameter
	paramKeys []string // allocation key of each parameter object
	argProps  []string // "0", "1", ...: `arguments` property names
	thisSlot  int32
	argsSlot  int32
	retLabel  string
	body      []op
	// sum and argsLoc are filled in by the first evaluation.
	sum     *FuncSummary
	argsLoc mdg.Loc
}

// moduleOp is one lowered module.
type moduleOp struct {
	prog        *core.Program
	names       []string // slot → name of the module frame
	moduleSlot  int32
	exportsSlot int32
	body        []op
}

// lscope is a scope being lowered: its frame level, and where its
// declarations and replaced memo entries start on the lowerer's
// stacks.
type lscope struct {
	level, serial int32
	declBase      int
	shadowBase    int
}

// nslots is the number of names sc declared so far (its frame size).
func (lw *lowerer) nslots(sc *lscope) int { return len(lw.decls) - sc.declBase }

// nameInfo is the lowerer's state of one name id.
type nameInfo struct {
	name string
	// head indexes the innermost open declaration in decls (-1: none).
	head int32
	// memo is the varRef of the scope with serial memoSc.
	memo   *varRef
	memoSc int32
}

// declEntry is one open declaration: the name, its frame address and
// the enclosing declaration of the same name.
type declEntry struct {
	id   int32
	prev int32
	at   addr
}

type memoEntry struct {
	id, serial int32
	ref        *varRef
}

// lowerer resolves names with a binding stack: each name's open
// declarations form a chain through decls, innermost first, which is
// exactly a reference's candidate frames. Scopes close in LIFO order,
// so decls and shadow are stacks. The lowered program — ops, calls,
// function definitions, references, literals and their small slices —
// is carved from slabs rather than allocated one by one; it is the
// build's scratch, pooled with the analyzer (see scratch.go).
type lowerer struct {
	a      *analyzer
	ids    map[string]int32 // analysis-wide name ids
	infos  []nameInfo       // by id
	decls  []declEntry
	shadow []memoEntry // memo entries replaced by open scopes
	serial int32
	qids   map[string]int32
	file   string

	refs     slab[varRef]
	lits     slab[litRef]
	addrs    []addr
	ops      slab[op]
	calls    slab[callOp]
	funcs    slab[funcOp]
	operands slab[operand]
	slots    slab[int32]
	strs     slab[string]
}

func (lw *lowerer) id(name string) int32 {
	if id, ok := lw.ids[name]; ok {
		return id
	}
	id := int32(len(lw.infos))
	lw.ids[name] = id
	lw.infos = append(lw.infos, nameInfo{name: name, head: -1})
	return id
}

func (lw *lowerer) enter(parent *lscope) lscope {
	lw.serial++
	sc := lscope{level: 1, serial: lw.serial, declBase: len(lw.decls), shadowBase: len(lw.shadow)}
	if parent != nil {
		sc.level = parent.level + 1
	}
	return sc
}

// exit closes sc: its declarations leave the binding stack and the
// memo entries it replaced come back.
func (lw *lowerer) exit(sc *lscope) {
	for i := len(lw.decls) - 1; i >= sc.declBase; i-- {
		lw.infos[lw.decls[i].id].head = lw.decls[i].prev
	}
	lw.decls = lw.decls[:sc.declBase]
	for i := len(lw.shadow) - 1; i >= sc.shadowBase; i-- {
		m := lw.shadow[i]
		lw.infos[m.id].memo, lw.infos[m.id].memoSc = m.ref, m.serial
	}
	lw.shadow = lw.shadow[:sc.shadowBase]
}

// declare gives name a slot in sc (once). A scope declares all its
// names before any nested scope opens.
func (lw *lowerer) declare(sc *lscope, name string) int32 {
	id := lw.id(name)
	ni := &lw.infos[id]
	if ni.head >= 0 && lw.decls[ni.head].at.level == sc.level {
		return lw.decls[ni.head].at.slot
	}
	slot := int32(lw.nslots(sc))
	lw.decls = append(lw.decls, declEntry{id: id, prev: ni.head, at: addr{level: sc.level, slot: slot}})
	ni.head = int32(len(lw.decls) - 1)
	return slot
}

// ref resolves name in sc: the candidate frames, innermost first.
func (lw *lowerer) ref(sc *lscope, name string) *varRef {
	id := lw.id(name)
	ni := &lw.infos[id]
	if ni.memoSc == sc.serial {
		return ni.memo
	}
	if ni.memoSc != 0 {
		lw.shadow = append(lw.shadow, memoEntry{id: id, serial: ni.memoSc, ref: ni.memo})
	}
	r := lw.refs.next()
	r.name, r.id = ni.name, id
	start := len(lw.addrs)
	for d := ni.head; d >= 0; d = lw.decls[d].prev {
		lw.addrs = append(lw.addrs, lw.decls[d].at)
	}
	if len(lw.addrs) > start {
		r.cands = lw.addrs[start:len(lw.addrs):len(lw.addrs)]
	}
	ni.memo, ni.memoSc = r, sc.serial
	return r
}

// declareAssigned declares in sc every name its own statements assign
// (nested function bodies are their own scopes; the function's name
// is assigned here).
func (lw *lowerer) declareAssigned(ss []core.Stmt, sc *lscope) {
	for _, s := range ss {
		switch x := s.(type) {
		case *core.Assign:
			lw.declare(sc, x.X)
		case *core.BinOp:
			lw.declare(sc, x.X)
		case *core.UnOp:
			lw.declare(sc, x.X)
		case *core.NewObj:
			lw.declare(sc, x.X)
		case *core.Lookup:
			lw.declare(sc, x.X)
		case *core.DynLookup:
			lw.declare(sc, x.X)
		case *core.Call:
			lw.declare(sc, x.X)
		case *core.FuncDef:
			lw.declare(sc, x.Name)
		case *core.ForIn:
			lw.declare(sc, x.Key)
			lw.declareAssigned(x.Body, sc)
		case *core.If:
			lw.declareAssigned(x.Then, sc)
			lw.declareAssigned(x.Else, sc)
		case *core.While:
			lw.declareAssigned(x.Body, sc)
		}
	}
}

func (lw *lowerer) module(prog *core.Program) *moduleOp {
	lw.file = prog.FileName
	sc := lw.enter(nil)
	m := &moduleOp{prog: prog, moduleSlot: lw.declare(&sc, "module"), exportsSlot: lw.declare(&sc, "exports")}
	lw.declareAssigned(prog.Body, &sc)
	m.names = make([]string, lw.nslots(&sc))
	for _, d := range lw.decls[sc.declBase:] {
		m.names[d.at.slot] = lw.infos[d.id].name
	}
	m.body = lw.block(prog.Body, &sc)
	lw.exit(&sc)
	return m
}

func (lw *lowerer) block(ss []core.Stmt, sc *lscope) []op {
	ops := lw.ops.alloc(len(ss))
	for i, s := range ss {
		lw.stmt(s, sc, &ops[i])
	}
	return ops
}

func (lw *lowerer) operand(e core.Expr, sc *lscope) operand {
	switch x := e.(type) {
	case core.Var:
		return operand{v: lw.ref(sc, x.Name)}
	case core.Lit:
		l := lw.lits.next()
		l.key, l.label = x.Value+"#"+strconv.Itoa(int(x.Kind)), x.String()
		return operand{lit: l}
	}
	return operand{}
}

func (lw *lowerer) stmt(s core.Stmt, sc *lscope, o *op) {
	o.idx, o.ln = s.Index(), s.Line()
	switch x := s.(type) {
	case *core.Assign:
		o.kind, o.x, o.a = opAssign, lw.ref(sc, x.X), lw.operand(x.E, sc)
	case *core.BinOp:
		o.kind, o.x = opBinOp, lw.ref(sc, x.X)
		o.a, o.b = lw.operand(x.L, sc), lw.operand(x.R, sc)
	case *core.UnOp:
		o.kind, o.x, o.a = opUnOp, lw.ref(sc, x.X), lw.operand(x.E, sc)
	case *core.NewObj:
		o.kind, o.x = opNewObj, lw.ref(sc, x.X)
	case *core.Lookup:
		o.kind, o.x, o.a, o.prop = opLookup, lw.ref(sc, x.X), lw.operand(x.Obj, sc), x.Prop
	case *core.DynLookup:
		o.kind, o.x = opDynLookup, lw.ref(sc, x.X)
		o.a, o.b = lw.operand(x.Obj, sc), lw.operand(x.Prop, sc)
	case *core.Update:
		o.kind, o.prop = opUpdate, x.Prop
		o.a, o.b = lw.operand(x.Obj, sc), lw.operand(x.Val, sc)
	case *core.DynUpdate:
		o.kind = opDynUpdate
		o.a, o.b, o.c = lw.operand(x.Obj, sc), lw.operand(x.Prop, sc), lw.operand(x.Val, sc)
	case *core.If:
		o.kind, o.a = opIf, lw.operand(x.Cond, sc)
		o.then, o.els = lw.block(x.Then, sc), lw.block(x.Else, sc)
	case *core.While:
		o.kind, o.then = opWhile, lw.block(x.Body, sc)
	case *core.ForIn:
		o.kind, o.of, o.x, o.prop = opForIn, x.Of, lw.ref(sc, x.Key), x.Key
		o.a, o.then = lw.operand(x.Obj, sc), lw.block(x.Body, sc)
	case *core.Call:
		o.kind, o.x, o.call = opCall, lw.ref(sc, x.X), lw.call(x, sc)
	case *core.FuncDef:
		o.kind, o.fn = opFuncDef, lw.funcDef(x, sc)
	case *core.Return:
		o.kind = opReturn
		if x.E != nil {
			o.a = lw.operand(x.E, sc)
		}
	default:
		o.kind = opNop
	}
}

func (lw *lowerer) call(x *core.Call, sc *lscope) *callOp {
	c := lw.calls.next()
	*c = callOp{
		name:   x.CalleeName,
		label:  x.CalleeName + "()",
		callee: lw.operand(x.Callee, sc),
		isNew:  x.IsNew,
	}
	if x.This != nil {
		c.this = lw.operand(x.This, sc)
	}
	c.args = lw.operands.alloc(len(x.Args))
	for i, arg := range x.Args {
		c.args[i] = lw.operand(arg, sc)
	}
	if x.CalleeName == "require" && len(x.Args) == 1 {
		if lit, ok := x.Args[0].(core.Lit); ok {
			c.isRequire, c.reqSpec = true, lit.Value
			c.reqFile, c.reqOK = core.ResolveRequire(lw.a.files, lw.a.curFile, lit.Value)
		}
	}
	switch n := x.CalleeName; {
	case n == "Object.assign":
		c.builtin = builtinObjectAssign
	case n == "JSON.parse":
		c.builtin = builtinJSONParse
	case n == "Object.keys" || n == "Object.values" || n == "Object.entries":
		c.builtin = builtinObjectKeys
	case strings.HasSuffix(n, ".push") || strings.HasSuffix(n, ".unshift"):
		c.builtin = builtinArrayPush
	case strings.HasSuffix(n, ".concat"):
		c.builtin = builtinConcat
	}
	return c
}

func (lw *lowerer) funcDef(x *core.FuncDef, sc *lscope) *funcOp {
	qname := x.Name
	if len(lw.a.modules) > 1 {
		// Same-named functions in different files keep separate
		// summaries.
		qname = lw.file + ":" + x.Name
	}
	qid, ok := lw.qids[qname]
	if !ok {
		qid = int32(len(lw.qids))
		lw.qids[qname] = qid
		lw.a.qnames = append(lw.a.qnames, qname)
	}
	f := lw.funcs.next()
	*f = funcOp{def: x, qname: qname, qid: qid, name: lw.ref(sc, x.Name), retLabel: x.Name + "$ret"}
	child := lw.enter(sc)
	n := len(x.Params)
	f.params, f.paramKeys, f.argProps = lw.slots.alloc(n), lw.strs.alloc(n), lw.strs.alloc(n)
	for i, p := range x.Params {
		f.params[i] = lw.declare(&child, p)
		f.paramKeys[i] = p + "#" + strconv.Itoa(i)
		f.argProps[i] = strconv.Itoa(i)
	}
	f.thisSlot = lw.declare(&child, "this")
	f.argsSlot = lw.declare(&child, "arguments")
	lw.declareAssigned(x.Body, &child)
	f.nslots = lw.nslots(&child)
	f.body = lw.block(x.Body, &child)
	lw.exit(&child)
	return f
}
