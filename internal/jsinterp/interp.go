package jsinterp

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// SinkEvent records one invocation of an instrumented sink.
type SinkEvent struct {
	Sink string // canonical sink name: exec, eval, fs.readFile, ...
	Args []string
}

// Interp executes Core JavaScript concretely.
type Interp struct {
	// Sinks is the instrumentation log.
	Sinks []SinkEvent
	// ObjectPrototype is the shared root of every object's prototype
	// chain; pollution lands here.
	ObjectPrototype *Object

	genv    *Env
	steps   int
	budget  int
	modules map[string]*core.Program // sibling modules for require
	exports map[string]Value         // memoized module exports
}

// ErrBudget reports that execution exceeded the step budget.
var ErrBudget = errors.New("jsinterp: step budget exhausted")

// control-flow signals.
type returnSignal struct{ v Value }
type breakSignal struct{}
type continueSignal struct{}

func (returnSignal) Error() string   { return "return" }
func (breakSignal) Error() string    { return "break" }
func (continueSignal) Error() string { return "continue" }

// New creates an interpreter with the given step budget.
func New(budget int) *Interp {
	in := &Interp{
		ObjectPrototype: &Object{props: map[string]Value{}},
		budget:          budget,
		modules:         map[string]*core.Program{},
		exports:         map[string]Value{},
	}
	in.genv = NewEnv(nil)
	in.setupGlobals()
	in.installArrayMethods()
	return in
}

// AddModule registers a sibling module for require('./name') resolution.
func (in *Interp) AddModule(name string, prog *core.Program) {
	in.modules[name] = prog
}

// NewObj creates an object rooted at the shared Object.prototype.
func (in *Interp) NewObj() *Object { return NewObject(in.ObjectPrototype) }

func (in *Interp) tick() error {
	in.steps++
	if in.steps > in.budget {
		return ErrBudget
	}
	return nil
}

// RunModule executes a program as a CommonJS module and returns its
// exports value.
func (in *Interp) RunModule(prog *core.Program) (Value, error) {
	if v, ok := in.exports[prog.FileName]; ok {
		return v, nil
	}
	env := NewEnv(in.genv)
	module := in.NewObj()
	exports := in.NewObj()
	module.Set("exports", exports)
	env.SetLocal("module", module)
	env.SetLocal("exports", exports)
	// Pre-register to tolerate require cycles.
	in.exports[prog.FileName] = exports
	if err := in.stmts(prog.Body, env); err != nil && !errors.As(err, &returnSignal{}) {
		return nil, err
	}
	out := module.Get("exports")
	in.exports[prog.FileName] = out
	return out, nil
}

// CallFunction invokes a function value with arguments.
func (in *Interp) CallFunction(fn Value, this Value, args []Value) (Value, error) {
	switch f := fn.(type) {
	case *Builtin:
		return f.Fn(in, this, args)
	case *Function:
		body, _ := f.Body.([]core.Stmt)
		env := NewEnv(f.Env)
		for i, p := range f.Params {
			if i < len(args) {
				env.SetLocal(p, args[i])
			} else {
				env.SetLocal(p, Undefined{})
			}
		}
		if this == nil {
			this = Undefined{}
		}
		env.SetLocal("this", this)
		argsObj := in.NewObj()
		for i, a := range args {
			argsObj.Set(fmt.Sprint(i), a)
		}
		argsObj.Set("length", Number(len(args)))
		env.SetLocal("arguments", argsObj)
		err := in.stmts(body, env)
		var ret returnSignal
		if errors.As(err, &ret) {
			return ret.v, nil
		}
		// Stray break/continue (e.g. a desugared switch) completes the
		// function normally.
		if errors.As(err, &breakSignal{}) || errors.As(err, &continueSignal{}) {
			return Undefined{}, nil
		}
		if err != nil {
			return nil, err
		}
		return Undefined{}, nil
	default:
		return nil, fmt.Errorf("jsinterp: %s is not a function", ToString(fn))
	}
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (in *Interp) stmts(ss []core.Stmt, env *Env) error {
	for _, s := range ss {
		if err := in.stmt(s, env); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) stmt(s core.Stmt, env *Env) error {
	if err := in.tick(); err != nil {
		return err
	}
	switch x := s.(type) {
	case *core.Assign:
		v, err := in.eval(x.E, env)
		if err != nil {
			return err
		}
		env.Set(x.X, v)

	case *core.BinOp:
		l, err := in.eval(x.L, env)
		if err != nil {
			return err
		}
		r, err := in.eval(x.R, env)
		if err != nil {
			return err
		}
		env.Set(x.X, binOp(x.Op, l, r))

	case *core.UnOp:
		v, err := in.eval(x.E, env)
		if err != nil {
			return err
		}
		env.Set(x.X, unOp(x.Op, v))

	case *core.NewObj:
		env.Set(x.X, in.NewObj())

	case *core.Lookup:
		v, err := in.eval(x.Obj, env)
		if err != nil {
			return err
		}
		env.Set(x.X, in.getProp(v, x.Prop))

	case *core.DynLookup:
		v, err := in.eval(x.Obj, env)
		if err != nil {
			return err
		}
		p, err := in.eval(x.Prop, env)
		if err != nil {
			return err
		}
		env.Set(x.X, in.getProp(v, ToString(p)))

	case *core.Update:
		return in.update(x.Obj, x.Prop, x.Val, env)

	case *core.DynUpdate:
		p, err := in.eval(x.Prop, env)
		if err != nil {
			return err
		}
		return in.update(x.Obj, ToString(p), x.Val, env)

	case *core.If:
		c, err := in.eval(x.Cond, env)
		if err != nil {
			return err
		}
		if Truthy(c) {
			return in.stmts(x.Then, env)
		}
		return in.stmts(x.Else, env)

	case *core.While:
		for {
			c, err := in.eval(x.Cond, env)
			if err != nil {
				return err
			}
			if !Truthy(c) {
				return nil
			}
			err = in.stmts(x.Body, env)
			switch {
			case err == nil:
			case errors.As(err, &breakSignal{}):
				return nil
			case errors.As(err, &continueSignal{}):
			default:
				return err
			}
			if err := in.tick(); err != nil {
				return err
			}
		}

	case *core.ForIn:
		v, err := in.eval(x.Obj, env)
		if err != nil {
			return err
		}
		obj, ok := v.(*Object)
		if !ok {
			return nil
		}
		for _, key := range obj.Keys() {
			if x.Of {
				val, _ := obj.GetOwn(key)
				env.Set(x.Key, val)
			} else {
				env.Set(x.Key, String(key))
			}
			err := in.stmts(x.Body, env)
			switch {
			case err == nil:
			case errors.As(err, &breakSignal{}):
				return nil
			case errors.As(err, &continueSignal{}):
			default:
				return err
			}
		}

	case *core.Call:
		return in.call(x, env)

	case *core.FuncDef:
		fn := &Function{Name: x.Name, Params: x.Params, Body: x.Body, Env: env}
		env.Set(x.Name, fn)

	case *core.Return:
		var v Value = Undefined{}
		if x.E != nil {
			var err error
			v, err = in.eval(x.E, env)
			if err != nil {
				return err
			}
		}
		return returnSignal{v: v}

	case *core.Break:
		return breakSignal{}
	case *core.Continue:
		return continueSignal{}
	}
	return nil
}

// update writes obj.prop = val with real JS semantics (in-place).
func (in *Interp) update(objE core.Expr, prop string, valE core.Expr, env *Env) error {
	ov, err := in.eval(objE, env)
	if err != nil {
		return err
	}
	val, err := in.eval(valE, env)
	if err != nil {
		return err
	}
	if obj, ok := ov.(*Object); ok {
		obj.Set(prop, val)
	}
	return nil
}

// getProp reads a property with prototype-chain semantics; primitives
// get method wrappers from the string/array builtins.
func (in *Interp) getProp(v Value, name string) Value {
	switch x := v.(type) {
	case *Object:
		if name == "__proto__" {
			if x.Proto() == nil {
				return Null{}
			}
			return x.Proto()
		}
		return x.Get(name)
	case String:
		return in.stringProp(x, name)
	case *Function:
		return in.functionProp(x, name)
	}
	return Undefined{}
}

func (in *Interp) eval(e core.Expr, env *Env) (Value, error) {
	switch x := e.(type) {
	case core.Var:
		if v, ok := env.Get(x.Name); ok {
			return v, nil
		}
		if v, ok := in.genv.Get(x.Name); ok {
			return v, nil
		}
		return Undefined{}, nil
	case core.Lit:
		switch x.Kind {
		case core.LitNumber:
			return Number(ToNumber(String(x.Value))), nil
		case core.LitString:
			return String(x.Value), nil
		case core.LitBool:
			return Bool(x.Value == "true"), nil
		case core.LitNull:
			return Null{}, nil
		case core.LitRegex:
			o := in.NewObj()
			o.Set("source", String(x.Value))
			return o, nil
		default:
			return Undefined{}, nil
		}
	}
	return Undefined{}, nil
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

func binOp(op string, l, r Value) Value {
	switch op {
	case "+":
		_, ls := l.(String)
		_, rs := r.(String)
		lo, lObj := l.(*Object)
		ro, rObj := r.(*Object)
		if ls || rs || lObj || rObj {
			_ = lo
			_ = ro
			return String(ToString(l) + ToString(r))
		}
		return Number(ToNumber(l) + ToNumber(r))
	case "-":
		return Number(ToNumber(l) - ToNumber(r))
	case "*":
		return Number(ToNumber(l) * ToNumber(r))
	case "/":
		return Number(ToNumber(l) / ToNumber(r))
	case "%":
		rf := ToNumber(r)
		if rf == 0 {
			return Number(nan())
		}
		return Number(float64(int64(ToNumber(l)) % int64(rf)))
	case "**":
		return Number(pow(ToNumber(l), ToNumber(r)))
	case "==", "===":
		return Bool(looseEq(l, r))
	case "!=", "!==":
		return Bool(!looseEq(l, r))
	case "<":
		return compare(l, r, func(a, b float64) bool { return a < b }, func(a, b string) bool { return a < b })
	case ">":
		return compare(l, r, func(a, b float64) bool { return a > b }, func(a, b string) bool { return a > b })
	case "<=":
		return compare(l, r, func(a, b float64) bool { return a <= b }, func(a, b string) bool { return a <= b })
	case ">=":
		return compare(l, r, func(a, b float64) bool { return a >= b }, func(a, b string) bool { return a >= b })
	case "&&":
		if !Truthy(l) {
			return l
		}
		return r
	case "||":
		if Truthy(l) {
			return l
		}
		return r
	case "??":
		switch l.(type) {
		case Undefined, Null:
			return r
		}
		return l
	case "&":
		return Number(float64(int64(ToNumber(l)) & int64(ToNumber(r))))
	case "|":
		return Number(float64(int64(ToNumber(l)) | int64(ToNumber(r))))
	case "^":
		return Number(float64(int64(ToNumber(l)) ^ int64(ToNumber(r))))
	case "<<":
		return Number(float64(int64(ToNumber(l)) << (uint(ToNumber(r)) & 31)))
	case ">>":
		return Number(float64(int64(ToNumber(l)) >> (uint(ToNumber(r)) & 31)))
	case "in":
		if obj, ok := r.(*Object); ok {
			_, has := obj.GetOwn(ToString(l))
			return Bool(has || obj.Get(ToString(l)) != Value(Undefined{}))
		}
		return Bool(false)
	case "instanceof":
		return Bool(false) // constructors are not tracked precisely
	}
	return Undefined{}
}

func pow(a, b float64) float64 {
	// Integer powers only; enough for test programs.
	if b < 0 || b != float64(int(b)) {
		return nan()
	}
	out := 1.0
	for i := 0; i < int(b); i++ {
		out *= a
	}
	return out
}

func looseEq(l, r Value) bool {
	switch lv := l.(type) {
	case Number:
		return float64(lv) == ToNumber(r)
	case String:
		if rv, ok := r.(String); ok {
			return lv == rv
		}
		if _, ok := r.(Number); ok {
			return ToNumber(l) == ToNumber(r)
		}
		return false
	case Bool:
		if rv, ok := r.(Bool); ok {
			return lv == rv
		}
		return false
	case Undefined:
		_, u := r.(Undefined)
		_, n := r.(Null)
		return u || n
	case Null:
		_, u := r.(Undefined)
		_, n := r.(Null)
		return u || n
	case *Object:
		return l == r
	case *Function:
		return l == r
	}
	return false
}

func compare(l, r Value, nf func(a, b float64) bool, sf func(a, b string) bool) Value {
	ls, lok := l.(String)
	rs, rok := r.(String)
	if lok && rok {
		return Bool(sf(string(ls), string(rs)))
	}
	return Bool(nf(ToNumber(l), ToNumber(r)))
}

func unOp(op string, v Value) Value {
	switch op {
	case "!":
		return Bool(!Truthy(v))
	case "-":
		return Number(-ToNumber(v))
	case "+":
		return Number(ToNumber(v))
	case "~":
		return Number(float64(^int64(ToNumber(v))))
	case "typeof":
		return String(v.typeof())
	}
	return Undefined{}
}

// renderArgs stringifies call arguments for the sink log.
func renderArgs(args []Value) []string {
	out := make([]string, len(args))
	for i, a := range args {
		out[i] = ToString(a)
	}
	return out
}
