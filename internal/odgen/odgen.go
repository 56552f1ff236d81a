// Package odgen implements the comparison baseline: a vulnerability
// scanner in the style of ODGen (Li et al., USENIX Security 2022), the
// prior state of the art the paper evaluates against.
//
// The baseline reproduces the design characteristics the paper
// attributes to ODGen:
//
//   - a combined CPG+ODG structure: AST and CFG plus an Object
//     Dependence Graph whose nodes represent objects, variables and
//     scopes;
//   - object allocation per *evaluation* rather than per allocation
//     site: every time an object initializer is analyzed a new ODG node
//     is created, so loops are unrolled and the graph grows with the
//     iteration count (the "object explosion" problem, §5.4);
//   - call-site inlining of function bodies (re-analysis per call, with
//     a depth limit) instead of summaries, so recursion multiplies
//     work;
//   - a step budget modelling the analysis timeout: loop- and
//     recursion-heavy prototype-pollution packages exhaust it (§5.2:
//     "in 95% of the cases, ODGen timed out without detecting any
//     vulnerability");
//   - natively implemented taint queries (fast traversal phase for
//     taint-style CWEs, Table 6);
//   - path-traversal findings only in a web-server context
//     (createServer), which eliminates CWE-22 false positives at the
//     cost of recall (§5.2).
package odgen

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/js/ast"
	"repro/internal/js/normalize"
	"repro/internal/js/parser"
	"repro/internal/queries"
)

// Options tunes the baseline.
type Options struct {
	// UnrollLimit is the number of times loops are unrolled.
	UnrollLimit int
	// CallDepth bounds call-site inlining.
	CallDepth int
	// StepBudget models the analysis timeout (0 = default).
	StepBudget int
	// Timeout additionally bounds a scan by wall-clock time
	// (0 = none); like the step budget, hitting it keeps the findings
	// established so far.
	Timeout time.Duration
	// Config supplies the sink lists (DefaultConfig when nil).
	Config *queries.Config
	// Workers bounds the worker pool for multi-package sweeps
	// (metrics.SweepODGen). 0 means runtime.GOMAXPROCS(0); 1 forces a
	// sequential sweep. A single Scan call ignores it.
	Workers int
}

// DefaultOptions mirror the artifact's defaults.
func DefaultOptions() Options {
	return Options{UnrollLimit: 5, CallDepth: 6, StepBudget: 200000}
}

// Report is the outcome of one baseline scan.
type Report struct {
	Name     string
	Findings []queries.Finding
	TimedOut bool
	Err      error

	// Failure classifies why the scan ended early (budget.ClassNone on
	// a clean run): parse errors, the step budget, the wall-clock
	// deadline, or a recovered interpreter panic. Incomplete marks
	// budget/deadline hits whose Findings are the pre-timeout subset.
	Failure    budget.Class
	Incomplete bool

	GraphTime time.Duration
	QueryTime time.Duration

	LoC      int
	ASTNodes int
	ODGNodes int
	ODGEdges int
}

// TotalTime returns the end-to-end analysis time.
func (r *Report) TotalTime() time.Duration { return r.GraphTime + r.QueryTime }

// ---------------------------------------------------------------------------
// ODG representation
// ---------------------------------------------------------------------------

type objID int

type object struct {
	id    objID
	taint map[string]bool // source names that reach this value
	props map[string]objID
	wild  []objID // wildcard (unknown-name) property values
	line  int
	// viaTaintedLookup marks objects obtained by a lookup whose
	// property name was attacker-controlled.
	viaTaintedLookup bool
	fn               *core.FuncDef // function values
}

type interp struct {
	opts     Options
	objs     []*object
	edges    int
	steps    int
	budget   int
	depth    int
	timeout  bool
	deadline time.Time    // zero = no wall-clock bound
	failure  budget.Class // why the interpreter stopped early

	findings []queries.Finding
	seen     map[string]bool
	hasWeb   bool // createServer present: CWE-22 reporting enabled
	sinksCI  []queries.Sink
	sinks78  []queries.Sink
	sinks22  []queries.Sink

	// globalFns maps function names to definitions for call inlining.
	globalFns map[string]*core.FuncDef
	exported  map[string]bool
}

type timeoutSignal struct{}

func (ip *interp) tick() {
	ip.steps++
	if ip.steps > ip.budget {
		ip.timeout = true
		ip.failure = budget.ClassBudget
		panic(timeoutSignal{}) //lint:allow nakedpanic -- timeoutSignal is recovered by the run fence below
	}
	if !ip.deadline.IsZero() && ip.steps%256 == 0 && !time.Now().Before(ip.deadline) {
		ip.timeout = true
		ip.failure = budget.ClassTimeout
		panic(timeoutSignal{}) //lint:allow nakedpanic -- timeoutSignal is recovered by the run fence below
	}
}

func (ip *interp) newObject(line int) *object {
	o := &object{id: objID(len(ip.objs)), taint: map[string]bool{}, props: map[string]objID{}, line: line}
	ip.objs = append(ip.objs, o)
	return o
}

func (ip *interp) get(id objID) *object { return ip.objs[id] }

// env is a variable environment with lexical parent.
type env struct {
	vars   map[string]objID
	parent *env
}

func newEnv(parent *env) *env { return &env{vars: map[string]objID{}, parent: parent} }

func (e *env) get(x string) (objID, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[x]; ok {
			return v, true
		}
	}
	return 0, false
}

func (e *env) set(x string, v objID) {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[x]; ok {
			s.vars[x] = v
			return
		}
	}
	e.vars[x] = v
}

// Scan runs the baseline on one source text.
//
// Scan is safe for concurrent use by multiple goroutines: all scan
// state (ODG, worklists, step budget) is allocated per call, the
// package's only globals are immutable lookup tables, and the shared
// opts.Config is never written after construction.
func Scan(src, name string, opts Options) *Report {
	if opts.UnrollLimit == 0 {
		opts = DefaultOptions()
	}
	cfg := opts.Config
	if cfg == nil {
		cfg = queries.DefaultConfig()
	}
	rep := &Report{Name: name, LoC: strings.Count(src, "\n") + 1}
	start := time.Now()

	prog, err := parser.Parse(src)
	if err != nil {
		rep.Err = fmt.Errorf("odgen: parse %s: %w", name, err)
		rep.Failure = budget.ClassParse
		return rep
	}
	rep.ASTNodes = ast.Count(prog)
	nprog := normalize.Normalize(prog, name)

	ip := &interp{
		opts:      opts,
		budget:    opts.StepBudget,
		seen:      map[string]bool{},
		globalFns: map[string]*core.FuncDef{},
		exported:  map[string]bool{},
		sinksCI:   cfg.SinksFor(queries.CWECodeInjection),
		sinks78:   cfg.SinksFor(queries.CWECommandInjection),
		sinks22:   cfg.SinksFor(queries.CWEPathTraversal),
	}
	if ip.budget == 0 {
		ip.budget = 200000
	}
	if opts.Timeout > 0 {
		ip.deadline = start.Add(opts.Timeout)
	}
	core.Walk(nprog.Body, func(s core.Stmt) bool {
		if fd, ok := s.(*core.FuncDef); ok {
			ip.globalFns[fd.Name] = fd
		}
		if c, ok := s.(*core.Call); ok && strings.Contains(c.CalleeName, "createServer") {
			ip.hasWeb = true
		}
		return true
	})
	ip.findExported(nprog)

	if perr := budget.Guard("odgen-interp", func() error {
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(timeoutSignal); ok {
						return
					}
					panic(r) //lint:allow nakedpanic -- re-raises foreign panics for the scanner's phase guard
				}
			}()
			ip.run(nprog)
		}()
		return nil
	}); perr != nil {
		// Any panic other than the cooperative timeout signal is an
		// engine bug; contain it and keep the findings established so
		// far rather than killing the whole sweep.
		rep.Err = perr
		rep.Failure = budget.ClassPanic
	}

	rep.GraphTime = time.Since(start)
	rep.TimedOut = ip.timeout
	if ip.timeout {
		rep.Failure = ip.failure
		rep.Incomplete = true
	}
	rep.ODGNodes = rep.ASTNodes + len(ip.objs)
	rep.ODGEdges = ip.edges
	// ODGen reports the vulnerabilities found before timing out.
	qStart := time.Now()
	rep.Findings = ip.findings
	rep.QueryTime = time.Since(qStart)
	return rep
}

// findExported mirrors the CommonJS attack-surface detection: functions
// assigned to module.exports / exports become entry points.
func (ip *interp) findExported(prog *core.Program) {
	// Track which variables alias module.exports.
	core.Walk(prog.Body, func(s core.Stmt) bool {
		switch st := s.(type) {
		case *core.Update:
			if isExportsExpr(st.Obj) {
				if v, ok := st.Val.(core.Var); ok {
					ip.exported[v.Name] = true
				}
			}
			if v, ok := st.Obj.(core.Var); ok && (v.Name == "module" || v.Name == "exports") {
				if val, ok := st.Val.(core.Var); ok {
					ip.exported[val.Name] = true
				}
			}
		case *core.Assign:
			// $t := module.exports-ish aliases are rare post-normalize.
			_ = st
		case *core.Lookup:
			_ = st
		}
		return true
	})
	if len(ip.exported) == 0 {
		for name := range ip.globalFns {
			ip.exported[name] = true
		}
	}
}

func isExportsExpr(e core.Expr) bool {
	v, ok := e.(core.Var)
	return ok && (v.Name == "exports" || strings.HasPrefix(v.Name, "$"))
}

// run drives the whole-program interpretation: top level first, then
// each exported function with tainted parameters.
func (ip *interp) run(prog *core.Program) {
	global := newEnv(nil)
	ip.stmts(prog.Body, global)
	names := make([]string, 0, len(ip.exported))
	for name := range ip.exported {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fd, ok := ip.globalFns[name]
		if !ok {
			continue
		}
		fnEnv := newEnv(global)
		var args []objID
		for _, p := range fd.Params {
			o := ip.newObject(fd.Ln)
			o.taint[p] = true
			args = append(args, o.id)
			_ = p
		}
		ip.invoke(fd, args, fnEnv)
	}
}

func (ip *interp) invoke(fd *core.FuncDef, args []objID, parent *env) {
	if ip.depth >= ip.opts.CallDepth {
		return
	}
	ip.depth++
	defer func() { ip.depth-- }()
	e := newEnv(parent)
	for i, p := range fd.Params {
		if i < len(args) {
			e.vars[p] = args[i]
		} else {
			e.vars[p] = ip.newObject(fd.Ln).id
		}
	}
	ip.stmts(fd.Body, e)
}

func (ip *interp) eval(ex core.Expr, e *env, line int) objID {
	switch x := ex.(type) {
	case core.Var:
		if id, ok := e.get(x.Name); ok {
			return id
		}
		o := ip.newObject(line)
		e.set(x.Name, o.id)
		return o.id
	case core.Lit:
		return ip.newObject(line).id // fresh node per literal evaluation
	}
	return ip.newObject(line).id
}

func (ip *interp) stmts(ss []core.Stmt, e *env) {
	for _, s := range ss {
		ip.stmt(s, e)
	}
}

func (ip *interp) stmt(s core.Stmt, e *env) {
	ip.tick()
	switch x := s.(type) {
	case *core.Assign:
		e.set(x.X, ip.eval(x.E, e, x.Ln))

	case *core.BinOp:
		l := ip.get(ip.eval(x.L, e, x.Ln))
		r := ip.get(ip.eval(x.R, e, x.Ln))
		o := ip.newObject(x.Ln)
		mergeTaint(o, l, r)
		ip.edges += 2
		e.set(x.X, o.id)

	case *core.UnOp:
		v := ip.get(ip.eval(x.E, e, x.Ln))
		o := ip.newObject(x.Ln)
		mergeTaint(o, v)
		ip.edges++
		e.set(x.X, o.id)

	case *core.NewObj:
		// Per-evaluation allocation: the object-explosion behaviour.
		e.set(x.X, ip.newObject(x.Ln).id)

	case *core.Lookup:
		obj := ip.get(ip.eval(x.Obj, e, x.Ln))
		id, ok := obj.props[x.Prop]
		if !ok {
			n := ip.newObject(x.Ln)
			mergeTaint(n, obj)
			obj.props[x.Prop] = n.id
			ip.edges++
			id = n.id
		}
		e.set(x.X, id)

	case *core.DynLookup:
		obj := ip.get(ip.eval(x.Obj, e, x.Ln))
		prop := ip.get(ip.eval(x.Prop, e, x.Ln))
		n := ip.newObject(x.Ln)
		mergeTaint(n, obj, prop)
		if len(prop.taint) > 0 {
			n.viaTaintedLookup = true
		}
		for _, w := range obj.wild {
			mergeTaint(n, ip.get(w))
		}
		for _, pid := range obj.props {
			mergeTaint(n, ip.get(pid))
		}
		obj.wild = append(obj.wild, n.id)
		ip.edges += 2
		e.set(x.X, n.id)

	case *core.Update:
		obj := ip.get(ip.eval(x.Obj, e, x.Ln))
		val := ip.eval(x.Val, e, x.Ln)
		obj.props[x.Prop] = val
		ip.edges++

	case *core.DynUpdate:
		obj := ip.get(ip.eval(x.Obj, e, x.Ln))
		prop := ip.get(ip.eval(x.Prop, e, x.Ln))
		val := ip.get(ip.eval(x.Val, e, x.Ln))
		obj.wild = append(obj.wild, val.id)
		ip.edges += 2
		// Prototype-pollution pattern: assignment over an object that
		// was itself obtained through a tainted dynamic lookup, with
		// tainted property name and tainted value.
		if obj.viaTaintedLookup && len(prop.taint) > 0 && len(val.taint) > 0 {
			ip.report(queries.Finding{
				CWE:      queries.CWEPrototypePollution,
				SinkName: "prototype pollution",
				SinkLine: x.Ln,
				Source:   firstTaint(prop),
			})
		}

	case *core.If:
		ip.eval(x.Cond, e, x.Ln)
		ip.stmts(x.Then, e)
		ip.stmts(x.Else, e)

	case *core.While:
		// Loop unrolling: the body is re-analyzed UnrollLimit times,
		// allocating fresh objects each iteration.
		for i := 0; i < ip.opts.UnrollLimit; i++ {
			ip.stmts(x.Body, e)
		}

	case *core.ForIn:
		obj := ip.get(ip.eval(x.Obj, e, x.Ln))
		for i := 0; i < ip.opts.UnrollLimit; i++ {
			k := ip.newObject(x.Ln)
			mergeTaint(k, obj)
			if len(obj.taint) > 0 {
				k.viaTaintedLookup = true
			}
			e.set(x.Key, k.id)
			ip.stmts(x.Body, e)
		}

	case *core.Call:
		ip.call(x, e)

	case *core.FuncDef:
		o := ip.newObject(x.Ln)
		o.fn = x
		e.set(x.Name, o.id)

	case *core.Return:
		if x.E != nil {
			ip.eval(x.E, e, x.Ln)
		}
	}
}

func (ip *interp) call(x *core.Call, e *env) {
	var argObjs []*object
	var argIDs []objID
	for _, a := range x.Args {
		id := ip.eval(a, e, x.Ln)
		argIDs = append(argIDs, id)
		argObjs = append(argObjs, ip.get(id))
	}

	// Sink checks (native query evaluation).
	ip.checkSinks(x, argObjs)

	// Result node.
	res := ip.newObject(x.Ln)
	for _, a := range argObjs {
		mergeTaint(res, a)
	}
	ip.edges += len(argObjs)

	// Inline known callees (per call site).
	calleeID := ip.eval(x.Callee, e, x.Ln)
	switch {
	case ip.get(calleeID).fn != nil:
		ip.invoke(ip.get(calleeID).fn, argIDs, e)
	case strings.HasSuffix(x.CalleeName, ".call") || strings.HasSuffix(x.CalleeName, ".apply"):
		// Function.prototype.call/apply: the baseline's concrete-style
		// interpretation resolves these (the paper lists them among the
		// features MDGs do not support, §5.2).
		base := strings.TrimSuffix(strings.TrimSuffix(x.CalleeName, ".call"), ".apply")
		if fd, ok := ip.globalFns[base]; ok {
			shifted := argIDs
			if len(shifted) > 0 {
				shifted = shifted[1:] // drop thisArg
			}
			ip.invoke(fd, shifted, e)
		}
	default:
		if fd, ok := ip.globalFns[x.CalleeName]; ok {
			ip.invoke(fd, argIDs, e)
		} else {
			// Unknown callee: assume it may copy any argument into any
			// other (conservative side-effect modelling). This cross-
			// argument contamination is a documented imprecision of the
			// ODG approach and a driver of its true false positives.
			anyTaint := map[string]bool{}
			for _, a := range argObjs {
				for k := range a.taint {
					anyTaint[k] = true
				}
			}
			if len(anyTaint) > 0 {
				for _, a := range argObjs {
					for k := range anyTaint {
						a.taint[k] = true
					}
				}
			}
		}
	}
	e.set(x.X, res.id)
}

func (ip *interp) checkSinks(x *core.Call, args []*object) {
	check := func(sinks []queries.Sink, cwe queries.CWE) {
		for _, s := range sinks {
			if !queries.MatchSink(x.CalleeName, s.Name) {
				continue
			}
			if cwe == queries.CWEPathTraversal && !ip.hasWeb {
				// ODGen only reports path traversal in a web-server
				// context (§5.2).
				continue
			}
			for _, n := range s.Args {
				if n < len(args) && len(args[n].taint) > 0 {
					ip.report(queries.Finding{
						CWE:      cwe,
						SinkName: x.CalleeName,
						SinkLine: x.Ln,
						Source:   firstTaint(args[n]),
					})
				}
			}
		}
	}
	check(ip.sinks78, queries.CWECommandInjection)
	check(ip.sinksCI, queries.CWECodeInjection)
	check(ip.sinks22, queries.CWEPathTraversal)
}

func (ip *interp) report(f queries.Finding) {
	key := fmt.Sprintf("%s/%d/%s", f.CWE, f.SinkLine, f.SinkName)
	if ip.seen[key] {
		return
	}
	ip.seen[key] = true
	ip.findings = append(ip.findings, f)
}

func mergeTaint(dst *object, srcs ...*object) {
	for _, s := range srcs {
		for k := range s.taint {
			dst.taint[k] = true
		}
	}
}

func firstTaint(o *object) string {
	for k := range o.taint {
		return k
	}
	return ""
}
