package analysis

import (
	"fmt"
	"math/rand"
	"repro/internal/budget"
	"testing"

	"repro/internal/core"
	"repro/internal/mdg"
)

// progGen builds random call-free Core JavaScript programs whose
// variables are always initialized before use. Object variables and
// primitive variables are tracked separately so lookups and updates
// target objects.
type progGen struct {
	r       *rand.Rand
	idx     int
	objVars []string
	valVars []string
	depth   int
}

func (g *progGen) nextIdx() int { g.idx++; return g.idx }

func (g *progGen) pickObj() core.Expr {
	return core.Var{Name: g.objVars[g.r.Intn(len(g.objVars))]}
}

func (g *progGen) pickVal() core.Expr {
	if g.r.Intn(4) == 0 {
		return core.Lit{Kind: core.LitString, Value: fmt.Sprintf("s%d", g.r.Intn(5))}
	}
	return core.Var{Name: g.valVars[g.r.Intn(len(g.valVars))]}
}

func (g *progGen) pickAny() core.Expr {
	if g.r.Intn(2) == 0 {
		return g.pickObj()
	}
	return g.pickVal()
}

var genProps = []string{"a", "b", "cmd", "data"}

func (g *progGen) prop() string { return genProps[g.r.Intn(len(genProps))] }

func (g *progGen) stmts(n int) []core.Stmt {
	var out []core.Stmt
	for i := 0; i < n; i++ {
		out = append(out, g.stmt())
	}
	return out
}

func (g *progGen) stmt() core.Stmt {
	m := func() core.Meta { return core.Meta{Idx: g.nextIdx(), Ln: g.idx} }
	choice := g.r.Intn(12)
	if g.depth >= 2 && choice >= 10 {
		choice = g.r.Intn(10)
	}
	switch choice {
	case 0: // new object
		x := g.objVars[g.r.Intn(len(g.objVars))]
		return &core.NewObj{Meta: m(), X: x}
	case 1: // assign literal/var to value var
		x := g.valVars[g.r.Intn(len(g.valVars))]
		return &core.Assign{Meta: m(), X: x, E: g.pickVal()}
	case 2: // binop
		x := g.valVars[g.r.Intn(len(g.valVars))]
		ops := []string{"+", "-", "*", "===", "<"}
		return &core.BinOp{Meta: m(), X: x, Op: ops[g.r.Intn(len(ops))], L: g.pickVal(), R: g.pickVal()}
	case 3: // static lookup into value var
		x := g.valVars[g.r.Intn(len(g.valVars))]
		return &core.Lookup{Meta: m(), X: x, Obj: g.pickObj(), Prop: g.prop()}
	case 4: // dynamic lookup
		x := g.valVars[g.r.Intn(len(g.valVars))]
		return &core.DynLookup{Meta: m(), X: x, Obj: g.pickObj(), Prop: g.pickVal()}
	case 5: // static update
		return &core.Update{Meta: m(), Obj: g.pickObj(), Prop: g.prop(), Val: g.pickAny()}
	case 6: // dynamic update
		return &core.DynUpdate{Meta: m(), Obj: g.pickObj(), Prop: g.pickVal(), Val: g.pickAny()}
	case 7: // unop
		x := g.valVars[g.r.Intn(len(g.valVars))]
		return &core.UnOp{Meta: m(), X: x, Op: "!", E: g.pickVal()}
	case 8, 9: // object alias — keeps object variables object-valued,
		// matching the paper's full-knowledge concrete semantics (§3.3)
		// where updates always hit real heap objects.
		x := g.objVars[g.r.Intn(len(g.objVars))]
		return &core.Assign{Meta: m(), X: x, E: g.pickObj()}
	case 10: // if
		g.depth++
		s := &core.If{Meta: m(), Cond: g.pickVal(), Then: g.stmts(1 + g.r.Intn(3)), Else: g.stmts(g.r.Intn(3))}
		g.depth--
		return s
	default: // bounded while over a counter
		g.depth++
		cnt := fmt.Sprintf("$cnt%d", g.idx)
		cond := fmt.Sprintf("$cond%d", g.idx)
		body := g.stmts(1 + g.r.Intn(3))
		body = append(body,
			&core.BinOp{Meta: m(), X: cnt, Op: "-", L: core.Var{Name: cnt}, R: core.Lit{Kind: core.LitNumber, Value: "1"}},
			&core.BinOp{Meta: m(), X: cond, Op: "<", L: core.Lit{Kind: core.LitNumber, Value: "0"}, R: core.Var{Name: cnt}},
		)
		g.depth--
		return &core.While{
			Meta: core.Meta{Ln: g.idx},
			Cond: core.Var{Name: cond},
			Body: body,
		}
	}
}

// genProgram builds a random self-contained program.
func genProgram(seed int64, size int) *core.Program {
	g := &progGen{
		r:       rand.New(rand.NewSource(seed)),
		objVars: []string{"o1", "o2", "o3"},
		valVars: []string{"v1", "v2", "v3"},
	}
	var body []core.Stmt
	// Initialize all variables.
	for _, x := range g.objVars {
		body = append(body, &core.NewObj{Meta: core.Meta{Idx: g.nextIdx(), Ln: g.idx}, X: x})
	}
	for i, x := range g.valVars {
		body = append(body, &core.Assign{Meta: core.Meta{Idx: g.nextIdx(), Ln: g.idx}, X: x,
			E: core.Lit{Kind: core.LitNumber, Value: fmt.Sprint(i + 1)}})
	}
	// Loop counters referenced by while loops.
	for i := 0; i < 60; i++ {
		body = append(body, &core.Assign{Meta: core.Meta{Idx: g.nextIdx(), Ln: g.idx},
			X: fmt.Sprintf("$cnt%d", i), E: core.Lit{Kind: core.LitNumber, Value: "2"}})
		body = append(body, &core.Assign{Meta: core.Meta{Idx: g.nextIdx(), Ln: g.idx},
			X: fmt.Sprintf("$cond%d", i), E: core.Lit{Kind: core.LitBool, Value: "true"}})
	}
	body = append(body, g.stmts(size)...)
	return &core.Program{FileName: "gen.js", Body: body, MaxIndex: g.idx + 1}
}

// alphaResolver maps concrete locations to abstract locations per the
// allocation keys, with structural fallback for lazily created property
// nodes (the abstraction function is existentially quantified in
// Theorem 3.2, so any consistent choice is valid).
type alphaResolver struct {
	g     *mdg.Graph
	cs    *ConcreteState
	cache map[CLoc]mdg.Loc
	nodes map[CLoc]*CNode
}

func newAlpha(g *mdg.Graph, cs *ConcreteState) *alphaResolver {
	a := &alphaResolver{g: g, cs: cs, cache: map[CLoc]mdg.Loc{}, nodes: map[CLoc]*CNode{}}
	for _, n := range cs.Nodes {
		a.nodes[n.Loc] = n
	}
	return a
}

func (a *alphaResolver) resolve(cl CLoc) (mdg.Loc, bool) {
	if l, ok := a.cache[cl]; ok {
		return l, true
	}
	n := a.nodes[cl]
	if n == nil {
		return mdg.NoLoc, false
	}
	// Lazy property nodes resolve structurally: they map to the abstract
	// property node attached to their origin object (which may predate
	// this site when the abstract AP*/AP reused an existing property).
	if n.Origin != 0 {
		ao, ok := a.resolve(n.Origin)
		if ok {
			// The abstract object may have been version-advanced past
			// the concrete one; search the whole version closure.
			for _, v := range verClosure(a.g, ao) {
				if n.Key.Role == "prop*" {
					if stars := a.g.StarTargets(v); len(stars) > 0 {
						a.cache[cl] = stars[0]
						return stars[0], true
					}
				} else if t := a.g.PropTarget(v, n.Key.Prop); t != mdg.NoLoc {
					a.cache[cl] = t
					return t, true
				}
			}
		}
	}
	if l, ok := a.g.LocForKey(n.Key.Role, n.Key.Site, 0, n.Key.Prop); ok {
		a.cache[cl] = l
		return l, true
	}
	return mdg.NoLoc, false
}

// verClosure returns l together with all its version successors: the
// abstract locations representing later states of the same object(s).
// Allocation-site summarization can make the abstract store advance an
// object past its concrete counterpart (several concrete objects share
// one abstract location), so the soundness relation identifies
// locations modulo version advancement — ρ̂(x) "only contains the newest
// versions of the objects associated with x" (§3.2).
func verClosure(g *mdg.Graph, l mdg.Loc) []mdg.Loc {
	out := []mdg.Loc{l}
	seen := map[mdg.Loc]bool{l: true}
	for i := 0; i < len(out); i++ {
		for _, s := range g.VersionSuccessors(out[i]) {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

func hasEdgeModVersions(g *mdg.Graph, from, to mdg.Loc, ok func(mdg.Edge) bool) bool {
	for _, f := range verClosure(g, from) {
		for _, e := range g.Out(f) {
			if !ok(e) {
				continue
			}
			for _, t := range verClosure(g, to) {
				if e.To == t {
					return true
				}
			}
		}
	}
	return false
}

// checkSoundness verifies Definition 3.1 (ĝ ∼α g) plus the store
// over-approximation ρ̂ ⊒ α(ρ), both modulo version advancement. It
// returns a description of the first violation, or "".
func checkSoundness(res *Result, cs *ConcreteState) string {
	alpha := newAlpha(res.Graph, cs)
	g := res.Graph
	for _, e := range cs.Edges {
		af, okF := alpha.resolve(e.From)
		at, okT := alpha.resolve(e.To)
		if !okF || !okT {
			return fmt.Sprintf("no α for edge endpoints %d->%d (%v)", e.From, e.To, e.Type)
		}
		if af == at {
			continue // collapsed by abstraction
		}
		switch e.Type {
		case CDep:
			if !hasEdgeModVersions(g, af, at, func(ae mdg.Edge) bool { return ae.Type == mdg.Dep }) {
				return fmt.Sprintf("missing abstract D edge o%d->o%d (concrete %d->%d)", af, at, e.From, e.To)
			}
		case CProp:
			okEdge := func(ae mdg.Edge) bool {
				return (ae.Type == mdg.Prop && ae.Prop == e.Prop) || ae.Type == mdg.PropStar
			}
			if !hasEdgeModVersions(g, af, at, okEdge) {
				return fmt.Sprintf("missing abstract P(%s)/P(*) edge o%d->o%d", e.Prop, af, at)
			}
		case CVer:
			okEdge := func(ae mdg.Edge) bool {
				return (ae.Type == mdg.Ver && ae.Prop == e.Prop) || ae.Type == mdg.VerStar
			}
			if !hasEdgeModVersions(g, af, at, okEdge) {
				return fmt.Sprintf("missing abstract V(%s)/V(*) edge o%d->o%d", e.Prop, af, at)
			}
		}
	}
	// Store over-approximation modulo version advancement.
	for x, cl := range cs.Store {
		al, ok := alpha.resolve(cl)
		if !ok {
			return fmt.Sprintf("no α for store binding %s=%d", x, cl)
		}
		found := false
		closure := verClosure(g, al)
		for _, l := range res.Root.Get(x) {
			for _, c := range closure {
				if l == c {
					found = true
				}
			}
		}
		if !found {
			return fmt.Sprintf("store: α(ρ(%s))=o%d ∉ ρ̂(%s)=%v (mod versions)", x, al, x, res.Root.Get(x))
		}
	}
	return ""
}

// TestSoundnessQuick is the Theorem 3.2 property test: for randomly
// generated call-free Core JavaScript programs, the abstract MDG and
// store over-approximate the instrumented concrete execution.
func TestSoundnessQuick(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		prog := genProgram(seed, 12+int(seed%10))
		b := budget.New(budget.Limits{})
		res := Analyze(prog, Options{MaxLoopIter: 50, Budget: b})
		if err := b.Err(); err != nil {
			t.Fatalf("seed %d: abstract analysis stopped early: %v", seed, err)
		}
		cs := RunConcrete(prog, 5000)
		if msg := checkSoundness(res, cs); msg != "" {
			t.Fatalf("seed %d: soundness violated: %s\nprogram:\n%s",
				seed, msg, core.Print(prog.Body))
		}
	}
}

// TestSoundnessGitReset checks soundness on the normalized running
// example against a hand-driven concrete input (full knowledge).
func TestSoundnessLargePrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("long soundness sweep")
	}
	for seed := int64(1000); seed < 1050; seed++ {
		prog := genProgram(seed, 60)
		res := Analyze(prog, Options{MaxLoopIter: 50})
		cs := RunConcrete(prog, 20000)
		if msg := checkSoundness(res, cs); msg != "" {
			t.Fatalf("seed %d: soundness violated: %s", seed, msg)
		}
	}
}

func TestConcreteInterpreterBasics(t *testing.T) {
	prog := &core.Program{Body: []core.Stmt{
		&core.NewObj{Meta: core.Meta{Idx: 1}, X: "o"},
		&core.Assign{Meta: core.Meta{Idx: 2}, X: "v", E: core.Lit{Kind: core.LitString, Value: "hi"}},
		&core.Update{Meta: core.Meta{Idx: 3}, Obj: core.Var{Name: "o"}, Prop: "msg", Val: core.Var{Name: "v"}},
		&core.Lookup{Meta: core.Meta{Idx: 4}, X: "w", Obj: core.Var{Name: "o"}, Prop: "msg"},
	}}
	cs := RunConcrete(prog, 1000)
	if cs.Truncated {
		t.Fatal("must not truncate")
	}
	// w holds the same location as v.
	if cs.Store["w"] != cs.Store["v"] {
		t.Fatalf("w=%d v=%d", cs.Store["w"], cs.Store["v"])
	}
	// The update created a version edge.
	hasVer := false
	for _, e := range cs.Edges {
		if e.Type == CVer && e.Prop == "msg" {
			hasVer = true
		}
	}
	if !hasVer {
		t.Fatal("missing concrete version edge")
	}
}

func TestConcreteWhileTerminates(t *testing.T) {
	// A concretely infinite loop is truncated by the budget.
	prog := &core.Program{Body: []core.Stmt{
		&core.Assign{Meta: core.Meta{Idx: 1}, X: "c", E: core.Lit{Kind: core.LitBool, Value: "true"}},
		&core.While{Meta: core.Meta{}, Cond: core.Var{Name: "c"}, Body: []core.Stmt{
			&core.Assign{Meta: core.Meta{Idx: 2}, X: "x", E: core.Lit{Kind: core.LitNumber, Value: "1"}},
		}},
	}}
	cs := RunConcrete(prog, 100)
	if !cs.Truncated {
		t.Fatal("expected truncation")
	}
}

func TestConcreteBinOpSemantics(t *testing.T) {
	cases := []struct{ op, a, b, want string }{
		{"+", "1", "2", "3"},
		{"+", "a", "b", "ab"},
		{"-", "5", "2", "3"},
		{"*", "4", "2", "8"},
		{"/", "8", "2", "4"},
		{"/", "8", "0", "NaN"},
		{"<", "1", "2", "true"},
		{"===", "x", "x", "true"},
		{"!==", "x", "y", "true"},
		{"&&", "true", "z", "z"},
		{"||", "", "z", "z"},
	}
	for _, c := range cases {
		if got := evalBinOp(c.op, c.a, c.b); got != c.want {
			t.Errorf("%s %s %s = %q, want %q", c.a, c.op, c.b, got, c.want)
		}
	}
}
