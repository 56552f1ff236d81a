package scanner

import (
	"slices"
	"strings"

	"repro/internal/core"
)

// This file computes the conservative file-dependency facts the
// incremental scanner partitions packages with. Two files must land in
// the same analysis fragment whenever the combined (cold) analysis
// could create a cross-file flow between them. There are exactly two
// kinds of channel in the analyzer:
//
//  1. require('./sibling') resolving to another package file — the
//     callee file's exports flow into the caller.
//  2. Shared global state. The analyzer lazily allocates one shared
//     node per *free* variable name (a name read where no scope binds
//     it) and one per external require specifier, in a root store that
//     persists across files. A file that assigns such a name rebinds
//     the root entry, and a file that updates (or dynamically looks
//     up) an object derived from such a node mutates structure every
//     other file sees.
//
// The extraction is deliberately conservative: over-approximating a
// channel merges two components that could have been analyzed apart —
// correct, just less incremental. Under-approximating would let an
// incremental scan diverge from a cold scan, which the
// mutation-equivalence harness (internal/metrics) exists to catch.
type fileFacts struct {
	// requires lists every literal require specifier in the file.
	requires []string
	// freeReads holds names possibly read while unbound — each one
	// makes the analyzer allocate a shared root node.
	freeReads map[string]bool
	// assigned holds every name the file assigns anywhere (top-level
	// or function body): if any other file free-reads the name, the
	// root binding exists by the second analysis pass and the
	// assignment rebinds it for everyone.
	assigned map[string]bool
	// mutated holds shared-root keys ("g:"+name / "m:"+spec) whose
	// object structure this file may mutate: a property update or a
	// dynamic lookup on a value derived from the shared node.
	mutated map[string]bool
	// readRoots holds every shared-root key the file references at
	// all.
	readRoots map[string]bool
}

// factsWalker tracks, per variable name, the set of shared-root keys
// the variable's value may derive from (flow-insensitive across the
// file, built to a fixpoint by extractFacts), and the names bound at
// the current point of the walk.
type factsWalker struct {
	f       *fileFacts
	derived map[string]map[string]bool
	// bound holds the names bound at the current point; log records
	// every name bound since the pass began, in order, so a nested
	// scope drops its own bindings on exit instead of walking a copy.
	bound map[string]bool
	log   []string
}

// extractFacts computes the dependency facts of one lowered file.
func extractFacts(prog *core.Program) *fileFacts {
	f := &fileFacts{
		freeReads: map[string]bool{},
		assigned:  map[string]bool{},
		mutated:   map[string]bool{},
		readRoots: map[string]bool{},
	}
	w := &factsWalker{f: f, derived: map[string]map[string]bool{}, bound: map[string]bool{}}
	// Derivation chains (x := shared; y := x.p; y.q := v) need a
	// fixpoint over the flow-insensitive derived sets; the chains are
	// short in practice, so a few passes converge. The free/assigned
	// sets are order-aware and identical every pass.
	for pass := 0; pass < 3; pass++ {
		before := w.derivedSize()
		clear(w.bound)
		w.log = w.log[:0]
		w.bind("module")
		w.bind("exports")
		w.stmts(prog.Body)
		if w.derivedSize() == before && pass > 0 {
			break
		}
	}
	return f
}

func (w *factsWalker) derivedSize() int {
	n := 0
	for _, s := range w.derived {
		n += len(s)
	}
	return n
}

// bind marks name bound from here on.
func (w *factsWalker) bind(name string) {
	if !w.bound[name] {
		w.bound[name] = true
		w.log = append(w.log, name)
	}
}

// unbind drops every binding made since the log had length mark and
// returns the dropped names (valid until the next bind).
func (w *factsWalker) unbind(mark int) []string {
	added := w.log[mark:]
	for _, name := range added {
		delete(w.bound, name)
	}
	w.log = w.log[:mark]
	return added
}

// read records a read of e and returns the shared-root keys the value
// may derive from.
func (w *factsWalker) read(e core.Expr) []string {
	v, ok := e.(core.Var)
	if !ok {
		return nil
	}
	var roots []string
	if !w.bound[v.Name] {
		key := "g:" + v.Name
		w.f.freeReads[v.Name] = true
		w.f.readRoots[key] = true
		roots = append(roots, key)
	}
	for k := range w.derived[v.Name] {
		roots = append(roots, k)
	}
	return roots
}

// derive unions roots into the derivation set of name.
func (w *factsWalker) derive(name string, roots []string) {
	if len(roots) == 0 {
		return
	}
	d := w.derived[name]
	if d == nil {
		d = map[string]bool{}
		w.derived[name] = d
	}
	for _, k := range roots {
		d[k] = true
	}
}

// mutate marks every shared root in roots as structurally mutated.
func (w *factsWalker) mutate(roots []string) {
	for _, k := range roots {
		w.f.mutated[k] = true
	}
}

// assign records an assignment target: the name becomes bound from
// here on, and is a potential root rebinding if any sibling file
// free-reads it.
func (w *factsWalker) assign(name string) {
	w.f.assigned[name] = true
	w.bind(name)
}

// stmts walks a statement list in order, mirroring the analyzer's
// evaluation order (function bodies are analyzed inline at their
// definition), binding names as they are introduced.
func (w *factsWalker) stmts(ss []core.Stmt) {
	for _, s := range ss {
		w.stmt(s)
	}
}

func (w *factsWalker) stmt(s core.Stmt) {
	switch x := s.(type) {
	case *core.Assign:
		roots := w.read(x.E)
		w.assign(x.X)
		w.derive(x.X, roots)

	case *core.BinOp:
		w.read(x.L)
		w.read(x.R)
		w.assign(x.X) // result is a fresh node, no derivation

	case *core.UnOp:
		w.read(x.E)
		w.assign(x.X)

	case *core.NewObj:
		w.assign(x.X)

	case *core.Lookup:
		roots := w.read(x.Obj)
		w.assign(x.X)
		w.derive(x.X, roots) // property values of a shared object are shared

	case *core.DynLookup:
		roots := w.read(x.Obj)
		w.read(x.Prop)
		// APStar attaches the dynamic-property dependency to a star
		// node other files may share — a graph mutation the pollution
		// query observes.
		w.mutate(roots)
		w.assign(x.X)
		w.derive(x.X, roots)

	case *core.Update:
		roots := w.read(x.Obj)
		w.read(x.Val)
		w.mutate(roots)

	case *core.DynUpdate:
		roots := w.read(x.Obj)
		w.read(x.Prop)
		w.read(x.Val)
		w.mutate(roots)

	case *core.If:
		w.read(x.Cond)
		mark := len(w.log)
		w.stmts(x.Then)
		thenB := slices.Clone(w.unbind(mark))
		w.stmts(x.Else)
		elseB := w.unbind(mark)
		// A name bound in only one branch may still be unbound after
		// the If: keep only bindings both branches established.
		for _, name := range thenB {
			if slices.Contains(elseB, name) {
				w.bind(name)
			}
		}

	case *core.While:
		w.read(x.Cond)
		mark := len(w.log)
		w.stmts(x.Body)
		w.unbind(mark)

	case *core.ForIn:
		roots := w.read(x.Obj)
		mark := len(w.log)
		w.f.assigned[x.Key] = true
		w.bind(x.Key)
		w.derive(x.Key, roots) // for-of values come from the object
		w.stmts(x.Body)
		w.unbind(mark)

	case *core.Call:
		w.read(x.Callee)
		if x.This != nil {
			w.read(x.This)
		}
		for _, a := range x.Args {
			w.read(a)
		}
		if x.CalleeName == "require" && len(x.Args) == 1 {
			if lit, ok := x.Args[0].(core.Lit); ok {
				key := "m:" + lit.Value
				w.f.requires = append(w.f.requires, lit.Value)
				w.f.readRoots[key] = true
				w.assign(x.X)
				w.derive(x.X, []string{key})
				return
			}
		}
		w.assign(x.X) // plain call results are fresh call nodes

	case *core.Return:
		if x.E != nil {
			w.read(x.E)
		}

	case *core.FuncDef:
		// The analyzer binds the name before analyzing the body (so
		// recursion resolves), and analyzes the body inline.
		w.assign(x.Name)
		mark := len(w.log)
		for _, p := range x.Params {
			w.bind(p)
		}
		w.bind("this")
		w.bind("arguments")
		w.stmts(x.Body)
		w.unbind(mark)
	}
}

// unionFind is a plain weighted union-find over file indices.
type unionFind struct{ parent, size []int }

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
		u.size[i] = 1
	}
	return u
}

func (u *unionFind) find(i int) int {
	for u.parent[i] != i {
		u.parent[i] = u.parent[u.parent[i]]
		i = u.parent[i]
	}
	return i
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}

// partitionComponents groups package files into the fragments the
// incremental scanner analyzes independently: connected components of
// the require graph, further merged along every shared-global channel
// the facts expose. Components are returned ordered by their first
// file, files inside a component in package order.
func partitionComponents(rels []string, facts []*fileFacts) [][]int {
	n := len(rels)
	u := newUnionFind(n)
	idx := make(map[string]int, n)
	for i, r := range rels {
		idx[r] = i
	}
	sorted := slices.Clone(rels)
	slices.Sort(sorted)

	// Channel 1: resolved require edges.
	for i, f := range facts {
		for _, spec := range f.requires {
			if target, ok := core.ResolveRequire(sorted, rels[i], spec); ok {
				u.union(i, idx[target])
			}
		}
	}

	// Channel 2: shared-name channels. For a plain name, the shared
	// root node exists iff somebody free-reads it; writers (assigners
	// and mutators) then act on it for everyone. For an external
	// module, every requirer shares the node; only mutation couples
	// them. Channels are keyed by bare name (globals) and specifier
	// (modules). Only a channel with a reader can couple files, so the
	// readers are collected first and each writer joins them.
	type channel struct {
		readers []int
		written bool
	}
	globals := map[string]*channel{}
	modules := map[string]*channel{}
	read := func(m map[string]*channel, key string, i int) {
		c := m[key]
		if c == nil {
			c = &channel{}
			m[key] = c
		}
		c.readers = append(c.readers, i)
	}
	for i, f := range facts {
		for name := range f.freeReads {
			read(globals, name, i)
		}
		for key := range f.readRoots {
			if spec, ok := strings.CutPrefix(key, "m:"); ok {
				read(modules, spec, i)
			}
		}
	}
	write := func(c *channel, i int) {
		if c != nil {
			c.written = true
			u.union(c.readers[0], i)
		}
	}
	for i, f := range facts {
		for name := range f.assigned {
			write(globals[name], i)
		}
		for key := range f.mutated {
			if name, ok := strings.CutPrefix(key, "g:"); ok {
				write(globals[name], i)
			} else if spec, ok := strings.CutPrefix(key, "m:"); ok {
				write(modules[spec], i)
			}
		}
	}
	for _, m := range []map[string]*channel{globals, modules} {
		for _, c := range m {
			if c.written {
				for _, r := range c.readers[1:] {
					u.union(c.readers[0], r)
				}
			}
		}
	}

	// Deterministic component order: by first member index.
	slot := make([]int, n) // root -> 1 + its component's index
	var out [][]int
	for i := 0; i < n; i++ {
		r := u.find(i)
		if slot[r] == 0 {
			out = append(out, nil)
			slot[r] = len(out)
		}
		out[slot[r]-1] = append(out[slot[r]-1], i)
	}
	return out
}
