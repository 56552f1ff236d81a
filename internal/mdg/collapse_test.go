package mdg

import "testing"

// This file implements the §6 discussion: "Collapsing the multiversion
// graph to include only the latest version would yield the regular
// object graph." The collapsed view maps every version chain to a
// single representative object, with the union of the chain's
// properties (later versions shadowing earlier writes of the same
// name). It is useful for rendering final heap shapes and as the
// domain for concrete attack traces.
// No binary uses it, so it lives with its tests.

// Collapsed is a regular (single-version) object graph derived from an
// MDG.
type Collapsed struct {
	// Rep maps every location to its chain representative (the newest
	// version reachable from it; for diamonds, the highest-numbered).
	Rep map[Loc]Loc
	// Props maps each representative to its final property table. The
	// "*" key collects dynamic-property values.
	Props map[Loc]map[string][]Loc
	// Deps are the dependency edges re-targeted to representatives.
	Deps map[Loc][]Loc
}

// Collapse computes the regular object graph of g.
func (g *Graph) Collapse() *Collapsed {
	c := &Collapsed{
		Rep:   make(map[Loc]Loc, g.numNodes),
		Props: make(map[Loc]map[string][]Loc),
		Deps:  make(map[Loc][]Loc),
	}
	// Representative: newest version in the chain. Walk forward along
	// version edges; pick the largest Loc among terminal versions (a
	// deterministic choice for join diamonds and cycles).
	for _, n := range g.Nodes() {
		c.Rep[n.Loc] = g.newestVersion(n.Loc)
	}

	// Final property tables: walk each chain oldest→newest so that
	// later writes shadow earlier ones; dynamic writes accumulate.
	for _, n := range g.Nodes() {
		rep := c.Rep[n.Loc]
		if _, done := c.Props[rep]; done {
			continue
		}
		c.Props[rep] = g.finalProps(rep, c)
	}

	for _, e := range g.Edges() {
		if e.Type == Dep {
			from, to := c.Rep[e.From], c.Rep[e.To]
			c.Deps[from] = appendUnique(c.Deps[from], to)
		}
	}
	return c
}

// newestVersion returns the representative version of l's chain.
func (g *Graph) newestVersion(l Loc) Loc {
	// Among all chain members pick the largest, which is stable.
	best := l
	for _, v := range g.VersionClosure(l) {
		best = max(best, v)
	}
	return best
}

// finalProps computes the collapsed property table of a representative:
// union over the chain with newest-first shadowing for named
// properties.
func (g *Graph) finalProps(rep Loc, c *Collapsed) map[string][]Loc {
	out := make(map[string][]Loc)
	// Collect chain members (rep plus all predecessors transitively).
	var chain []Loc
	seen := map[Loc]bool{}
	var back func(v Loc)
	back = func(v Loc) {
		if seen[v] {
			return
		}
		seen[v] = true
		chain = append(chain, v)
		for _, p := range g.VersionPredecessors(v) {
			back(p)
		}
	}
	back(rep)
	// chain is newest-first along each path (DFS from rep); a named
	// property keeps its first (newest) binding, star accumulates.
	for _, v := range chain {
		for _, e := range g.Out(v) {
			switch e.Type {
			case Prop:
				if _, shadowed := out[e.Prop]; !shadowed {
					out[e.Prop] = []Loc{c.Rep[e.To]}
				}
			case PropStar:
				out["*"] = appendUnique(out["*"], c.Rep[e.To])
			}
		}
	}
	return out
}

func appendUnique(ls []Loc, l Loc) []Loc {
	for _, x := range ls {
		if x == l {
			return ls
		}
	}
	return append(ls, l)
}

// VersionPredecessors returns the locations u with u →V(...) l.
func (g *Graph) VersionPredecessors(l Loc) []Loc {
	var out []Loc
	for _, e := range g.In(l) {
		if e.Type == Ver || e.Type == VerStar {
			out = append(out, e.From)
		}
	}
	return out
}

func TestCollapseLinearChain(t *testing.T) {
	g := New()
	v1 := newObj(g, "v1", 1)
	v2 := newObj(g, "v2", 2)
	v3 := newObj(g, "v3", 3)
	oldVal := newObj(g, "old", 4)
	newVal := newObj(g, "new", 5)
	other := newObj(g, "other", 6)
	g.AddEdge(Edge{From: v1, To: oldVal, Type: Prop, Prop: "cmd"})
	g.AddEdge(Edge{From: v1, To: v2, Type: Ver, Prop: "cmd"})
	g.AddEdge(Edge{From: v2, To: newVal, Type: Prop, Prop: "cmd"})
	g.AddEdge(Edge{From: v2, To: v3, Type: Ver, Prop: "extra"})
	g.AddEdge(Edge{From: v3, To: other, Type: Prop, Prop: "extra"})

	c := g.Collapse()
	// All chain members share the newest representative.
	rep := c.Rep[v1]
	if rep != v3 || c.Rep[v2] != v3 || c.Rep[v3] != v3 {
		t.Fatalf("reps = %d/%d/%d, want all %d", c.Rep[v1], c.Rep[v2], c.Rep[v3], v3)
	}
	props := c.Props[rep]
	// cmd: the newest write wins.
	if got := props["cmd"]; len(got) != 1 || got[0] != newVal {
		t.Errorf("cmd = %v, want [%d]", got, newVal)
	}
	if got := props["extra"]; len(got) != 1 || got[0] != other {
		t.Errorf("extra = %v", got)
	}
}

func TestCollapseStarAccumulates(t *testing.T) {
	g := New()
	v1 := newObj(g, "v1", 1)
	v2 := newObj(g, "v2", 2)
	a := newObj(g, "a", 3)
	b := newObj(g, "b", 4)
	g.AddEdge(Edge{From: v1, To: a, Type: PropStar})
	g.AddEdge(Edge{From: v1, To: v2, Type: VerStar})
	g.AddEdge(Edge{From: v2, To: b, Type: PropStar})
	c := g.Collapse()
	star := c.Props[c.Rep[v1]]["*"]
	if len(star) != 2 {
		t.Fatalf("star = %v, want both dynamic values", star)
	}
}

func TestCollapseDepsRetargeted(t *testing.T) {
	g := New()
	src := newObj(g, "src", 1)
	v1 := newObj(g, "v1", 2)
	v2 := newObj(g, "v2", 3)
	g.AddEdge(Edge{From: v1, To: v2, Type: Ver, Prop: "p"})
	g.AddEdge(Edge{From: src, To: v1, Type: Dep})
	c := g.Collapse()
	deps := c.Deps[c.Rep[src]]
	if len(deps) != 1 || deps[0] != v2 {
		t.Fatalf("deps = %v, want retargeted to newest version %d", deps, v2)
	}
}

func TestCollapseCycleTerminates(t *testing.T) {
	// §5.5 cyclic chains must collapse without hanging.
	g := New()
	a := newObj(g, "a", 1)
	b := newObj(g, "b", 2)
	g.AddEdge(Edge{From: a, To: b, Type: VerStar})
	g.AddEdge(Edge{From: b, To: a, Type: VerStar})
	c := g.Collapse()
	if c.Rep[a] != c.Rep[b] {
		t.Fatalf("cycle members must share a representative: %d vs %d", c.Rep[a], c.Rep[b])
	}
}

func TestCollapseUnversionedNodeIsItsOwnRep(t *testing.T) {
	g := New()
	o := newObj(g, "o", 1)
	c := g.Collapse()
	if c.Rep[o] != o {
		t.Fatalf("rep = %d", c.Rep[o])
	}
}
