package mdg

// This file implements the §6 discussion: "Collapsing the multiversion
// graph to include only the latest version would yield the regular
// object graph." The collapsed view maps every version chain to a
// single representative object, with the union of the chain's
// properties (later versions shadowing earlier writes of the same
// name). It is useful for rendering final heap shapes and as the
// domain for concrete attack traces.

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
