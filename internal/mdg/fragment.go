package mdg

// Fragment is an immutable snapshot of one MDG — in the incremental
// scanner, the graph of one require-component of a package, cached by
// the content hashes of its files. Fragments are value copies: the
// graph they were taken from can keep evolving (or be dropped) without
// affecting them, and Stitch can combine fragments from different
// scans into one coherent graph.
type Fragment struct {
	nodes  []Node
	edges  []Edge
	maxLoc Loc
}

// SnapshotFragment captures g as an immutable fragment. Node metadata
// holding locations (call arguments, parameter lists, return
// locations) is deep-copied, so later mutation of g cannot alias into
// the fragment.
func SnapshotFragment(g *Graph) *Fragment {
	f := &Fragment{
		nodes: make([]Node, 0, g.numNodes),
		edges: g.Edges(),
	}
	for _, n := range g.Nodes() {
		c := *n
		if n.CallArgs != nil {
			c.CallArgs = make([][]Loc, len(n.CallArgs))
			for i, arg := range n.CallArgs {
				c.CallArgs[i] = append([]Loc(nil), arg...)
			}
		}
		c.ParamLocs = append([]Loc(nil), n.ParamLocs...)
		if n.Loc > f.maxLoc {
			f.maxLoc = n.Loc
		}
		f.nodes = append(f.nodes, c)
	}
	// Edges() shares backing arrays with g's adjacency lists only via
	// value copies of Edge (no pointers), so the slice itself is the
	// only thing to own.
	f.edges = append([]Edge(nil), f.edges...)
	return f
}

// NumNodes returns the fragment's node count.
func (f *Fragment) NumNodes() int { return len(f.nodes) }

// NumEdges returns the fragment's edge count.
func (f *Fragment) NumEdges() int { return len(f.edges) }

// Stitch combines fragments into one graph, renumbering locations so
// fragments never collide: fragment i's location l becomes l plus the
// running offset of the fragments before it. The per-fragment old→new
// location maps are returned so callers can translate cached
// fragment-local facts (function summaries, sources, witness paths)
// into the stitched graph. Stitching is deterministic in the fragment
// order given.
func Stitch(frags ...*Fragment) (*Graph, []map[Loc]Loc) {
	g := New()
	remaps := make([]map[Loc]Loc, len(frags))
	var offset Loc
	for i, f := range frags {
		remap := make(map[Loc]Loc, len(f.nodes))
		g.grow(f.maxLoc + offset)
		slab := make([]Node, len(f.nodes))
		shift := func(l Loc) Loc {
			if l == NoLoc {
				return NoLoc
			}
			return l + offset
		}
		for ni, n := range f.nodes {
			c := &slab[ni]
			*c = n // value copy; fragment stays immutable
			c.Loc = shift(n.Loc)
			if n.CallArgs != nil {
				c.CallArgs = make([][]Loc, len(n.CallArgs))
				for ai, arg := range n.CallArgs {
					c.CallArgs[ai] = make([]Loc, len(arg))
					for j, l := range arg {
						c.CallArgs[ai][j] = shift(l)
					}
				}
			}
			if n.ParamLocs != nil {
				c.ParamLocs = make([]Loc, len(n.ParamLocs))
				for j, l := range n.ParamLocs {
					c.ParamLocs[j] = shift(l)
				}
			}
			c.RetLoc = shift(n.RetLoc)
			g.place(c)
			remap[n.Loc] = c.Loc
		}
		for _, e := range f.edges {
			ne := Edge{From: shift(e.From), To: shift(e.To), Type: e.Type, Prop: e.Prop}
			if !g.HasEdge(ne) {
				g.link(ne)
			}
		}
		remaps[i] = remap
		offset += f.maxLoc
	}
	if g.next < offset {
		g.next = offset
	}
	g.sorted = nil
	return g, remaps
}
