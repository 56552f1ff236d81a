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

// Shift moves a fragment-local location by a stitch offset (see
// Stitch), keeping NoLoc absent.
func (l Loc) Shift(offset Loc) Loc {
	if l == NoLoc {
		return NoLoc
	}
	return l + offset
}

// Stitch combines fragments into one acquired graph (see Acquire),
// renumbering locations so fragments never collide: fragment i's
// location l becomes l.Shift(offsets[i]), offsets[i] being the location
// count of the fragments before it. Callers translate cached
// fragment-local facts (function summaries, sources, witness paths)
// into the stitched graph the same way. Stitching is deterministic in
// the fragment order given.
func Stitch(frags ...*Fragment) (*Graph, []Loc) {
	g := Acquire()
	offsets := make([]Loc, len(frags))
	var offset Loc
	for i, f := range frags {
		offsets[i] = offset
		g.grow(f.maxLoc + offset)
		for _, n := range f.nodes {
			c := g.carve()
			*c = n // value copy; fragment stays immutable
			c.Loc = n.Loc.Shift(offset)
			if n.CallArgs != nil {
				c.CallArgs = make([][]Loc, len(n.CallArgs))
				for ai, arg := range n.CallArgs {
					c.CallArgs[ai] = make([]Loc, len(arg))
					for j, l := range arg {
						c.CallArgs[ai][j] = l.Shift(offset)
					}
				}
			}
			if n.ParamLocs != nil {
				c.ParamLocs = make([]Loc, len(n.ParamLocs))
				for j, l := range n.ParamLocs {
					c.ParamLocs[j] = l.Shift(offset)
				}
			}
			c.RetLoc = n.RetLoc.Shift(offset)
			g.place(c)
		}
		for _, e := range f.edges {
			ne := Edge{From: e.From.Shift(offset), To: e.To.Shift(offset), Type: e.Type, Prop: e.Prop}
			if !g.HasEdge(ne) {
				g.link(ne)
			}
		}
		offset += f.maxLoc
	}
	if g.next < offset {
		g.next = offset
	}
	return g, offsets
}
