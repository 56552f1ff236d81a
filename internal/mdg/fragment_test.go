package mdg

import (
	"bytes"
	"testing"
)

// buildSample constructs a small graph exercising every node kind and
// edge type, with location-bearing metadata on call and func nodes.
func buildSample(tag string) *Graph {
	g := New()
	g.SetCurrentFile(tag + ".js")
	obj := g.Alloc(RoleObj, 1, 0, "", KindObject, "o", 1)
	fn := g.Alloc(RoleFunc, 2, 0, "", KindFunc, "f", 2)
	param := g.Alloc(RoleParam, 3, 0, "", KindParam, "p", 2)
	call := g.Alloc(RoleCall, 4, 0, "", KindCall, "f()", 3)
	lit := g.Alloc(RoleLit, 5, 0, "", KindLiteral, "\"x\"", 3)
	fnode := g.Node(fn)
	fnode.FuncName = "f"
	fnode.ParamLocs = []Loc{param}
	fnode.RetLoc = obj
	cnode := g.Node(call)
	cnode.CallName = "f"
	cnode.CallArgs = [][]Loc{{lit, param}}
	g.AddEdge(Edge{From: param, To: call, Type: Dep})
	g.AddEdge(Edge{From: obj, To: lit, Type: Prop, Prop: "k"})
	g.AddEdge(Edge{From: obj, To: param, Type: PropStar})
	g.AddEdge(Edge{From: obj, To: call, Type: Ver, Prop: "k"})
	g.AddEdge(Edge{From: obj, To: fn, Type: VerStar})
	return g
}

// stitch decodes encoded fragments into one acquired graph, returning
// each fragment's offset.
func stitch(t *testing.T, encs ...[]byte) (*Graph, []Loc) {
	t.Helper()
	g := Acquire()
	offsets := make([]Loc, len(encs))
	for i, enc := range encs {
		off, err := g.Stitch(enc)
		if err != nil {
			t.Fatalf("stitch fragment %d: %v", i, err)
		}
		offsets[i] = off
	}
	return g, offsets
}

// A stitch of a single fragment must reproduce the original graph
// exactly (locations included, since the first fragment's offset is
// zero).
func TestStitchSingleFragmentIdentity(t *testing.T) {
	g := buildSample("a")
	st, offsets := stitch(t, AppendGraph(nil, g))
	if st.String() != g.String() {
		t.Fatalf("stitched graph differs:\n%s\n--- want ---\n%s", st.String(), g.String())
	}
	if st.NumNodes() != g.NumNodes() || st.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", st.NumNodes(), st.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	if offsets[0] != NoLoc {
		t.Fatalf("single-fragment stitch renumbers by %v", offsets[0])
	}
	for _, a := range g.Nodes() {
		b := st.Node(a.Loc)
		if a.Kind != b.Kind || a.Label != b.Label || a.File != b.File || a.Line != b.Line {
			t.Fatalf("node %v metadata differs", a.Loc)
		}
	}
}

// An encoding is a value: growing or mutating the source graph after
// AppendGraph must not leak into what a later Stitch decodes.
func TestFragmentIsImmutableSnapshot(t *testing.T) {
	g := buildSample("a")
	enc := AppendGraph(nil, g)
	n0, e0 := g.NumNodes(), g.NumEdges()
	// Grow the source graph and mutate shared-looking metadata.
	extra := g.Alloc(RoleObj, 99, 0, "", KindObject, "late", 9)
	g.AddDep(extra, Loc(1))
	for _, n := range g.Nodes() {
		if n.Kind == KindCall && len(n.CallArgs) > 0 {
			n.CallArgs[0][0] = extra
		}
	}
	st, _ := stitch(t, enc)
	if st.NumNodes() != n0 || st.NumEdges() != e0 {
		t.Fatalf("encoding grew with source graph: %d/%d vs %d/%d", st.NumNodes(), st.NumEdges(), n0, e0)
	}
	for _, n := range st.NodesOfKind(KindCall) {
		for _, arg := range n.CallArgs {
			for _, l := range arg {
				if l == extra {
					t.Fatalf("decoded call args alias the mutated source graph")
				}
			}
		}
	}
}

// Encoding is deterministic: the same graph encodes to the same bytes,
// and a graph decoded from them encodes back to them.
func TestGraphEncodingDeterministic(t *testing.T) {
	enc := AppendGraph(nil, buildSample("a"))
	if again := AppendGraph(nil, buildSample("a")); !bytes.Equal(enc, again) {
		t.Fatal("equal graphs encode differently")
	}
	st, _ := stitch(t, enc)
	if again := AppendGraph(nil, st); !bytes.Equal(enc, again) {
		t.Fatalf("decode+encode changed the bytes:\n got %x\nwant %x", again, enc)
	}
}

// Stitching two fragments must keep them disjoint, preserve all edges,
// and shift every location-bearing field consistently.
func TestStitchTwoFragmentsDisjoint(t *testing.T) {
	ga, gb := buildSample("a"), buildSample("b")
	ea, eb := AppendGraph(nil, ga), AppendGraph(nil, gb)
	st, offsets := stitch(t, ea, eb)
	if st.NumNodes() != ga.NumNodes()+gb.NumNodes() {
		t.Fatalf("node count %d, want %d", st.NumNodes(), ga.NumNodes()+gb.NumNodes())
	}
	if st.NumEdges() != ga.NumEdges()+gb.NumEdges() {
		t.Fatalf("edge count %d, want %d", st.NumEdges(), ga.NumEdges()+gb.NumEdges())
	}
	seen := map[Loc]bool{}
	for i, g := range []*Graph{ga, gb} {
		for _, n := range g.Nodes() {
			nw := n.Loc.Shift(offsets[i])
			if seen[nw] {
				t.Fatalf("fragment %d maps onto an occupied location %v", i, nw)
			}
			seen[nw] = true
			if st.Node(nw) == nil {
				t.Fatalf("shifted location %v missing from stitched graph", nw)
			}
		}
	}
	// Second fragment's metadata must point inside its own image.
	for _, a := range gb.Nodes() {
		b := st.Node(a.Loc.Shift(offsets[1]))
		if a.Kind != b.Kind || a.File != b.File {
			t.Fatalf("fragment-b node %v metadata differs", a.Loc)
		}
		if a.Kind == KindFunc {
			if len(a.ParamLocs) != len(b.ParamLocs) {
				t.Fatalf("param count differs")
			}
			for j := range a.ParamLocs {
				if a.ParamLocs[j].Shift(offsets[1]) != b.ParamLocs[j] {
					t.Fatalf("param loc not shifted consistently")
				}
			}
			if a.RetLoc.Shift(offsets[1]) != b.RetLoc {
				t.Fatalf("ret loc not shifted consistently")
			}
		}
	}
	// Determinism: stitching the same fragments again yields the same
	// rendering.
	st2, _ := stitch(t, ea, eb)
	if st.String() != st2.String() {
		t.Fatalf("stitch is not deterministic")
	}
}

// Graph operations (version-chain lookup) must behave identically on
// the stitched image of a fragment.
func TestStitchPreservesLookup(t *testing.T) {
	g := New()
	o := g.Alloc(RoleObj, 1, 0, "", KindObject, "o", 1)
	v := g.Alloc(RoleVer, 2, 0, "p", KindObject, "o", 2)
	val := g.Alloc(RoleLit, 3, 0, "", KindLiteral, "1", 2)
	g.AddEdge(Edge{From: o, To: v, Type: Ver, Prop: "p"})
	g.AddEdge(Edge{From: v, To: val, Type: Prop, Prop: "p"})

	pad := buildSample("pad") // force a nonzero offset for g's image
	st, offsets := stitch(t, AppendGraph(nil, pad), AppendGraph(nil, g))
	res := st.Lookup(v.Shift(offsets[1]), "p")
	if len(res.Values) != 1 || res.Values[0] != val.Shift(offsets[1]) {
		t.Fatalf("stitched lookup = %v, want [%v]", res.Values, val.Shift(offsets[1]))
	}
}
