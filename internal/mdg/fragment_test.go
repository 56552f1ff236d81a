package mdg

import "testing"

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

// A stitch of a single fragment must reproduce the original graph
// exactly (locations included, since the first fragment's offset is
// zero).
func TestStitchSingleFragmentIdentity(t *testing.T) {
	g := buildSample("a")
	f := SnapshotFragment(g)
	st, remaps := Stitch(f)
	if st.String() != g.String() {
		t.Fatalf("stitched graph differs:\n%s\n--- want ---\n%s", st.String(), g.String())
	}
	if st.NumNodes() != g.NumNodes() || st.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", st.NumNodes(), st.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for old, nw := range remaps[0] {
		if old != nw {
			t.Fatalf("single-fragment stitch renumbered %v -> %v", old, nw)
		}
		a, b := g.Node(old), st.Node(nw)
		if a.Kind != b.Kind || a.Label != b.Label || a.File != b.File || a.Line != b.Line {
			t.Fatalf("node %v metadata differs", old)
		}
	}
}

// Fragments must be value snapshots: mutating the source graph after
// SnapshotFragment must not leak into the fragment.
func TestFragmentIsImmutableSnapshot(t *testing.T) {
	g := buildSample("a")
	f := SnapshotFragment(g)
	n0, e0 := f.NumNodes(), f.NumEdges()
	// Grow the source graph and mutate shared-looking metadata.
	extra := g.Alloc(RoleObj, 99, 0, "", KindObject, "late", 9)
	g.AddDep(extra, Loc(1))
	for _, n := range g.Nodes() {
		if n.Kind == KindCall && len(n.CallArgs) > 0 {
			n.CallArgs[0][0] = extra
		}
	}
	if f.NumNodes() != n0 || f.NumEdges() != e0 {
		t.Fatalf("fragment grew with source graph: %d/%d vs %d/%d", f.NumNodes(), f.NumEdges(), n0, e0)
	}
	st, _ := Stitch(f)
	for _, n := range st.NodesOfKind(KindCall) {
		for _, arg := range n.CallArgs {
			for _, l := range arg {
				if l == extra {
					t.Fatalf("fragment call args alias the mutated source graph")
				}
			}
		}
	}
}

// Stitching two fragments must keep them disjoint, preserve all edges,
// and remap every location-bearing field consistently.
func TestStitchTwoFragmentsDisjoint(t *testing.T) {
	ga, gb := buildSample("a"), buildSample("b")
	fa, fb := SnapshotFragment(ga), SnapshotFragment(gb)
	st, remaps := Stitch(fa, fb)
	if st.NumNodes() != fa.NumNodes()+fb.NumNodes() {
		t.Fatalf("node count %d, want %d", st.NumNodes(), fa.NumNodes()+fb.NumNodes())
	}
	if st.NumEdges() != fa.NumEdges()+fb.NumEdges() {
		t.Fatalf("edge count %d, want %d", st.NumEdges(), fa.NumEdges()+fb.NumEdges())
	}
	seen := map[Loc]bool{}
	for i, remap := range remaps {
		for _, nw := range remap {
			if seen[nw] {
				t.Fatalf("fragment %d maps onto an occupied location %v", i, nw)
			}
			seen[nw] = true
			if st.Node(nw) == nil {
				t.Fatalf("remap target %v missing from stitched graph", nw)
			}
		}
	}
	// Second fragment's metadata must point inside its own image.
	for old, nw := range remaps[1] {
		a, b := gb.Node(old), st.Node(nw)
		if a.Kind != b.Kind || a.File != b.File {
			t.Fatalf("fragment-b node %v metadata differs", old)
		}
		if a.Kind == KindFunc {
			if len(a.ParamLocs) != len(b.ParamLocs) {
				t.Fatalf("param count differs")
			}
			for j := range a.ParamLocs {
				if remaps[1][a.ParamLocs[j]] != b.ParamLocs[j] {
					t.Fatalf("param loc not remapped consistently")
				}
			}
			if remaps[1][a.RetLoc] != b.RetLoc {
				t.Fatalf("ret loc not remapped consistently")
			}
		}
	}
	// Determinism: stitching the same fragments again yields the same
	// rendering.
	st2, _ := Stitch(fa, fb)
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
	st, remaps := Stitch(SnapshotFragment(pad), SnapshotFragment(g))
	res := st.Lookup(remaps[1][v], "p")
	if len(res.Values) != 1 || res.Values[0] != remaps[1][val] {
		t.Fatalf("stitched lookup = %v, want [%v]", res.Values, remaps[1][val])
	}
}
