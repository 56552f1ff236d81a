package mdg

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// PropTarget returns the first direct P(p) target of l, or NoLoc.
func (g *Graph) PropTarget(l Loc, p string) Loc {
	for _, e := range g.Out(l) {
		if e.Type == Prop && e.Prop == p {
			return e.To
		}
	}
	return NoLoc
}

// Leq reports ĝ1 ⊑ ĝ2: every edge of g is an edge of h.
func Leq(g, h *Graph) bool {
	for _, es := range g.out {
		for _, e := range es {
			if !h.HasEdge(e) {
				return false
			}
		}
	}
	return true
}

func newObj(g *Graph, name string, site int) Loc {
	return g.Alloc(RoleObj, site, 0, name, KindObject, name, site)
}

func TestAllocDeterministic(t *testing.T) {
	g := New()
	l1 := g.Alloc(RoleObj, 7, 0, "", KindObject, "x", 1)
	l2 := g.Alloc(RoleObj, 7, 0, "", KindObject, "x", 1)
	if l1 != l2 {
		t.Fatalf("same key allocated different locations: %d vs %d", l1, l2)
	}
	l3 := g.Alloc(RoleObj, 8, 0, "", KindObject, "x", 1)
	if l3 == l1 {
		t.Fatal("different site must allocate a new location")
	}
	if g.NumNodes() != 2 {
		t.Fatalf("nodes = %d, want 2", g.NumNodes())
	}
}

func TestNodesCacheInvalidation(t *testing.T) {
	g := New()
	newObj(g, "a", 1)
	first := g.Nodes()
	if len(first) != 1 {
		t.Fatalf("nodes = %d", len(first))
	}
	if &g.Nodes()[0] != &first[0] {
		t.Error("repeated Nodes() must return the cached slice")
	}
	newObj(g, "b", 2)
	second := g.Nodes()
	if len(second) != 2 {
		t.Fatalf("cache not invalidated: %d nodes", len(second))
	}
	for i := 1; i < len(second); i++ {
		if second[i-1].Loc >= second[i].Loc {
			t.Fatal("Nodes() not in ascending Loc order")
		}
	}
	calls := g.NodesOfKind(KindCall)
	if len(calls) != 0 {
		t.Fatalf("NodesOfKind(KindCall) = %d on object-only graph", len(calls))
	}
	if got := g.NodesOfKind(KindObject); len(got) != 2 {
		t.Fatalf("NodesOfKind(KindObject) = %d", len(got))
	}
}

func TestAddEdgeDedup(t *testing.T) {
	g := New()
	a := newObj(g, "a", 1)
	b := newObj(g, "b", 2)
	if !g.AddDep(a, b) {
		t.Fatal("first AddDep should report change")
	}
	if g.AddDep(a, b) {
		t.Fatal("duplicate AddDep should report no change")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

// A source past bigDegree out-edges de-duplicates through its edge
// set; insertion order and the adjacency lists are unaffected.
func TestAddEdgeDedupHighDegree(t *testing.T) {
	g := New()
	src := newObj(g, "src", 1)
	var want []Edge
	for i := 0; i < 3*bigDegree; i++ {
		dst := newObj(g, "dst", 2+i)
		e := Edge{From: src, To: dst, Type: Prop, Prop: "p"}
		if !g.AddEdge(e) {
			t.Fatalf("edge %d reported as present", i)
		}
		want = append(want, e)
	}
	for i, e := range want {
		if g.AddEdge(e) || !g.HasEdge(e) {
			t.Fatalf("edge %d: duplicate accepted or missing", i)
		}
		if in := g.In(e.To); len(in) != 1 || in[0] != e {
			t.Fatalf("edge %d: in-list %v", i, in)
		}
	}
	if g.HasEdge(Edge{From: src, To: want[0].To, Type: Dep}) {
		t.Fatal("an edge of another type must not match")
	}
	if g.NumEdges() != len(want) || !reflect.DeepEqual(g.Out(src), want) {
		t.Fatalf("out-list %d edges, want %d in insertion order", g.NumEdges(), len(want))
	}
}

func TestAddEdgeUnknownNodePanics(t *testing.T) {
	g := New()
	a := newObj(g, "a", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown node")
		}
	}()
	g.AddEdge(Edge{From: a, To: Loc(999), Type: Dep})
}

func TestPropTargetAndStarTargets(t *testing.T) {
	g := New()
	o := newObj(g, "o", 1)
	v := newObj(g, "v", 2)
	s := newObj(g, "s", 3)
	g.AddEdge(Edge{From: o, To: v, Type: Prop, Prop: "cmd"})
	g.AddEdge(Edge{From: o, To: s, Type: PropStar})
	if got := g.PropTarget(o, "cmd"); got != v {
		t.Errorf("PropTarget = %d, want %d", got, v)
	}
	if got := g.PropTarget(o, "other"); got != NoLoc {
		t.Errorf("PropTarget(other) = %d, want NoLoc", got)
	}
	st := g.StarTargets(o)
	if len(st) != 1 || st[0] != s {
		t.Errorf("StarTargets = %v", st)
	}
}

// TestLookupMotivatingExample reproduces the §2.2 line-7 lookup: reading
// `options.commit` where options has versions o5 →V(*) o6 →V(cmd) o7 must
// return the dynamic property value (may shadow commit) and lazily create
// `commit` on the initial version o5.
func TestLookupMotivatingExample(t *testing.T) {
	g := New()
	o5 := newObj(g, "o5", 5)
	o6 := newObj(g, "o6", 6)
	o7 := newObj(g, "o7", 7)
	o4 := newObj(g, "o4", 4) // url value stored via dynamic property
	o8 := newObj(g, "o8", 8) // cmd value
	g.AddEdge(Edge{From: o5, To: o6, Type: VerStar})
	g.AddEdge(Edge{From: o6, To: o7, Type: Ver, Prop: "cmd"})
	g.AddEdge(Edge{From: o6, To: o4, Type: PropStar})
	g.AddEdge(Edge{From: o7, To: o8, Type: Prop, Prop: "cmd"})

	// cmd resolves directly on o7.
	res := g.Lookup(o7, "cmd")
	if len(res.Values) != 1 || res.Values[0] != o8 || len(res.Oldest) != 0 {
		t.Fatalf("cmd lookup = %+v", res)
	}

	// commit walks the chain: picks up o4 (dynamic, may shadow) and
	// bottoms out at o5.
	res = g.Lookup(o7, "commit")
	if !hasLoc(res.Values, o4) {
		t.Errorf("commit lookup should include dynamic value o4: %+v", res)
	}
	if len(res.Oldest) != 1 || res.Oldest[0] != o5 {
		t.Errorf("oldest = %v, want [o5]", res.Oldest)
	}

	// AP lazily creates commit on o5 and returns both values.
	vals := g.AP(9, []Loc{o7}, "commit", 7)
	if len(vals) != 2 {
		t.Fatalf("AP values = %v", vals)
	}
	o9 := g.PropTarget(o5, "commit")
	if o9 == NoLoc {
		t.Fatal("AP should create commit property on the oldest version")
	}
	if !hasLoc(vals, o9) || !hasLoc(vals, o4) {
		t.Fatalf("AP values = %v, want {o9, o4}", vals)
	}

	// Second AP is idempotent.
	before := g.Snap()
	g.AP(9, []Loc{o7}, "commit", 7)
	if g.Snap() != before {
		t.Fatal("repeated AP must not grow the graph")
	}
}

func TestLookupShadowing(t *testing.T) {
	// Newest version defines p: older definitions are shadowed.
	g := New()
	v1 := newObj(g, "v1", 1)
	v2 := newObj(g, "v2", 2)
	old := newObj(g, "old", 3)
	cur := newObj(g, "cur", 4)
	g.AddEdge(Edge{From: v1, To: old, Type: Prop, Prop: "p"})
	g.AddEdge(Edge{From: v1, To: v2, Type: Ver, Prop: "p"})
	g.AddEdge(Edge{From: v2, To: cur, Type: Prop, Prop: "p"})
	res := g.Lookup(v2, "p")
	if len(res.Values) != 1 || res.Values[0] != cur {
		t.Fatalf("lookup = %+v, want only cur", res)
	}
}

func TestLookupCyclicVersionChain(t *testing.T) {
	// Loops produce cyclic version chains (§5.5); Lookup must terminate.
	g := New()
	a := newObj(g, "a", 1)
	b := newObj(g, "b", 2)
	g.AddEdge(Edge{From: a, To: b, Type: VerStar})
	g.AddEdge(Edge{From: b, To: a, Type: VerStar})
	res := g.Lookup(a, "q")
	_ = res // must not hang; both nodes are visited
}

func TestAPStar(t *testing.T) {
	g := New()
	o := newObj(g, "o", 1)
	dep := newObj(g, "dep", 2)
	vals := g.APStar(3, []Loc{o}, []Loc{dep}, 4)
	if len(vals) != 1 {
		t.Fatalf("vals = %v", vals)
	}
	star := vals[0]
	if !g.HasEdge(Edge{From: o, To: star, Type: PropStar}) {
		t.Error("missing P(*) edge")
	}
	if !g.HasEdge(Edge{From: dep, To: star, Type: Dep}) {
		t.Error("missing D edge from the property-name dependency")
	}
	// Second APStar with a new dependency reuses the property node.
	dep2 := newObj(g, "dep2", 5)
	vals2 := g.APStar(6, []Loc{o}, []Loc{dep2}, 7)
	if len(vals2) != 1 || vals2[0] != star {
		t.Fatalf("vals2 = %v, want reuse of %d", vals2, star)
	}
	if !g.HasEdge(Edge{From: dep2, To: star, Type: Dep}) {
		t.Error("missing D edge from second dependency")
	}
}

func TestNVCreatesVersionAndRewritesStore(t *testing.T) {
	g := New()
	o := newObj(g, "o", 1)
	st := NewStore(nil)
	st.SetLocal("x", []Loc{o})
	st.SetLocal("y", []Loc{o})
	nv := g.NV(2, []Loc{o}, "cmd", 3)
	st.ReplaceAll(map[Loc]Loc{o: nv})
	if nv == o {
		t.Fatal("NV should create a new version")
	}
	if !g.HasEdge(Edge{From: o, To: nv, Type: Ver, Prop: "cmd"}) {
		t.Error("missing V(cmd) edge")
	}
	// Both variables now point at the new version (§2.2 line 5).
	if got := st.Get("x"); len(got) != 1 || got[0] != nv {
		t.Errorf("x = %v", got)
	}
	if got := st.Get("y"); len(got) != 1 || got[0] != nv {
		t.Errorf("y = %v", got)
	}
}

func TestNVDeterministicPerSite(t *testing.T) {
	// Same site + same origin yields the same version (loop convergence).
	g := New()
	o := newObj(g, "o", 1)
	r1 := g.NV(2, []Loc{o}, "p", 3)
	r2 := g.NV(2, []Loc{o}, "p", 3)
	if r1 != r2 {
		t.Fatal("NV must be deterministic per (site, origin)")
	}
}

func TestNVStar(t *testing.T) {
	g := New()
	o := newObj(g, "o", 1)
	dep := newObj(g, "dep", 2)
	nv := g.NVStar(3, []Loc{o}, []Loc{dep}, 4)
	if !g.HasEdge(Edge{From: o, To: nv, Type: VerStar}) {
		t.Error("missing V(*) edge")
	}
	if !g.HasEdge(Edge{From: dep, To: nv, Type: Dep}) {
		t.Error("missing D edge onto the new version")
	}
}

func TestAllPropValues(t *testing.T) {
	g := New()
	v1 := newObj(g, "v1", 1)
	v2 := newObj(g, "v2", 2)
	pa := newObj(g, "pa", 3)
	pb := newObj(g, "pb", 4)
	g.AddEdge(Edge{From: v1, To: pa, Type: Prop, Prop: "a"})
	g.AddEdge(Edge{From: v1, To: v2, Type: Ver, Prop: "b"})
	g.AddEdge(Edge{From: v2, To: pb, Type: Prop, Prop: "b"})
	vals := g.AllPropValues(v2)
	if !hasLoc(vals, pa) || !hasLoc(vals, pb) {
		t.Fatalf("vals = %v", vals)
	}
}

func TestLeqLattice(t *testing.T) {
	g := New()
	a := newObj(g, "a", 1)
	b := newObj(g, "b", 2)
	h := New()
	ha := newObj(h, "a", 1)
	hb := newObj(h, "b", 2)
	if !Leq(g, h) || !Leq(h, g) {
		t.Fatal("empty-edge graphs should be mutually ⊑")
	}
	g.AddDep(a, b)
	if Leq(g, h) {
		t.Fatal("g has an edge h lacks")
	}
	h.AddDep(ha, hb)
	h.AddEdge(Edge{From: ha, To: hb, Type: Prop, Prop: "p"})
	if !Leq(g, h) {
		t.Fatal("g ⊑ h should hold")
	}
	if Leq(h, g) {
		t.Fatal("h ⋢ g")
	}
}

func TestEdgeLabels(t *testing.T) {
	cases := map[Edge]string{
		{Type: Dep}:               "D",
		{Type: Prop, Prop: "cmd"}: "P(cmd)",
		{Type: PropStar}:          "P(*)",
		{Type: Ver, Prop: "main"}: "V(main)",
		{Type: VerStar}:           "V(*)",
	}
	for e, want := range cases {
		if got := e.Label(); got != want {
			t.Errorf("Label(%v) = %q, want %q", e.Type, got, want)
		}
	}
}

func TestDOTAndString(t *testing.T) {
	g := New()
	a := newObj(g, "a", 1)
	b := newObj(g, "b", 2)
	g.AddDep(a, b)
	if !strings.Contains(g.DOT(), "digraph MDG") {
		t.Error("DOT output malformed")
	}
	if !strings.Contains(g.String(), "-D->") {
		t.Errorf("String output: %q", g.String())
	}
}

// Property: AP is monotone and idempotent — running it twice yields the
// same graph as running it once, and never removes edges.
func TestAPIdempotentQuick(t *testing.T) {
	f := func(sites []uint8) bool {
		g := New()
		base := newObj(g, "base", 0)
		locs := []Loc{base}
		for _, s := range sites {
			site := int(s%16) + 1
			vals := g.AP(site, locs, "p", 1)
			snap := g.Snap()
			vals2 := g.AP(site, locs, "p", 1)
			if g.Snap() != snap {
				return false
			}
			if len(vals) != len(vals2) {
				return false
			}
			locs = append(locs, vals...)
			if len(locs) > 12 {
				locs = locs[:12]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: edge insertion is monotone — NumEdges never decreases and
// Leq(before, after) always holds.
func TestMonotoneGrowthQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		g := New()
		var locs []Loc
		for i := 0; i < 8; i++ {
			locs = append(locs, newObj(g, "n", i))
		}
		prev := 0
		for _, op := range ops {
			from := locs[int(op)%len(locs)]
			to := locs[int(op>>4)%len(locs)]
			typ := EdgeType(int(op>>8) % 5)
			g.AddEdge(Edge{From: from, To: to, Type: typ, Prop: propFor(typ)})
			if g.NumEdges() < prev {
				return false
			}
			prev = g.NumEdges()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func propFor(t EdgeType) string {
	if t == Prop || t == Ver {
		return "p"
	}
	return ""
}

func hasLoc(ls []Loc, l Loc) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}
