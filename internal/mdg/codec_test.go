package mdg

import (
	"reflect"
	"strings"
	"testing"
)

// buildCodecGraph constructs a graph exercising every node field the
// codec must carry: call nodes with argument lists, function nodes
// with parameter/return locations, sources, exports, property edges.
func buildCodecGraph() *Graph {
	g := New()
	g.SetCurrentFile("a.js")
	obj := g.Alloc(RoleObj, 1, 0, "", KindObject, "o", 10)
	p1 := g.Alloc(RoleParam, 2, 0, "", KindParam, "x", 11)
	p2 := g.Alloc(RoleParam, 3, 0, "", KindParam, "y", 11)
	ret := g.Alloc(RoleRet, 4, 0, "", KindObject, "ret", 12)
	g.SetCurrentFile("b.js")
	fn := g.Alloc(RoleFunc, 5, 0, "", KindFunc, "f", 11)
	call := g.Alloc(RoleCall, 6, 0, "", KindCall, "f()", 13)
	lit := g.Alloc(RoleLit, 7, 0, "", KindLiteral, "\"s\"", 14)

	fnode := g.Node(fn)
	fnode.FuncName = "f"
	fnode.ParamLocs = []Loc{p1, p2}
	fnode.RetLoc = ret
	fnode.Exported = true
	g.Node(p1).Source = true
	cnode := g.Node(call)
	cnode.CallName = "f"
	cnode.CallArgs = [][]Loc{{obj, lit}, nil, {p2}}

	g.AddDep(p1, ret)
	g.AddEdge(Edge{From: obj, To: lit, Type: Prop, Prop: "cmd"})
	g.AddEdge(Edge{From: obj, To: ret, Type: Ver, Prop: "out"})
	g.AddEdge(Edge{From: obj, To: p2, Type: PropStar})
	g.AddEdge(Edge{From: ret, To: obj, Type: VerStar})
	return g
}

func TestFragmentCodecRoundTrip(t *testing.T) {
	frag := SnapshotFragment(buildCodecGraph())
	data := EncodeFragment(frag)
	got, err := DecodeFragment(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(frag, got) {
		t.Fatalf("round trip diverged:\nwant %+v\ngot  %+v", frag, got)
	}
	// A decoded fragment must behave identically under Stitch.
	g1, _ := Stitch(frag)
	g2, _ := Stitch(got)
	if g1.String() != g2.String() {
		t.Fatal("stitched graphs diverge")
	}
}

func TestFragmentCodecEmpty(t *testing.T) {
	frag := SnapshotFragment(New())
	got, err := DecodeFragment(EncodeFragment(frag))
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if !reflect.DeepEqual(frag, got) {
		t.Fatalf("empty round trip diverged: %+v vs %+v", frag, got)
	}
}

// Every single-byte corruption and every truncation of a valid
// encoding must either fail cleanly or decode to a fragment that still
// passes validation — never panic, never produce a graph with dangling
// references.
func TestFragmentCodecCorruptionNeverPanics(t *testing.T) {
	data := EncodeFragment(SnapshotFragment(buildCodecGraph()))
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xA5
		f, err := DecodeFragment(mut)
		if err == nil {
			if verr := validateFragment(f); verr != nil {
				t.Fatalf("byte %d: decode accepted an inconsistent fragment: %v", i, verr)
			}
		}
	}
	for i := 0; i < len(data); i++ {
		if f, err := DecodeFragment(data[:i]); err == nil {
			if verr := validateFragment(f); verr != nil {
				t.Fatalf("truncation %d: inconsistent fragment: %v", i, verr)
			}
		}
	}
}

func TestFragmentCodecRejectsDanglingEdge(t *testing.T) {
	frag := SnapshotFragment(buildCodecGraph())
	bad := &Fragment{
		nodes:  append([]Node(nil), frag.nodes...),
		edges:  append(frag.edges, Edge{From: 1, To: 9999, Type: Dep}),
		maxLoc: 9999,
	}
	if _, err := DecodeFragment(EncodeFragment(bad)); err == nil {
		t.Fatal("dangling edge must be rejected")
	}
}

// Graphs number their nodes densely from 1 and Stitch sizes its tables
// by location, so a fragment whose maxLoc exceeds its node count is
// rejected rather than allowed to drive a huge allocation.
func TestFragmentCodecRejectsSparseLocations(t *testing.T) {
	frag := SnapshotFragment(buildCodecGraph())
	bad := &Fragment{
		nodes:  append([]Node(nil), frag.nodes...),
		edges:  frag.edges,
		maxLoc: 1 << 40,
	}
	bad.nodes[0].Loc = 1 << 40
	for i := range bad.edges {
		if bad.edges[i].From == frag.nodes[0].Loc {
			bad.edges[i].From = bad.nodes[0].Loc
		}
		if bad.edges[i].To == frag.nodes[0].Loc {
			bad.edges[i].To = bad.nodes[0].Loc
		}
	}
	_, err := DecodeFragment(EncodeFragment(bad))
	if err == nil || !strings.Contains(err.Error(), "exceeds node count") {
		t.Fatalf("sparse locations must be rejected as such, got %v", err)
	}
}
