package mdg

import (
	"bytes"
	"encoding/binary"
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

// sameNodes compares every node field of two graphs.
func sameNodes(t *testing.T, want, got *Graph) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("size %d/%d, want %d/%d", got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for _, a := range want.Nodes() {
		b := got.Node(a.Loc)
		if b == nil {
			t.Fatalf("node %v missing", a.Loc)
		}
		if a.Kind != b.Kind || a.Label != b.Label || a.Site != b.Site || a.Line != b.Line ||
			a.File != b.File || a.Source != b.Source || a.Exported != b.Exported ||
			a.CallName != b.CallName || a.FuncName != b.FuncName || a.RetLoc != b.RetLoc ||
			len(a.CallArgs) != len(b.CallArgs) || (a.CallArgs == nil) != (b.CallArgs == nil) ||
			len(a.ParamLocs) != len(b.ParamLocs) {
			t.Fatalf("node %v differs:\nwant %+v\ngot  %+v", a.Loc, *a, *b)
		}
		for i := range a.CallArgs {
			if len(a.CallArgs[i]) != len(b.CallArgs[i]) {
				t.Fatalf("node %v call arg %d differs", a.Loc, i)
			}
			for j := range a.CallArgs[i] {
				if a.CallArgs[i][j] != b.CallArgs[i][j] {
					t.Fatalf("node %v call arg %d differs", a.Loc, i)
				}
			}
		}
		for i := range a.ParamLocs {
			if a.ParamLocs[i] != b.ParamLocs[i] {
				t.Fatalf("node %v params differ", a.Loc)
			}
		}
	}
	if want.String() != got.String() {
		t.Fatal("edges differ")
	}
}

func TestFragmentCodecRoundTrip(t *testing.T) {
	g := buildCodecGraph()
	data := AppendGraph(nil, g)
	got := Acquire()
	if _, err := got.Stitch(data); err != nil {
		t.Fatalf("decode: %v", err)
	}
	sameNodes(t, g, got)
	if again := AppendGraph(nil, got); !bytes.Equal(data, again) {
		t.Fatalf("round trip changed the bytes:\n got %x\nwant %x", again, data)
	}
}

func TestFragmentCodecEmpty(t *testing.T) {
	data := AppendGraph(nil, New())
	got := Acquire()
	if _, err := got.Stitch(data); err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if got.NumNodes() != 0 || got.NumEdges() != 0 || !bytes.Equal(AppendGraph(nil, got), data) {
		t.Fatalf("empty round trip diverged: %d/%d", got.NumNodes(), got.NumEdges())
	}
}

// checkConsistent fails when a decoded graph holds a reference to a
// location that is not one of its nodes.
func checkConsistent(t *testing.T, what string, g *Graph) {
	t.Helper()
	ok := func(l Loc) bool { return l == NoLoc || g.Node(l) != nil }
	for _, n := range g.Nodes() {
		for _, arg := range n.CallArgs {
			for _, l := range arg {
				if !ok(l) {
					t.Fatalf("%s: dangling call argument %v", what, l)
				}
			}
		}
		for _, l := range n.ParamLocs {
			if !ok(l) {
				t.Fatalf("%s: dangling parameter %v", what, l)
			}
		}
		if !ok(n.RetLoc) {
			t.Fatalf("%s: dangling return %v", what, n.RetLoc)
		}
	}
	for _, e := range g.Edges() {
		if g.Node(e.From) == nil || g.Node(e.To) == nil {
			t.Fatalf("%s: dangling edge %v", what, e)
		}
	}
}

// Every single-byte corruption and every truncation of a valid
// encoding must either fail cleanly or decode to a graph without
// dangling references — never panic.
func TestFragmentCodecCorruptionNeverPanics(t *testing.T) {
	data := AppendGraph(nil, buildCodecGraph())
	try := func(what string, b []byte) {
		g := Acquire()
		if _, err := g.Stitch(b); err == nil {
			checkConsistent(t, what, g)
		}
		g.Release()
	}
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xA5
		try("corruption", mut)
	}
	for i := 0; i < len(data); i++ {
		try("truncation", data[:i])
	}
}

// encodeRaw writes a fragment encoding by hand: nodes carry only a
// location, edges only endpoints, so tests can describe graphs no
// Graph would hold.
func encodeRaw(locs []Loc, edges [][2]Loc, maxLoc Loc) []byte {
	buf := []byte{fragCodecVersion}
	buf = binary.AppendUvarint(buf, uint64(len(locs)))
	for _, l := range locs {
		buf = binary.AppendUvarint(buf, uint64(l))
		buf = append(buf, byte(KindObject))
		buf = AppendString(buf, "n")
		buf = append(buf, 0, 0)            // site, line
		buf = AppendString(buf, "")        // file
		buf = append(buf, 0)               // flags
		buf = AppendString(buf, "")        // call name
		buf = AppendString(buf, "")        // func name
		buf = AppendLocs(buf, nil)         // params
		buf = binary.AppendUvarint(buf, 0) // ret
	}
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	for _, e := range edges {
		buf = binary.AppendUvarint(buf, uint64(e[0]))
		buf = binary.AppendUvarint(buf, uint64(e[1]))
		buf = append(buf, byte(Dep))
		buf = AppendString(buf, "")
	}
	return binary.AppendUvarint(buf, uint64(maxLoc))
}

func TestFragmentCodecRejectsDanglingEdge(t *testing.T) {
	if _, err := Acquire().Stitch(encodeRaw([]Loc{1, 2}, [][2]Loc{{1, 2}}, 2)); err != nil {
		t.Fatalf("the well-formed control graph must decode: %v", err)
	}
	if _, err := Acquire().Stitch(encodeRaw([]Loc{1, 2}, [][2]Loc{{1, 9999}}, 2)); err == nil {
		t.Fatal("dangling edge must be rejected")
	}
}

// Graphs number their nodes densely from 1 and Stitch sizes its tables
// by location, so a fragment with a location past its node count is
// rejected rather than allowed to drive a huge allocation.
func TestFragmentCodecRejectsSparseLocations(t *testing.T) {
	_, err := Acquire().Stitch(encodeRaw([]Loc{1 << 40, 2}, [][2]Loc{{1 << 40, 2}}, 1<<40))
	if err == nil || !strings.Contains(err.Error(), "exceeds node count") {
		t.Fatalf("sparse locations must be rejected as such, got %v", err)
	}
	if _, err := Acquire().Stitch(encodeRaw([]Loc{1, 2}, nil, 3)); err == nil {
		t.Fatal("a maxLoc past the node count must be rejected")
	}
	if _, err := Acquire().Stitch(encodeRaw([]Loc{1, 1}, nil, 2)); err == nil {
		t.Fatal("a duplicate location must be rejected")
	}
}
