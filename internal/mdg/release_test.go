package mdg

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/budget"
)

// buildInto fills g with n nodes in file tag: a hub whose out-degree
// passes bigDegree, a version chain walked by Lookup, call and function
// metadata on every tenth node, and the Nodes buffer taken, charged to
// a budget of its own.
func buildInto(g *Graph, tag string, n int) {
	g.SetBudget(budget.New(budget.Limits{}))
	g.SetCurrentFile(tag + ".js")
	hub := g.Alloc(RoleObj, 1, 0, "", KindObject, "hub", 1)
	prev := hub
	for i := 2; i <= n; i++ {
		l := g.Alloc(RoleObj, i, 0, tag, KindObject, fmt.Sprint(tag, i), i)
		g.AddDep(hub, l)
		g.AddEdge(Edge{From: prev, To: l, Type: Ver, Prop: tag})
		if i%10 == 0 {
			nd := g.Node(l)
			nd.CallArgs = [][]Loc{{prev}}
			nd.ParamLocs = []Loc{hub}
		}
		prev = l
	}
	g.Lookup(prev, "q")
	g.Nodes()
}

// render is everything a reader of g can observe.
func render(g *Graph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	for _, n := range g.Nodes() {
		fmt.Fprintf(&sb, "%+v in=%v\n", *n, g.In(n.Loc))
	}
	sb.WriteString(g.String())
	// The next allocation numbers its node after every existing one.
	fmt.Fprintf(&sb, "\nnext %v", g.Alloc(RoleObj, 1<<20, 0, "", KindObject, "next", 0))
	return sb.String()
}

// A reset graph must build exactly what a new one builds, whether the
// graph before it was larger or smaller.
func TestResetGraphBuildsLikeNew(t *testing.T) {
	for _, sz := range [][2]int{{80, 12}, {12, 80}, {700, 700}, {3, 1}} {
		g := New()
		buildInto(g, "a", sz[0])
		g.reset()
		buildInto(g, "b", sz[1])
		want := New()
		buildInto(want, "b", sz[1])
		if got, w := render(g), render(want); got != w {
			t.Errorf("%d then %d nodes: the reset graph differs from a new one\n got %s\nwant %s", sz[0], sz[1], got, w)
		}
	}
}

// reset keeps the storage and zeroes every kept slot that held node or
// edge data, so a pooled graph pins nothing of the scan that built it.
func TestResetKeepsStorageZeroed(t *testing.T) {
	g := New()
	buildInto(g, "a", 700)
	nodeCap, chunks := cap(g.nodes), len(g.chunks)
	g.reset()
	if g.numNodes != 0 || g.numEdges != 0 || g.next != NoLoc || g.curFile != "" || g.bud != nil {
		t.Errorf("counters or annotations survive: %d nodes, %d edges, next %v, file %q, budget %v",
			g.numNodes, g.numEdges, g.next, g.curFile, g.bud)
	}
	if len(g.nodes) != 1 || len(g.out) != 1 || len(g.in) != 1 || cap(g.nodes) != nodeCap {
		t.Errorf("tables: len %d/%d/%d, node capacity %d (was %d)", len(g.nodes), len(g.out), len(g.in), cap(g.nodes), nodeCap)
	}
	for l, n := range g.nodes[:cap(g.nodes)] {
		if n != nil {
			t.Fatalf("node slot %d survives", l)
		}
	}
	for _, tab := range [][][]Edge{g.out, g.in} {
		for l, es := range tab[:cap(tab)] {
			if len(es) != 0 {
				t.Fatalf("adjacency list %d keeps %d edges", l, len(es))
			}
			for _, e := range es[:cap(es)] {
				if e != (Edge{}) {
					t.Fatalf("adjacency list %d keeps edge %v in its storage", l, e)
				}
			}
		}
	}
	if len(g.chunks) != chunks || g.cur != 0 {
		t.Errorf("chunks: %d kept of %d, current %d", len(g.chunks), chunks, g.cur)
	}
	for i, c := range g.chunks {
		if len(c) != 0 {
			t.Fatalf("chunk %d keeps %d nodes", i, len(c))
		}
		for j := range c[:cap(c)] {
			if !reflect.ValueOf(c[:cap(c)][j]).IsZero() {
				t.Fatalf("chunk %d slot %d keeps node data", i, j)
			}
		}
	}
	if len(g.alloc) != 0 || len(g.big) != 0 || len(g.sorted) != 0 {
		t.Errorf("maps or buffer survive: alloc %d, big %d, sorted %d", len(g.alloc), len(g.big), len(g.sorted))
	}
}

// Release pools a graph once and drops one past maxPooled.
func TestReleasePoolsOnceWithinCap(t *testing.T) {
	g := New()
	buildInto(g, "a", 10)
	g.Release()
	if !g.pooled || g.NumNodes() != 0 {
		t.Fatalf("released graph: pooled %v, %d nodes", g.pooled, g.NumNodes())
	}
	g.Release() // a second release of a pooled graph is a no-op
	big := New()
	buildInto(big, "big", maxPooled+1)
	big.Release()
	if big.pooled || big.NumNodes() != maxPooled+1 {
		t.Fatalf("graph past maxPooled: pooled %v, %d nodes", big.pooled, big.NumNodes())
	}
}
