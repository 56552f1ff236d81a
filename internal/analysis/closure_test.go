package analysis

import (
	"testing"

	"repro/internal/mdg"
)

// The two control-flow joins must join the whole scope chain: a branch
// or loop body inside a nested function that assigns a variable of an
// enclosing scope keeps both paths in that scope's binding.

func TestClosureIfJoinKeepsEnclosingBinding(t *testing.T) {
	res := analyzeSrc(t, `
var x = {};
function set(a, flag) { if (flag) { x = a; } else { x = 'pwd'; } }
`)
	a := res.Functions["set"].Params[0]
	got := res.Root.Get("x")
	if len(got) != 2 || !hasLoc(got, a) || !hasKind(res.Graph, got, mdg.KindLiteral) {
		t.Fatalf("x = %v, want the parameter a (o%d) and the literal 'pwd'", got, a)
	}
}

func TestClosureLoopJoinKeepsEnclosingBinding(t *testing.T) {
	res := analyzeSrc(t, `
var x = {};
function spin(n) { while (n > 0) { x = 'pwd'; n = n - 1; } }
`)
	got := res.Root.Get("x")
	if len(got) != 2 || !hasKind(res.Graph, got, mdg.KindObject) || !hasKind(res.Graph, got, mdg.KindLiteral) {
		t.Fatalf("x = %v, want the object from before the loop and the literal 'pwd'", got)
	}
}

func hasLoc(ls []mdg.Loc, l mdg.Loc) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}

func hasKind(g *mdg.Graph, ls []mdg.Loc, k mdg.NodeKind) bool {
	for _, l := range ls {
		if g.Node(l).Kind == k {
			return true
		}
	}
	return false
}
