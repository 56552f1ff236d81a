// Package mdg implements the Multiversion Dependency Graph (MDG) of the
// paper (§3.1): a single graph capturing the shape and evolution of
// objects over time together with the data dependencies between the
// values a program manipulates.
//
// Nodes are abstract locations representing objects, primitive values,
// functions and calls. Edges carry one of five labels:
//
//	D      dependency: the target is computed using the source
//	P(p)   known property: target is the value of property p of source
//	P(*)   unknown property: as P(p) with a statically unknown name
//	V(p)   version: target is a new version of source after writing p
//	V(*)   version: as V(p) with a statically unknown property name
//
// Allocation is site-keyed: the same (site, role, origin) triple always
// yields the same location, which keeps graphs finite and loops
// convergent (the paper's fixed-point summary representation).
package mdg

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/budget"
)

// Loc is an abstract location: the identity of an MDG node.
type Loc int

// NoLoc is the zero Loc, used as "absent".
const NoLoc Loc = 0

// NodeKind classifies MDG nodes.
type NodeKind int

// Node kinds.
const (
	KindObject  NodeKind = iota // objects and primitive values
	KindCall                    // function-call nodes (f_x in the paper)
	KindFunc                    // function values
	KindParam                   // function parameters (taint sources live here)
	KindLiteral                 // primitive literal pool nodes
)

func (k NodeKind) String() string {
	switch k {
	case KindObject:
		return "Object"
	case KindCall:
		return "Call"
	case KindFunc:
		return "Func"
	case KindParam:
		return "Param"
	case KindLiteral:
		return "Literal"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// EdgeType classifies MDG edges.
type EdgeType int

// Edge types.
const (
	Dep      EdgeType = iota // D
	Prop                     // P(p)
	PropStar                 // P(*)
	Ver                      // V(p)
	VerStar                  // V(*)
)

func (t EdgeType) String() string {
	switch t {
	case Dep:
		return "D"
	case Prop:
		return "P"
	case PropStar:
		return "P*"
	case Ver:
		return "V"
	case VerStar:
		return "V*"
	default:
		return fmt.Sprintf("EdgeType(%d)", int(t))
	}
}

// Edge is one labeled MDG edge. Prop is the property name for Prop/Ver
// edges and empty for Dep/PropStar/VerStar.
type Edge struct {
	From, To Loc
	Type     EdgeType
	Prop     string
}

// Label renders the edge label as in the paper (D, P(cmd), V(*), ...).
func (e Edge) Label() string {
	switch e.Type {
	case Dep:
		return "D"
	case Prop:
		return fmt.Sprintf("P(%s)", e.Prop)
	case PropStar:
		return "P(*)"
	case Ver:
		return fmt.Sprintf("V(%s)", e.Prop)
	case VerStar:
		return "V(*)"
	}
	return "?"
}

// Node is one MDG node.
type Node struct {
	Loc   Loc
	Kind  NodeKind
	Label string // variable hint, call name, function name, or literal text
	Site  int    // statement index that allocated the node (0 = none)
	Line  int    // source line of the allocating statement
	File  string // source file of the allocating statement

	// Source marks taint sources (parameters of exported functions).
	Source bool
	// Exported marks functions reachable from module.exports.
	Exported bool

	// Call metadata (KindCall only). CallArgs[i] holds the locations
	// that may flow into the i-th argument.
	CallName string
	CallArgs [][]Loc

	// Func metadata (KindFunc only): the function's parameter and
	// return locations, for call linking and queries.
	FuncName  string
	ParamLocs []Loc
	RetLoc    Loc
}

// Graph is a Multiversion Dependency Graph.
//
// Locations are dense: the analyzer and Stitch number nodes from 1
// (the codec rejects fragments that are not), so the node table and
// the adjacency lists are slices indexed by Loc. Edges are
// de-duplicated against the source's out-list; a source whose
// out-degree reaches bigDegree also gets a set, so high-degree nodes
// (long bindings on adversarial input) do not make insertion
// quadratic. A Graph is not safe for concurrent use: even the
// version-chain walks write its visit stamps.
//
// A graph is a recycled resource: Acquire takes one from a pool and
// Release hands it back, its storage kept for the next graph (see
// Release).
type Graph struct {
	nodes    []*Node  // by Loc; nodes[0] is always nil
	out, in  [][]Edge // by Loc
	big      map[Loc]map[Edge]struct{}
	numNodes int
	numEdges int
	next     Loc

	// chunks are the slabs new nodes are carved from, so node creation
	// does not allocate per node; chunks[cur] is the one being filled.
	// edgeChunk likewise holds the first slots of adjacency lists (see
	// appendEdge), and spill counts the adjacency slots the lists hold
	// past those, for Release's size cap.
	chunks    [][]Node
	cur       int
	edgeChunk []Edge
	spill     int
	// locs is the slab Stitch carves the nodes' location lists from.
	locs []Loc

	// alloc implements site-keyed deterministic allocation.
	alloc map[allocKey]Loc

	// stamp/epoch mark visited locations in the version-chain walks
	// (Lookup, AllPropValues, VersionClosure): a walk bumps epoch and
	// l is visited when stamp[l] == epoch. Walks do not nest.
	stamp []uint32
	epoch uint32

	// curFile annotates newly created nodes with their source file
	// (multi-module analysis); see SetCurrentFile.
	curFile string

	// sorted is the ascending-Loc node slice handed out by Nodes, valid
	// while it holds every node (nodes are never removed). Detection
	// backends iterate the frozen graph many times, so the scan must
	// not repeat per call.
	sorted []*Node

	// bud, when set, is charged for every node and edge created, so a
	// scan-wide MaxNodes/MaxEdges cap covers MDG construction. The
	// graph only records the charge; the analyzer's per-statement tick
	// notices the exceeded budget and aborts.
	bud *budget.Budget

	// pooled is set while the graph sits in the pool.
	pooled bool
}

// bigDegree is the out-degree from which a source's edges are also
// kept in a set for de-duplication.
const bigDegree = 32

// SetBudget charges subsequent node/edge creation against b (nil
// disables the accounting).
func (g *Graph) SetBudget(b *budget.Budget) { g.bud = b }

// SetCurrentFile sets the source-file annotation applied to nodes
// created from now on.
func (g *Graph) SetCurrentFile(file string) { g.curFile = file }

// Role is the statement role of an allocation key.
type Role uint8

// Allocation roles.
const (
	RoleGlobal    Role = iota // unknown global variable
	RoleModule                // external module object
	RoleLit                   // literal
	RoleBin                   // binary-operator result
	RoleUn                    // unary-operator result
	RoleObj                   // object allocation (and built-in results)
	RoleForIn                 // for-in/of loop variable
	RoleFunc                  // function value
	RoleParam                 // parameter object
	RoleThis                  // `this` of a function
	RoleRet                   // return value of a function
	RoleArguments             // `arguments` of a function
	RoleCall                  // call node
	RoleProp                  // lazily created static property
	RolePropStar              // lazily created dynamic property
	RoleVer                   // new version after a static update
	RoleVerStar               // new version after a dynamic update
)

type allocKey struct {
	role   Role
	site   int
	origin Loc
	prop   string
}

// New returns an empty MDG that no pool owns. A scan takes its graphs
// with Acquire instead.
func New() *Graph {
	return &Graph{
		nodes: make([]*Node, 1),
		out:   make([][]Edge, 1),
		in:    make([][]Edge, 1),
		alloc: make(map[allocKey]Loc),
	}
}

// graphPool holds released graphs.
var graphPool = sync.Pool{New: func() any { return New() }}

// maxPooled caps the locations, and the adjacency slots past each
// list's first two, that a released graph may have held for it to be
// pooled, so one huge package cannot pin memory.
const maxPooled = 1 << 14

// Acquire returns an empty MDG, recycled from a released graph when
// one is pooled. A recycled graph keeps its predecessors' storage, so
// it is already about the size the next build needs.
func Acquire() *Graph {
	g := graphPool.Get().(*Graph)
	g.pooled = false
	return g
}

// Release empties g and pools it for Acquire, keeping its storage. The
// caller owns g and must hold its last reference: nothing may read g,
// or a *Node or adjacency list taken from it, afterwards. A graph past
// maxPooled is dropped instead. Releasing a pooled graph again is a
// no-op.
func (g *Graph) Release() {
	if g.pooled || len(g.nodes) > maxPooled || g.spill > maxPooled {
		return
	}
	g.reset()
	g.pooled = true
	graphPool.Put(g)
}

// reset empties g, keeping its storage: the node chunks, the
// Loc-indexed tables with every adjacency list truncated in place, the
// cleared allocation map, the edge chunk, the visit stamps, the Nodes
// buffer and the location slab. The kept node and edge slots are zeroed, so nothing a
// previous graph referenced stays reachable through them.
func (g *Graph) reset() {
	for i := range g.chunks[:min(g.cur+1, len(g.chunks))] {
		clear(g.chunks[i])
		g.chunks[i] = g.chunks[i][:0]
	}
	g.cur = 0
	clear(g.nodes)
	g.nodes = g.nodes[:1]
	for l := range g.out {
		clear(g.out[l])
		g.out[l] = g.out[l][:0]
		clear(g.in[l])
		g.in[l] = g.in[l][:0]
	}
	g.out, g.in = g.out[:1], g.in[:1]
	clear(g.big)
	clear(g.alloc)
	g.sorted = g.sorted[:0]
	g.locs = g.locs[:0]
	g.numNodes, g.numEdges, g.next = 0, 0, NoLoc
	g.curFile, g.bud = "", nil
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return g.numNodes }

// NumEdges returns the number of edges in the graph.
func (g *Graph) NumEdges() int { return g.numEdges }

// Node returns the node at l, or nil.
func (g *Graph) Node(l Loc) *Node {
	if l <= 0 || int(l) >= len(g.nodes) {
		return nil
	}
	return g.nodes[l]
}

// Nodes returns all nodes in ascending Loc order. The slice is cached
// and shared between calls; creating a node invalidates it, and the
// next call rebuilds it in the same storage. Callers must not modify
// it.
func (g *Graph) Nodes() []*Node {
	if len(g.sorted) != g.numNodes {
		g.sorted = g.sorted[:0]
		for _, n := range g.nodes {
			if n != nil {
				g.sorted = append(g.sorted, n)
			}
		}
	}
	return g.sorted
}

// NodesOfKind returns the nodes of one kind in ascending Loc order.
func (g *Graph) NodesOfKind(kind NodeKind) []*Node {
	var out []*Node
	for _, n := range g.Nodes() {
		if n.Kind == kind {
			out = append(out, n)
		}
	}
	return out
}

// Edges returns all edges in a deterministic order: by source location,
// then insertion order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.numEdges)
	for _, es := range g.out {
		out = append(out, es...)
	}
	return out
}

// Out returns the outgoing edges of l.
func (g *Graph) Out(l Loc) []Edge {
	if l <= 0 || int(l) >= len(g.out) {
		return nil
	}
	return g.out[l]
}

// In returns the incoming edges of l.
func (g *Graph) In(l Loc) []Edge {
	if l <= 0 || int(l) >= len(g.in) {
		return nil
	}
	return g.in[l]
}

// grow extends the Loc-indexed tables to hold l.
func (g *Graph) grow(l Loc) {
	n := int(l) + 1
	if n <= len(g.nodes) {
		return
	}
	g.nodes = extend(g.nodes, n)
	g.out = extend(g.out, n)
	g.in = extend(g.in, n)
}

// extend sets s's length to n, reslicing into kept capacity before it
// grows s: past len(s), a released graph's node table is nil and its
// adjacency lists are empty lists that keep their storage.
func extend[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	s = s[:cap(s)]
	return append(s, make([]T, n-len(s))...)
}

// place stores n at n.Loc.
func (g *Graph) place(n *Node) {
	g.grow(n.Loc)
	g.nodes[n.Loc] = n
	g.numNodes++
}

// carve returns the next free node slot of the chunks, adding a chunk
// when every kept one is full.
func (g *Graph) carve() *Node {
	for g.cur < len(g.chunks) && len(g.chunks[g.cur]) == cap(g.chunks[g.cur]) {
		g.cur++
	}
	if g.cur == len(g.chunks) {
		// Chunks grow with the graph (4, 4, 4, 6, 9, ... up to 256
		// nodes), so small graphs waste little.
		g.chunks = append(g.chunks, make([]Node, 0, min(max(g.numNodes/2, 4), 256)))
	}
	c := &g.chunks[g.cur]
	*c = (*c)[:len(*c)+1]
	return &(*c)[len(*c)-1]
}

// fresh creates a brand-new node.
func (g *Graph) fresh(kind NodeKind, label string, site, line int) *Node {
	g.bud.AddNode() // cap recorded in the budget; the analyzer's tick aborts
	g.next++
	n := g.carve()
	*n = Node{Loc: g.next, Kind: kind, Label: label, Site: site, Line: line, File: g.curFile}
	g.place(n)
	return n
}

// Alloc returns the location for (role, site, origin, prop), creating a
// node on first use. Repeated calls with the same key return the same
// location — the allocation-site abstraction that keeps loops finite.
func (g *Graph) Alloc(role Role, site int, origin Loc, prop string, kind NodeKind, label string, line int) Loc {
	key := allocKey{role: role, site: site, origin: origin, prop: prop}
	if l, ok := g.alloc[key]; ok {
		return l
	}
	n := g.fresh(kind, label, site, line)
	g.alloc[key] = n.Loc
	return n.Loc
}

// AddEdge inserts e if not already present. It reports whether the
// graph changed.
func (g *Graph) AddEdge(e Edge) bool {
	if g.HasEdge(e) {
		return false
	}
	if g.Node(e.From) == nil || g.Node(e.To) == nil {
		// Internal invariant (callers only wire locations they
		// allocated); a violation is an analyzer bug, recovered at the
		// scanner's phase guard rather than killing the sweep.
		panic(fmt.Sprintf("mdg: edge %v references unknown node", e)) //lint:allow nakedpanic -- graph invariant; recovered at the scanner's phase guard
	}
	g.bud.AddEdge()
	g.link(e)
	return true
}

// link appends e, known to be new, to the adjacency lists.
func (g *Graph) link(e Edge) {
	out := g.appendEdge(g.out[e.From], e)
	g.out[e.From] = out
	if set := g.big[e.From]; set != nil {
		set[e] = struct{}{}
	} else if len(out) == bigDegree {
		if g.big == nil {
			g.big = make(map[Loc]map[Edge]struct{})
		}
		set := make(map[Edge]struct{}, 2*bigDegree)
		for _, o := range out {
			set[o] = struct{}{}
		}
		g.big[e.From] = set
	}
	g.in[e.To] = g.appendEdge(g.in[e.To], e)
	g.numEdges++
}

// appendEdge appends e to an adjacency list. Most lists hold one or two
// edges, so a list's first two slots are carved from a shared chunk
// (edgeChunk) instead of allocated per list; longer lists grow on the
// heap as usual, and spill counts what they grew by.
func (g *Graph) appendEdge(list []Edge, e Edge) []Edge {
	switch c := cap(list); {
	case c == 0:
		if len(g.edgeChunk)+2 > cap(g.edgeChunk) {
			g.edgeChunk = make([]Edge, 0, min(max(g.numEdges, 16), 256))
		}
		n := len(g.edgeChunk)
		g.edgeChunk = g.edgeChunk[:n+2]
		list = g.edgeChunk[n : n : n+2]
	case len(list) == c:
		list = append(list, e)
		g.spill += cap(list) - c
		return list
	}
	return append(list, e)
}

// HasEdge reports whether e is present.
func (g *Graph) HasEdge(e Edge) bool {
	if set := g.big[e.From]; set != nil {
		_, ok := set[e]
		return ok
	}
	for _, o := range g.Out(e.From) {
		if o == e {
			return true
		}
	}
	return false
}

// AddDep adds a dependency edge from → to.
func (g *Graph) AddDep(from, to Loc) bool {
	return g.AddEdge(Edge{From: from, To: to, Type: Dep})
}

// visitBegin starts a version-chain walk (see stamp).
func (g *Graph) visitBegin() {
	g.epoch++
	if g.epoch == 0 {
		clear(g.stamp)
		g.epoch = 1
	}
}

// visit marks l visited in the current walk, reporting whether it
// already was.
func (g *Graph) visit(l Loc) bool {
	if int(l) >= len(g.stamp) {
		g.stamp = append(g.stamp, make([]uint32, int(l)+1-len(g.stamp)+len(g.nodes))...)
	}
	if g.stamp[l] == g.epoch {
		return true
	}
	g.stamp[l] = g.epoch
	return false
}

// ---------------------------------------------------------------------------
// Graph operations from the paper (§3.1–3.2)
// ---------------------------------------------------------------------------

// StarTargets returns the direct P(*) targets of l.
func (g *Graph) StarTargets(l Loc) []Loc {
	var out []Loc
	for _, e := range g.Out(l) {
		if e.Type == PropStar {
			out = append(out, e.To)
		}
	}
	return out
}

// VersionSuccessors returns the locations v with l →V(...) v.
func (g *Graph) VersionSuccessors(l Loc) []Loc {
	var out []Loc
	for _, e := range g.Out(l) {
		if e.Type == Ver || e.Type == VerStar {
			out = append(out, e.To)
		}
	}
	return out
}

// VersionClosure returns l and every version successor transitively,
// in depth-first order.
func (g *Graph) VersionClosure(l Loc) []Loc {
	g.visitBegin()
	return g.closureWalk(l, nil)
}

func (g *Graph) closureWalk(v Loc, out []Loc) []Loc {
	if g.visit(v) {
		return out
	}
	out = append(out, v)
	for _, e := range g.Out(v) {
		if e.Type == Ver || e.Type == VerStar {
			out = g.closureWalk(e.To, out)
		}
	}
	return out
}

// LookupResult is the outcome of ĝ[l, p]: the found value locations and
// the oldest chain version (where a lazy property must be created when
// nothing was found).
type LookupResult struct {
	Values []Loc
	// Oldest is the oldest version reached without finding P(p); NoLoc
	// when the property was found statically on every chain path.
	Oldest []Loc
}

// Lookup computes ĝ[l, p] (§3.1): the abstract locations associated with
// the object represented by l via property p, walking the version chain
// backwards. Dynamic P(*) properties encountered along the way may
// shadow p, so their values are included. When a chain path reaches its
// oldest version without a static definition of p, that version is
// reported in Oldest so the caller can lazily extend it (AP).
func (g *Graph) Lookup(l Loc, p string) LookupResult {
	var res LookupResult
	g.visitBegin()
	g.lookupWalk(l, p, &res)
	res.Values = dedupe(res.Values)
	res.Oldest = dedupe(res.Oldest)
	return res
}

func (g *Graph) lookupWalk(v Loc, p string, res *LookupResult) {
	if g.visit(v) {
		return
	}
	out := g.Out(v)
	// A dynamic property on this version may hold (or shadow) p.
	for _, e := range out {
		if e.Type == PropStar {
			res.Values = append(res.Values, e.To)
		}
	}
	found := false
	for _, e := range out {
		if e.Type == Prop && e.Prop == p {
			res.Values = append(res.Values, e.To)
			found = true
		}
	}
	if found {
		return // defined here; older versions are shadowed
	}
	oldest := true
	for _, e := range g.In(v) {
		if e.Type == Ver || e.Type == VerStar {
			oldest = false
			g.lookupWalk(e.From, p, res)
		}
	}
	if oldest {
		res.Oldest = append(res.Oldest, v)
	}
}

// AllPropValues returns the values of every property (static and
// dynamic) reachable along l's version chain; used for dynamic lookups
// x := e1[e2] where any property may be read.
func (g *Graph) AllPropValues(l Loc) []Loc {
	g.visitBegin()
	return dedupe(g.propValuesWalk(l, nil))
}

func (g *Graph) propValuesWalk(v Loc, out []Loc) []Loc {
	if g.visit(v) {
		return out
	}
	for _, e := range g.Out(v) {
		if e.Type == Prop || e.Type == PropStar {
			out = append(out, e.To)
		}
	}
	for _, e := range g.In(v) {
		if e.Type == Ver || e.Type == VerStar {
			out = g.propValuesWalk(e.From, out)
		}
	}
	return out
}

// AP implements AP_i(ĝ, L, p) (§3.2): extends each object in L with
// property p unless already defined along its chain, allocating the
// property node at site i. It returns the value locations of p for
// every object in L after the extension.
func (g *Graph) AP(site int, L []Loc, p string, line int) []Loc {
	var values []Loc
	for _, l := range L {
		res := g.Lookup(l, p)
		values = append(values, res.Values...)
		for _, oldest := range res.Oldest {
			// Site-keyed: all chains extended at this site share the
			// node (the paper's cyclic summary representation).
			nl := g.Alloc(RoleProp, site, 0, p, KindObject, p, line)
			if nl != oldest {
				g.AddEdge(Edge{From: oldest, To: nl, Type: Prop, Prop: p})
			}
			values = append(values, nl)
		}
	}
	return dedupe(values)
}

// APStar implements AP*_i(ĝ, L1, Lp): extends each object in L1 with an
// unknown property whose name depends on the locations in Lp. If an
// object already has a P(*) edge, the dependencies are added to the
// existing property node. Returns the dynamic property value locations.
func (g *Graph) APStar(site int, L1, Lp []Loc, line int) []Loc {
	var values []Loc
	for _, l := range L1 {
		stars := g.StarTargets(l)
		if len(stars) == 0 {
			nl := g.Alloc(RolePropStar, site, 0, "*", KindObject, "*", line)
			if nl == l {
				continue
			}
			g.AddEdge(Edge{From: l, To: nl, Type: PropStar})
			stars = []Loc{nl}
		}
		for _, s := range stars {
			for _, lp := range Lp {
				g.AddDep(lp, s)
			}
			values = append(values, s)
		}
	}
	return dedupe(values)
}

// NV implements NV_i(ĝ, ρ̂, L1, p): creates the new version of the
// objects in L1 due to an assignment of property p at site i, linking
// old → new with V(p), and returns it (NoLoc when L1 is empty). The
// allocation is site-keyed with no origin, so every object updated at
// this site maps to the same new-version node — the finite cyclic
// representation of loops (§5.5). The caller rewrites the store,
// replacing every location of L1 by the new version.
func (g *Graph) NV(site int, L1 []Loc, p string, line int) Loc {
	nl := NoLoc
	for _, l := range L1 {
		if nl == NoLoc {
			nl = g.Alloc(RoleVer, site, 0, p, KindObject, g.labelOf(l), line)
		}
		if nl != l {
			g.AddEdge(Edge{From: l, To: nl, Type: Ver, Prop: p})
		}
	}
	return nl
}

// NVStar implements NV*_i(ĝ, ρ̂, L1, Lp): like NV for a dynamically
// named property; the new version depends on all locations in Lp.
func (g *Graph) NVStar(site int, L1, Lp []Loc, line int) Loc {
	nl := NoLoc
	for _, l := range L1 {
		if nl == NoLoc {
			nl = g.Alloc(RoleVerStar, site, 0, "*", KindObject, g.labelOf(l), line)
		}
		if nl != l {
			g.AddEdge(Edge{From: l, To: nl, Type: VerStar})
		}
		for _, lp := range Lp {
			g.AddDep(lp, nl)
		}
	}
	return nl
}

func (g *Graph) labelOf(l Loc) string {
	if n := g.Node(l); n != nil {
		return n.Label
	}
	return ""
}

// ---------------------------------------------------------------------------
// Lattice structure (§3.1): MDGs ordered by edge-set inclusion, so a
// monotone graph changes exactly when its size does.
// ---------------------------------------------------------------------------

// Snapshot captures the graph size; two equal snapshots on a monotone
// graph mean no change happened in between (used by fixpoints).
type Snapshot struct {
	Nodes, Edges int
}

// Snap returns the current size snapshot.
func (g *Graph) Snap() Snapshot { return Snapshot{Nodes: g.numNodes, Edges: g.numEdges} }

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

// String renders the graph compactly: one edge per line, sorted.
func (g *Graph) String() string {
	var lines []string
	for _, e := range g.Edges() {
		lines = append(lines, fmt.Sprintf("o%d -%s-> o%d", e.From, e.Label(), e.To))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// DOT renders the graph in Graphviz format.
func (g *Graph) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph MDG {\n  rankdir=LR;\n")
	for _, n := range g.Nodes() {
		shape := "ellipse"
		if n.Kind == KindCall {
			shape = "box"
		}
		extra := ""
		if n.Source {
			extra = ", color=red"
		}
		fmt.Fprintf(&sb, "  n%d [label=%q, shape=%s%s];\n", n.Loc,
			fmt.Sprintf("o%d %s", n.Loc, n.Label), shape, extra)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "  n%d -> n%d [label=%q];\n", e.From, e.To, e.Label())
	}
	sb.WriteString("}\n")
	return sb.String()
}

// dedupe drops repeated locations in place, keeping first occurrences
// in order.
func dedupe(ls []Loc) []Loc {
	if len(ls) < 2 {
		return ls
	}
	seen := make(map[Loc]struct{}, len(ls))
	out := ls[:0]
	for _, l := range ls {
		if _, ok := seen[l]; !ok {
			seen[l] = struct{}{}
			out = append(out, l)
		}
	}
	return out
}
