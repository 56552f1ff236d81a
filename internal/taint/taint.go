// Package taint is the native detection backend: a static dataflow
// pass that computes sanitizer-aware taint facts directly on the MDG
// produced by the analysis, without loading it into the graph
// database. Where the query backend (internal/queries) answers each
// Table 2 query with a per-(source,sink) DFS, this pass runs ONE
// worklist fixpoint per package that propagates per-root taint bitsets
// along D/P/V edges and then reads every detection answer off the
// computed facts.
//
// The UntaintedPath condition of Table 1 — a V(p) edge followed later
// by a P(p) edge means the tainted property was overwritten — is part
// of the dataflow state: facts are keyed by (node, written-set), where
// the written-set is the interned set of properties version-written
// along the way. This preserves TaintPath semantics exactly rather
// than approximating them; the state space is the same one the query
// engine's memoized DFS explores.
//
// Witness paths are recovered from predecessor edges recorded the
// first time a root's bit reaches a state, so no post-hoc search is
// needed to report a finding.
package taint

import (
	"math/bits"
	"sync"

	"repro/internal/analysis"
	"repro/internal/budget"
	"repro/internal/mdg"
	"repro/internal/queries"
)

// wsID is an interned written-property set.
type wsID uint32

// state is one dataflow fact key: an MDG node plus the set of
// properties that were version-written along the paths reaching it.
type state struct {
	loc mdg.Loc
	ws  wsID
}

// predKey addresses the predecessor of one root's bit at one state.
type predKey struct {
	st  state
	bit int
}

// Engine holds the fixpoint result for one analyzed package. Build it
// with NewEngineBudget (which runs the fixpoint eagerly), then run
// Detect, then Release.
type Engine struct {
	res *analysis.Result
	cfg *queries.Config

	maxHops int
	words   int

	// tables are the engine's working tables, pooled between engines
	// (see Release).
	*tables

	// Truncated counts fixpoint states abandoned at the hop bound with
	// unexplored out-edges — the observable form of the silent
	// under-approximation the hop bound introduces.
	Truncated int

	// bud is the scan-wide fault-containment budget (nil = unlimited);
	// the fixpoint charges one step per state popped. Incomplete
	// reports that the fixpoint stopped early on a budget hit, so the
	// detected findings are a sound-but-partial subset.
	bud        *budget.Budget
	Incomplete bool
}

// tables is one engine's working state. Nothing in it is reachable
// from a Finding, so Release can clear it for the next engine.
type tables struct {
	sanitized map[mdg.Loc]bool

	// Detection roots. sources are the taint sources (parameters of
	// exported functions); the remaining roots are the sub-objects of
	// the pollution queries, which the query engine reaches with their
	// own TaintReach searches.
	sources []*mdg.Node
	roots   []mdg.Loc
	rootOf  map[mdg.Loc]int // loc -> its bit (first wins)

	// Pollution structure extracted from the graph (in deterministic
	// node/edge order, mirroring the query engine's scan order).
	lookupPairs [][2]*mdg.Node // (o, sub) with o -P(*)-> sub
	protoSubs   []*mdg.Node    // P(__proto__) / constructor.prototype targets

	facts map[state][]uint64
	depth map[state]int
	agg   map[mdg.Loc][]uint64 // per-node union over all states
	// Every state of one location, in creation order: locStates holds
	// the first and last index into stateList, stateNext chains them.
	locStates map[mdg.Loc][2]int32
	stateList []state
	stateNext []int32
	pred      map[predKey]state
	// queue[head:] is the fixpoint's FIFO worklist.
	queue   []state
	head    int
	inQueue map[state]bool
	// arena backs the fact and aggregate bitsets.
	arena []uint64

	wsIntern map[string]wsID
	wsProps  [][]string // wsID -> sorted property names

	truncated map[state]bool
}

// tablePool holds released engines' tables.
var tablePool = sync.Pool{New: func() any {
	return &tables{
		sanitized: map[mdg.Loc]bool{},
		rootOf:    map[mdg.Loc]int{},
		facts:     map[state][]uint64{},
		depth:     map[state]int{},
		agg:       map[mdg.Loc][]uint64{},
		locStates: map[mdg.Loc][2]int32{},
		pred:      map[predKey]state{},
		inQueue:   map[state]bool{},
		wsIntern:  map[string]wsID{"": 0},
		wsProps:   [][]string{nil},
		truncated: map[state]bool{},
	}
}}

// maxPooled caps the entries any one table may have held for
// its engine's tables to be pooled: a pathological package's tables
// are dropped rather than pinned.
const maxPooled = 1 << 14

// Release hands the engine's working tables back for the next engine;
// the engine must not be used afterwards. An engine whose fixpoint the
// budget cut short drops its tables instead, as does one whose tables
// grew past maxPooled.
func (e *Engine) Release() {
	t := e.tables
	e.tables = nil
	if t == nil || e.Incomplete || len(t.pred) > maxPooled || len(t.stateList) > maxPooled ||
		cap(t.arena) > maxPooled || cap(t.queue) > maxPooled {
		return
	}
	t.reset()
	tablePool.Put(t)
}

// reset empties every table, keeping its storage.
func (t *tables) reset() {
	clear(t.sanitized)
	clear(t.rootOf)
	clear(t.facts)
	clear(t.depth)
	clear(t.agg)
	clear(t.locStates)
	clear(t.pred)
	clear(t.inQueue)
	clear(t.truncated)
	clear(t.wsIntern)
	t.wsIntern[""] = 0
	clear(t.wsProps)
	t.wsProps = append(t.wsProps[:0], nil)
	clear(t.sources)
	clear(t.lookupPairs)
	clear(t.protoSubs)
	clear(t.arena)
	t.sources, t.roots = t.sources[:0], t.roots[:0]
	t.lookupPairs, t.protoSubs = t.lookupPairs[:0], t.protoSubs[:0]
	t.stateList, t.stateNext = t.stateList[:0], t.stateNext[:0]
	t.queue, t.head = t.queue[:0], 0
	t.arena = t.arena[:0]
}

// NewEngineBudget builds the dataflow engine for one analysis result
// and runs the taint fixpoint. cfg may be nil (the default config is
// used). Under a fault-containment budget b (nil = unlimited) the
// worklist fixpoint checks b per popped state and stops early —
// marking the engine Incomplete — when the deadline or step cap trips.
func NewEngineBudget(res *analysis.Result, cfg *queries.Config, b *budget.Budget) *Engine {
	cfg = queries.OrDefault(cfg)
	maxHops := cfg.MaxHops
	if maxHops <= 0 {
		maxHops = queries.DefaultMaxHops
	}
	e := &Engine{
		res:     res,
		cfg:     cfg,
		maxHops: maxHops,
		tables:  tablePool.Get().(*tables),
		bud:     b,
	}
	e.collectSanitizers()
	e.collectRoots()
	e.run()
	return e
}

// collectSanitizers mirrors LoadedGraph.ApplySanitizers: call nodes
// whose callee matches a configured sanitizer are taint barriers.
func (e *Engine) collectSanitizers() {
	if len(e.cfg.Sanitizers) == 0 {
		return
	}
	for _, n := range e.res.Graph.NodesOfKind(mdg.KindCall) {
		if e.cfg.IsSanitizer(n.CallName) {
			e.sanitized[n.Loc] = true
		}
	}
}

// collectRoots gathers the fixpoint roots in the same order the query
// engine discovers them: taint sources first (Param nodes marked
// Source, in insertion order), then the dynamic-lookup sub-objects
// (P(*) edge targets), then the literal-prototype sub-objects
// (P(__proto__) targets and constructor→prototype chains).
func (e *Engine) collectRoots() {
	g := e.res.Graph
	seenProto := map[mdg.Loc]bool{}
	for _, n := range g.Nodes() {
		if n.Kind == mdg.KindParam && n.Source {
			e.sources = append(e.sources, n)
		}
		for _, edge := range g.Out(n.Loc) {
			switch edge.Type {
			case mdg.PropStar:
				if sub := g.Node(edge.To); sub != nil {
					e.lookupPairs = append(e.lookupPairs, [2]*mdg.Node{n, sub})
				}
			case mdg.Prop:
				switch edge.Prop {
				case "__proto__":
					if sub := g.Node(edge.To); sub != nil && !seenProto[edge.To] {
						seenProto[edge.To] = true
						e.protoSubs = append(e.protoSubs, sub)
					}
				case "constructor":
					for _, ce := range g.Out(edge.To) {
						if ce.Type == mdg.Prop && ce.Prop == "prototype" {
							if sub := g.Node(ce.To); sub != nil && !seenProto[ce.To] {
								seenProto[ce.To] = true
								e.protoSubs = append(e.protoSubs, sub)
							}
						}
					}
				}
			}
		}
	}
	for _, s := range e.sources {
		e.addRoot(s.Loc)
	}
	done := map[mdg.Loc]bool{}
	for _, p := range e.lookupPairs {
		if !done[p[1].Loc] {
			done[p[1].Loc] = true
			e.addRoot(p[1].Loc)
		}
	}
	for _, s := range e.protoSubs {
		if !done[s.Loc] {
			done[s.Loc] = true
			e.addRoot(s.Loc)
		}
	}
	e.words = (len(e.roots) + 63) / 64
}

func (e *Engine) addRoot(l mdg.Loc) {
	bit := len(e.roots)
	e.roots = append(e.roots, l)
	if _, ok := e.rootOf[l]; !ok {
		e.rootOf[l] = bit
	}
}

// edgeProp returns the property name an edge carries for the
// UntaintedPath interaction: star edges read/write the "*"
// pseudo-property, exactly as the database load renders them.
func edgeProp(edge mdg.Edge) string {
	if edge.Type == mdg.PropStar || edge.Type == mdg.VerStar {
		return queries.StarProp
	}
	return edge.Prop
}

// run executes the worklist fixpoint.
func (e *Engine) run() {
	if e.words == 0 {
		return
	}
	g := e.res.Graph
	for bit, loc := range e.roots {
		st := state{loc: loc}
		if _, ok := e.depth[st]; !ok {
			e.depth[st] = 0
		}
		if e.setBit(st, bit, state{}, true) {
			e.push(st)
		}
	}
	for e.head < len(e.queue) {
		if e.bud.Step() != nil {
			// Budget hit mid-fixpoint: keep the facts computed so far
			// (monotone, hence sound-but-partial) and let Detect report
			// the findings they support.
			e.Incomplete = true
			return
		}
		st := e.pop()
		e.inQueue[st] = false
		d := e.depth[st]
		if d >= e.maxHops {
			if len(g.Out(st.loc)) > 0 && !e.truncated[st] {
				e.truncated[st] = true
				e.Truncated++
			}
			continue
		}
		bits := e.facts[st]
		for _, edge := range g.Out(st.loc) {
			if e.sanitized[edge.To] {
				// Sanitizer call: its result is clean (§6).
				continue
			}
			ws := st.ws
			switch edge.Type {
			case mdg.Ver, mdg.VerStar:
				ws = e.withProp(ws, edgeProp(edge))
			case mdg.Prop, mdg.PropStar:
				// Reading a property that was overwritten along the
				// way yields the untainted (new) value: prune
				// (UntaintedPath pattern V(p) … P(p)).
				if e.wsHas(st.ws, edgeProp(edge)) {
					continue
				}
			}
			nst := state{loc: edge.To, ws: ws}
			if e.orInto(nst, bits, st) {
				if _, ok := e.depth[nst]; !ok {
					e.depth[nst] = d + 1
				}
				e.push(nst)
			}
		}
	}
}

func (e *Engine) push(st state) {
	if !e.inQueue[st] {
		e.inQueue[st] = true
		e.queue = append(e.queue, st)
	}
}

// pop takes the worklist's oldest state. The popped prefix is reclaimed
// once it is half the queue, so the backing array is reused rather
// than resliced away.
func (e *Engine) pop() state {
	st := e.queue[e.head]
	e.head++
	if e.head >= 64 && 2*e.head >= len(e.queue) {
		n := copy(e.queue, e.queue[e.head:])
		e.queue, e.head = e.queue[:n], 0
	}
	return st
}

// setBit sets one bit at a state, recording the predecessor (unless it
// is a root arrival). Reports whether the fact changed.
func (e *Engine) setBit(st state, bit int, from state, isRoot bool) bool {
	dst := e.ensureState(st)
	w, m := bit/64, uint64(1)<<(bit%64)
	if dst[w]&m != 0 {
		return false
	}
	dst[w] |= m
	e.agg[st.loc][w] |= m
	if !isRoot {
		e.pred[predKey{st: st, bit: bit}] = from
	}
	return true
}

// orInto merges a predecessor's bitset into a state, recording the
// predecessor for every newly arrived bit. Reports whether anything
// changed.
func (e *Engine) orInto(st state, add []uint64, from state) bool {
	dst := e.ensureState(st)
	aggBits := e.agg[st.loc]
	changed := false
	for w := 0; w < e.words; w++ {
		fresh := add[w] &^ dst[w]
		if fresh == 0 {
			continue
		}
		changed = true
		dst[w] |= fresh
		aggBits[w] |= fresh
		for fresh != 0 {
			b := bits.TrailingZeros64(fresh)
			fresh &^= 1 << uint(b)
			e.pred[predKey{st: st, bit: w*64 + b}] = from
		}
	}
	return changed
}

func (e *Engine) ensureState(st state) []uint64 {
	dst, ok := e.facts[st]
	if !ok {
		dst = e.bitset()
		e.facts[st] = dst
		i := int32(len(e.stateList))
		e.stateList = append(e.stateList, st)
		e.stateNext = append(e.stateNext, -1)
		if span, ok := e.locStates[st.loc]; ok {
			e.stateNext[span[1]] = i
			e.locStates[st.loc] = [2]int32{span[0], i}
		} else {
			e.locStates[st.loc] = [2]int32{i, i}
			e.agg[st.loc] = e.bitset()
		}
	}
	return dst
}

// bitset carves one zeroed e.words-word bitset from the arena. A full
// arena is replaced by a larger one; bitsets already carved keep the
// old one.
func (e *Engine) bitset() []uint64 {
	n := len(e.arena)
	if n+e.words > cap(e.arena) {
		e.arena = make([]uint64, 0, max(2*cap(e.arena), 64, e.words))
		n = 0
	}
	e.arena = e.arena[:n+e.words]
	return e.arena[n : n+e.words : n+e.words]
}

// taintedBy reports whether any tainted path from root bit reaches the
// location — the native form of TaintReach membership.
func (e *Engine) taintedBy(l mdg.Loc, bit int) bool {
	bits := e.agg[l]
	if bits == nil {
		return false
	}
	return bits[bit/64]&(1<<uint(bit%64)) != 0
}

// witness reconstructs a source-to-destination node path for one
// root's bit from the recorded predecessor edges. The returned path
// carries MDG locations (the native engine has no database node ids).
func (e *Engine) witness(bit int, dst mdg.Loc) []mdg.Loc {
	var at state
	found := false
	if span, ok := e.locStates[dst]; ok {
		for i := span[0]; i >= 0; i = e.stateNext[i] {
			if st := e.stateList[i]; e.facts[st][bit/64]&(1<<uint(bit%64)) != 0 {
				at = st
				found = true
				break
			}
		}
	}
	if !found {
		return nil
	}
	path := []mdg.Loc{at.loc}
	for {
		prev, ok := e.pred[predKey{st: at, bit: bit}]
		if !ok {
			break
		}
		at = prev
		path = append(path, at.loc)
	}
	// Reverse into source-first order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// --- written-set interning ---

func (e *Engine) withProp(ws wsID, p string) wsID {
	props := e.wsProps[ws]
	idx := len(props)
	for i, q := range props {
		if q == p {
			return ws
		}
		if q > p {
			idx = i
			break
		}
	}
	next := make([]string, 0, len(props)+1)
	next = append(next, props[:idx]...)
	next = append(next, p)
	next = append(next, props[idx:]...)
	key := ""
	for _, q := range next {
		key += q + "\x00"
	}
	if id, ok := e.wsIntern[key]; ok {
		return id
	}
	id := wsID(len(e.wsProps))
	e.wsIntern[key] = id
	e.wsProps = append(e.wsProps, next)
	return id
}

func (e *Engine) wsHas(ws wsID, p string) bool {
	for _, q := range e.wsProps[ws] {
		if q == p {
			return true
		}
	}
	return false
}
