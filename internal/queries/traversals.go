package queries

import (
	"fmt"

	"repro/internal/graphdb"
)

// This file implements the base graph traversals of Table 1:
//
//	BasicPath     — any-edge path between two nodes
//	UntaintedPath — paths containing V(p) followed by P(p): the tainted
//	                property was overwritten along the way
//	TaintPath     — BasicPath \ UntaintedPath
//	Arg(f, n)     — the n-th argument of a call node
//	ObjLookup*    — object lookup via dynamic property
//	ObjAssignment*— object assignment via dynamic property
//
// TaintPath is evaluated with a dedicated search: a depth-first
// traversal that tracks which properties have been written (version
// edges) along the current path and prunes any extension that reads a
// written property (property edge with the same name) — such paths are
// untainted by definition. This matches the filtering semantics of the
// Cypher query used by Graph.js while remaining polynomial in practice.

// TaintPathWitness returns a witness tainted path from src to dst, or
// nil when none exists.
func (lg *LoadedGraph) TaintPathWitness(src, dst graphdb.NodeID, maxHops int) []graphdb.NodeID {
	return lg.taintSearch(src, func(id graphdb.NodeID) bool { return id == dst }, maxHops)
}

// TaintReach returns all nodes reachable from src via tainted paths.
func (lg *LoadedGraph) TaintReach(src graphdb.NodeID, maxHops int) map[graphdb.NodeID]bool {
	out := make(map[graphdb.NodeID]bool)
	lg.taintSearch(src, func(id graphdb.NodeID) bool {
		out[id] = true
		return false // keep exploring
	}, maxHops)
	return out
}

// pathState is a memoization key: node plus the canonical set of
// version-written properties still "open" along the path.
type pathState struct {
	node    graphdb.NodeID
	written string
}

// taintSearch runs the TaintPath DFS from src; accept is called on every
// reached node and a non-nil path is returned when it reports true.
func (lg *LoadedGraph) taintSearch(src graphdb.NodeID, accept func(graphdb.NodeID) bool, maxHops int) []graphdb.NodeID {
	if maxHops <= 0 {
		maxHops = DefaultMaxHops
	}
	type frame struct {
		id      graphdb.NodeID
		written map[string]bool
		depth   int
	}
	seen := make(map[pathState]bool)
	var path []graphdb.NodeID

	var dfs func(f frame) []graphdb.NodeID
	dfs = func(f frame) []graphdb.NodeID {
		if lg.Budget.Step() != nil {
			// Budget hit mid-search: abandon the search (the sticky
			// failure makes every outer frame bail out immediately);
			// Detect reports the findings established before the trip.
			return nil
		}
		key := pathState{node: f.id, written: writtenKey(f.written)}
		if seen[key] {
			return nil
		}
		seen[key] = true
		path = append(path, f.id)
		defer func() { path = path[:len(path)-1] }()

		if accept(f.id) {
			return append([]graphdb.NodeID(nil), path...)
		}
		if f.depth >= maxHops {
			// The hop bound silently under-approximates; count the
			// truncation so it is observable in reports.
			if len(lg.DB.Out(f.id)) > 0 {
				lg.Truncated++
			}
			return nil
		}
		for _, r := range lg.DB.Out(f.id) {
			if lg.sanitized[r.To] {
				// Sanitizer call: its result is clean (§6).
				continue
			}
			nw := f.written
			switch r.Type {
			case RelVer:
				// A version edge writes its property: remember it.
				p, _ := r.Props["prop"].(string)
				nw = withProp(f.written, p)
			case RelProp:
				// Reading a property that was overwritten along this
				// path yields the untainted (new) value: prune
				// (UntaintedPath pattern V(p) … P(p)).
				p, _ := r.Props["prop"].(string)
				if f.written[p] {
					continue
				}
			}
			if got := dfs(frame{id: r.To, written: nw, depth: f.depth + 1}); got != nil {
				return got
			}
		}
		return nil
	}
	return dfs(frame{id: src, written: map[string]bool{}})
}

func withProp(m map[string]bool, p string) map[string]bool {
	if m[p] {
		return m
	}
	n := make(map[string]bool, len(m)+1)
	for k := range m {
		n[k] = true
	}
	n[p] = true
	return n
}

func writtenKey(m map[string]bool) string {
	if len(m) == 0 {
		return ""
	}
	// Small maps: insertion-order independence via sorted concat.
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion sort (tiny n).
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := ""
	for _, k := range keys {
		out += k + "\x00"
	}
	return out
}

// ObjLookupStar finds all dynamic-property lookups: pairs (o, sub) with
// o -P(*)-> sub. Table 1's ObjLookup*.
func (lg *LoadedGraph) ObjLookupStar() ([][2]*graphdb.Node, error) {
	qp, err := plans()
	if err != nil {
		return nil, err
	}
	res, err := lg.DB.Exec(qp.objLookupStar)
	if err != nil {
		return nil, fmt.Errorf("queries: ObjLookupStar: %w", err)
	}
	var out [][2]*graphdb.Node
	for _, row := range res.Rows {
		o := row["o"].(*graphdb.Node)
		sub := row["sub"].(*graphdb.Node)
		out = append(out, [2]*graphdb.Node{o, sub})
	}
	return out, nil
}

// dynamicAssignments returns every dynamic assignment in the graph,
// mid -V(*)-> ver -P(*)-> val, as (mid, ver, val) triples via the query
// engine: Table 1's ObjAssignment*. It runs once per Detect; each
// sub-object then keeps its own assignments with assignmentsFrom.
func (lg *LoadedGraph) dynamicAssignments() ([][3]*graphdb.Node, error) {
	qp, err := plans()
	if err != nil {
		return nil, err
	}
	res, err := lg.DB.Exec(qp.objAssignmentStar)
	if err != nil {
		return nil, fmt.Errorf("queries: ObjAssignment*: %w", err)
	}
	out := make([][3]*graphdb.Node, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = [3]*graphdb.Node{row["mid"].(*graphdb.Node), row["ver"].(*graphdb.Node), row["val"].(*graphdb.Node)}
	}
	return out, nil
}

// assignmentsFrom keeps the (ver, val) pairs of the assignments whose
// mid is sub or some object reachable from it (via version edges or
// dependency edges — the latter covers the recursive-merge idiom where
// the sub-object flows into a callee parameter before being assigned):
// Table 1's ObjAssignment* composed with the chaining of Table 2.
func (lg *LoadedGraph) assignmentsFrom(assigns [][3]*graphdb.Node, sub *graphdb.Node, maxHops int) [][2]*graphdb.Node {
	if len(assigns) == 0 {
		return nil
	}
	reach := lg.TaintReach(sub.ID, maxHops)
	reach[sub.ID] = true
	var out [][2]*graphdb.Node
	for _, a := range assigns {
		if reach[a[0].ID] {
			out = append(out, [2]*graphdb.Node{a[1], a[2]})
		}
	}
	return out
}
