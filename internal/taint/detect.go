package taint

import (
	"fmt"

	"repro/internal/graphdb"
	"repro/internal/mdg"
	"repro/internal/queries"
)

// Detect runs every Table 2 vulnerability query against the computed
// taint facts. It produces the same finding set as queries.Detect on
// the same analysis result and configuration — the differential mode
// of the scanner asserts exactly that.
func (e *Engine) Detect() []queries.Finding {
	var out []queries.Finding
	out = append(out, e.detectTaintStyle(queries.CWEPathTraversal)...)
	out = append(out, e.detectTaintStyle(queries.CWECommandInjection)...)
	out = append(out, e.detectTaintStyle(queries.CWECodeInjection)...)
	out = append(out, e.detectPrototypePollution()...)
	return queries.SortFindings(out)
}

// locPath converts an MDG-location witness into the Finding.Path node
// sequence. The database loader assigns node ids in location order, so
// the locations themselves are the canonical witness identifiers for
// the native backend.
func locPath(locs []mdg.Loc) []graphdb.NodeID {
	if locs == nil {
		return nil
	}
	out := make([]graphdb.NodeID, len(locs))
	for i, l := range locs {
		out[i] = graphdb.NodeID(l)
	}
	return out
}

// detectTaintStyle answers TaintPath_{o_s} ∘ Arg_{f,n} for one class
// off the fixpoint facts: a sink call argument must hold a location
// some source's bit reached.
func (e *Engine) detectTaintStyle(cwe queries.CWE) []queries.Finding {
	sinks := e.cfg.SinksFor(cwe)
	if len(sinks) == 0 || len(e.sources) == 0 {
		return nil
	}
	var out []queries.Finding
	seen := map[string]bool{}
	for _, n := range e.res.Graph.NodesOfKind(mdg.KindCall) {
		var sink *queries.Sink
		for i := range sinks {
			if queries.MatchSink(n.CallName, sinks[i].Name) {
				sink = &sinks[i]
				break
			}
		}
		if sink == nil {
			continue
		}
		for _, argPos := range sink.Args {
			if argPos >= len(n.CallArgs) {
				continue
			}
			for _, argLoc := range n.CallArgs[argPos] {
				for i, src := range e.sources {
					if !e.taintedBy(argLoc, i) {
						continue
					}
					key := fmt.Sprintf("%s/%s/%d/%s", cwe, n.File, n.Line, n.CallName)
					if seen[key] {
						continue
					}
					seen[key] = true
					out = append(out, queries.Finding{
						CWE:      cwe,
						SinkName: n.CallName,
						SinkLine: n.Line,
						SinkFile: n.File,
						Source:   src.Label,
						Path:     locPath(e.witness(i, argLoc)),
					})
				}
			}
		}
	}
	return out
}

// detectPrototypePollution answers the Table 2 pollution query
// (ObjLookup* ∘ ObjAssignment* with three taint-path filters) plus the
// literal `__proto__` / `constructor.prototype` variant, using the sub-
// object roots collected before the fixpoint in place of the query
// engine's per-sub TaintReach searches.
func (e *Engine) detectPrototypePollution() []queries.Finding {
	if len(e.sources) == 0 {
		return nil
	}
	tainted := func(l mdg.Loc) (int, bool) {
		for i := range e.sources {
			if e.taintedBy(l, i) {
				return i, true
			}
		}
		return 0, false
	}

	var out []queries.Finding
	seen := map[string]bool{}

	out = append(out, e.detectLiteralProtoPollution(tainted, seen)...)

	// All dynamic assignments in the graph: mid -V(*)-> ver -P(*)-> val,
	// in deterministic node/edge order.
	type assign struct{ mid, ver, val *mdg.Node }
	var assigns []assign
	g := e.res.Graph
	for _, mid := range g.Nodes() {
		for _, ve := range g.Out(mid.Loc) {
			if ve.Type != mdg.VerStar {
				continue
			}
			ver := g.Node(ve.To)
			if ver == nil {
				continue
			}
			for _, pe := range g.Out(ver.Loc) {
				if pe.Type != mdg.PropStar {
					continue
				}
				if val := g.Node(pe.To); val != nil {
					assigns = append(assigns, assign{mid: mid, ver: ver, val: val})
				}
			}
		}
	}

	for _, pair := range e.lookupPairs {
		sub := pair[1]
		// The lookup property must be attacker-controlled: sub is
		// tainted via its dynamic-property dependency.
		si, ok := tainted(sub.Loc)
		if !ok {
			continue
		}
		subBit := e.rootOf[sub.Loc]
		for _, av := range assigns {
			// The assignment must act on an object the sub-object
			// taints (Table 1's ObjAssignment* reachability filter).
			if av.mid.Loc != sub.Loc && !e.taintedBy(av.mid.Loc, subBit) {
				continue
			}
			if _, ok := tainted(av.ver.Loc); !ok {
				continue // assigned property name not controlled
			}
			if _, ok := tainted(av.val.Loc); !ok {
				continue // assigned value not controlled
			}
			key := fmt.Sprintf("pp/%s/%d", av.ver.File, av.ver.Line)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, queries.Finding{
				CWE:      queries.CWEPrototypePollution,
				SinkName: "prototype pollution",
				SinkLine: av.ver.Line,
				SinkFile: av.ver.File,
				Source:   e.sources[si].Label,
				Path:     locPath(e.witness(si, sub.Loc)),
			})
		}
	}
	return out
}

// detectLiteralProtoPollution finds the static `__proto__` pattern:
// an explicit prototype-object lookup with any later write on (a
// version of) it whose assigned value is attacker-controlled.
func (e *Engine) detectLiteralProtoPollution(tainted func(mdg.Loc) (int, bool),
	seen map[string]bool) []queries.Finding {
	g := e.res.Graph
	var out []queries.Finding
	for _, sub := range e.protoSubs {
		// mids: everything version-reachable from sub in at most six
		// hops (the query's V*0..6), including sub itself.
		mids := []mdg.Loc{sub.Loc}
		midSeen := map[mdg.Loc]bool{sub.Loc: true}
		for hop, lo := 0, 0; hop < 6; hop++ {
			hi := len(mids)
			for ; lo < hi; lo++ {
				for _, ve := range g.Out(mids[lo]) {
					if (ve.Type == mdg.Ver || ve.Type == mdg.VerStar) && !midSeen[ve.To] {
						midSeen[ve.To] = true
						mids = append(mids, ve.To)
					}
				}
			}
		}
		type wr struct{ ver, val *mdg.Node }
		var writes []wr
		wrSeen := map[[2]mdg.Loc]bool{}
		for _, mid := range mids {
			for _, ve := range g.Out(mid) {
				if ve.Type != mdg.Ver && ve.Type != mdg.VerStar {
					continue
				}
				ver := g.Node(ve.To)
				if ver == nil {
					continue
				}
				for _, pe := range g.Out(ver.Loc) {
					if pe.Type != mdg.Prop && pe.Type != mdg.PropStar {
						continue
					}
					val := g.Node(pe.To)
					if val == nil || wrSeen[[2]mdg.Loc{ver.Loc, val.Loc}] {
						continue
					}
					wrSeen[[2]mdg.Loc{ver.Loc, val.Loc}] = true
					writes = append(writes, wr{ver: ver, val: val})
				}
			}
		}
		for _, w := range writes {
			si, ok := tainted(w.val.Loc)
			if !ok {
				continue
			}
			key := fmt.Sprintf("pp/%s/%d", w.ver.File, w.ver.Line)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, queries.Finding{
				CWE:      queries.CWEPrototypePollution,
				SinkName: "prototype pollution",
				SinkLine: w.ver.Line,
				SinkFile: w.ver.File,
				Source:   e.sources[si].Label,
				Path:     locPath(e.witness(si, w.val.Loc)),
			})
		}
	}
	return out
}
