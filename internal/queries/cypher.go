package queries

import (
	"fmt"
	"strings"

	"repro/internal/graphdb"
	"repro/internal/mdg"
)

// This file expresses the taint-style detection as a declarative query
// over the graph database — the counterpart of the artifact's two
// Cypher queries (§4: "we wrote two Cypher queries with 80 lines of
// code"). The query enumerates candidate source→argument paths with a
// variable-length pattern; the UntaintedPath exclusion (a V(p) edge
// followed by a P(p) edge, Table 1) is applied to each returned path,
// mirroring how the Cypher query post-filters with path predicates.
//
// DetectTaintStyleCypher is observably equivalent to DetectTaintStyle
// (see TestCypherNativeEquivalence); the native traversal is the
// default because it memoizes, while the declarative version
// re-enumerates paths.

// cypherMaxHops bounds the declarative path enumeration; deep graphs
// fall back to the native search.
const cypherMaxHops = 24

// DetectTaintStyleCypher runs the taint-style query for one class
// through the query engine.
func DetectTaintStyleCypher(lg *LoadedGraph, cfg *Config, cwe CWE) ([]Finding, error) {
	lg.ApplySanitizers(cfg)
	sinks := cfg.SinksFor(cwe)
	if len(sinks) == 0 {
		return nil, nil
	}

	// Step 1 (declarative): all candidate paths from taint sources.
	qp, err := plans()
	if err != nil {
		return nil, err
	}
	res, err := lg.DB.Exec(qp.taint)
	if err != nil {
		return nil, fmt.Errorf("queries: cypher taint query: %w", err)
	}

	// Tainted destinations per source, after the UntaintedPath filter.
	tainted := map[graphdb.NodeID]map[graphdb.NodeID][]graphdb.NodeID{}
	for _, row := range res.Rows {
		path := row["p"].(graphdb.Path)
		if pathUntainted(path) || pathSanitized(lg, path) {
			continue
		}
		src := graphdb.NodeID(row["src"].(int64))
		dst := graphdb.NodeID(row["dst"].(int64))
		if tainted[src] == nil {
			tainted[src] = map[graphdb.NodeID][]graphdb.NodeID{}
		}
		if tainted[src][dst] == nil {
			ids := make([]graphdb.NodeID, 0, len(path.Nodes))
			for _, n := range path.Nodes {
				ids = append(ids, n.ID)
			}
			tainted[src][dst] = ids
		}
	}

	// Step 2: chain with Arg(f, n) — sink calls and their sensitive
	// argument nodes.
	var out []Finding
	seen := map[string]bool{}
	for _, call := range lg.DB.NodesByLabel("Call") {
		name, _ := call.Props["name"].(string)
		var sink *Sink
		for i := range sinks {
			if MatchSink(name, sinks[i].Name) {
				sink = &sinks[i]
				break
			}
		}
		if sink == nil {
			continue
		}
		cn := lg.Result.Graph.Node(mdg.Loc(call.Props["loc"].(int64)))
		if cn == nil {
			continue
		}
		for _, argPos := range sink.Args {
			if argPos >= len(cn.CallArgs) {
				continue
			}
			for _, argLoc := range cn.CallArgs[argPos] {
				argID := lg.ByLoc[argLoc]
				for src, dsts := range tainted {
					path, ok := dsts[argID]
					if !ok && argID != src {
						continue
					}
					key := fmt.Sprintf("%s/%d/%s", cwe, call.Props["line"], name)
					if seen[key] {
						continue
					}
					seen[key] = true
					srcNode := lg.DB.NodeByID(src)
					srcName, _ := srcNode.Props["name"].(string)
					file, _ := call.Props["file"].(string)
					out = append(out, Finding{
						CWE:      cwe,
						SinkName: name,
						SinkLine: int(call.Props["line"].(int64)),
						SinkFile: file,
						Source:   srcName,
						Path:     path,
					})
				}
			}
		}
	}
	return out, nil
}

// pathUntainted applies the Table 1 UntaintedPath pattern: a version
// edge writing property prop followed later by a property edge reading
// the same prop means the tainted value was overwritten along the way.
func pathUntainted(p graphdb.Path) bool {
	written := map[string]bool{}
	for _, r := range p.Rels {
		prop, _ := r.Props["prop"].(string)
		switch r.Type {
		case RelVer:
			written[prop] = true
		case RelProp:
			if written[prop] {
				return true
			}
		}
	}
	return false
}

// pathSanitized reports whether the path passes through a sanitizer
// call node (§6 extension).
func pathSanitized(lg *LoadedGraph, p graphdb.Path) bool {
	if lg.sanitized == nil {
		return false
	}
	for _, n := range p.Nodes[1:] {
		if lg.sanitized[n.ID] {
			return true
		}
	}
	return false
}

// RenderTaintQuery returns the declarative query text for
// documentation and the CLI's -show-query flag.
func RenderTaintQuery() string {
	return strings.TrimSpace(taintQueryText() + `
// post-filter: drop paths matching UntaintedPath — a V(prop) edge
// followed by a P(prop) edge on the same property (Table 1) — then
// chain with Arg(f, n) for every configured sink f.`)
}
