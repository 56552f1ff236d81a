package queries

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/budget"
	"repro/internal/graphdb"
	"repro/internal/mdg"
)

// Provenance records how a finding's sink is reachable from the
// package's API surface: the entry point (an export API name like
// "exports.run", or one of the markers "(module)" for top-level code,
// "(callback)" for escaped callbacks, "(fallback)" when the gate ran
// the every-function attack model, "(unresolved)" when no path was
// found) and the call-hop chain of file-qualified function names from
// the entry function down to the function owning the sink.
//
// Provenance is diagnostic metadata: it is excluded from finding
// identity (sorting, differential comparison, deduplication).
type Provenance struct {
	Entry    string
	Hops     []string
	Fallback bool
	// DepPath is the dependency-tree package chain the call path
	// crosses, root package first ("name@version (dir)" labels). Only
	// tree-mode scans fill it; like the rest of Provenance it is
	// excluded from finding identity.
	DepPath []string
}

// String renders the provenance as "entry → hop → … → hop".
func (p Provenance) String() string {
	out := p.Entry
	for _, h := range p.Hops {
		out += " → " + h
	}
	return out
}

// Finding is one reported potential vulnerability.
type Finding struct {
	CWE      CWE
	SinkName string // callee path of the sink call ("" for pollution)
	SinkLine int    // line of the sink call / polluting assignment
	SinkFile string // file of the sink (multi-file packages)
	Source   string // name of the tainted source parameter
	// Path is a witness node sequence from the source to the sink.
	Path []graphdb.NodeID
	// Provenance says how the sink is reachable from the exported API
	// (filled by the scanner's reach gate; zero when the gate did not
	// run, e.g. direct engine use in tests).
	Provenance Provenance
}

// String renders the finding for reports.
func (f Finding) String() string {
	if f.CWE == CWEPrototypePollution {
		return fmt.Sprintf("[%s] prototype pollution at line %d (source %s)", f.CWE, f.SinkLine, f.Source)
	}
	return fmt.Sprintf("[%s] tainted call to %s at line %d (source %s)", f.CWE, f.SinkName, f.SinkLine, f.Source)
}

// isBudgetErr reports whether err is (or wraps) a classified budget
// failure — a cooperative abort, not a query malfunction.
func isBudgetErr(err error) bool {
	var be *budget.Error
	return errors.As(err, &be)
}

// Detect runs all Table 2 vulnerability queries against a loaded MDG.
// A non-nil error means an internal query failed; partial findings are
// not returned in that case. Budget exhaustion (lg.Budget) is NOT an
// error: detection stops between query stages and the findings
// established so far are returned — the caller reads the budget to
// flag the result incomplete.
func Detect(lg *LoadedGraph, cfg *Config) ([]Finding, error) {
	if lg.LoadErr != nil {
		return nil, lg.LoadErr
	}
	lg.ApplySanitizers(cfg)
	var out []Finding
	for _, cwe := range []CWE{CWEPathTraversal, CWECommandInjection, CWECodeInjection} {
		if lg.Budget.Exceeded() {
			return sortFindings(out), nil
		}
		fs, err := DetectTaintStyle(lg, cfg, cwe)
		if err != nil {
			if isBudgetErr(err) {
				return sortFindings(out), nil
			}
			return nil, err
		}
		out = append(out, fs...)
	}
	if lg.Budget.Exceeded() {
		return sortFindings(out), nil
	}
	fs, err := DetectPrototypePollution(lg, cfg)
	if err != nil {
		if isBudgetErr(err) {
			return sortFindings(out), nil
		}
		return nil, err
	}
	out = append(out, fs...)
	return sortFindings(out), nil
}

func sortFindings(out []Finding) []Finding {
	sort.Slice(out, func(i, j int) bool { return findingLess(out[i], out[j]) })
	return out
}

// findingLess is the total report order over findings: primarily by
// sink line, then CWE, then file/name/source so ties order identically
// however the findings were produced (one combined scan or a stitched
// union of per-component scans).
func findingLess(a, b Finding) bool {
	if a.SinkLine != b.SinkLine {
		return a.SinkLine < b.SinkLine
	}
	if a.CWE != b.CWE {
		return a.CWE < b.CWE
	}
	if a.SinkFile != b.SinkFile {
		return a.SinkFile < b.SinkFile
	}
	if a.SinkName != b.SinkName {
		return a.SinkName < b.SinkName
	}
	return a.Source < b.Source
}

// SortFindings orders a finding slice in the canonical report order.
// The scanner's incremental path uses it to merge per-component
// finding sets into the same order a combined scan produces.
func SortFindings(out []Finding) []Finding { return sortFindings(out) }

// sources returns the taint-source nodes (parameters of exported
// functions), found via the query engine.
func (lg *LoadedGraph) sources() ([]*graphdb.Node, error) {
	qp, err := plans()
	if err != nil {
		return nil, err
	}
	res, err := lg.DB.Exec(qp.sources)
	if err != nil {
		return nil, fmt.Errorf("queries: sources: %w", err)
	}
	var out []*graphdb.Node
	for _, row := range res.Rows {
		out = append(out, row["p"].(*graphdb.Node))
	}
	return out, nil
}

// DetectTaintStyle implements the Table 2 taint-style query
// TaintPath_{o_s} ∘ Arg_{f,n} for the sinks of one class: a tainted
// path must connect a source to a sensitive argument of a sink call.
func DetectTaintStyle(lg *LoadedGraph, cfg *Config, cwe CWE) ([]Finding, error) {
	sinks := cfg.SinksFor(cwe)
	if len(sinks) == 0 {
		return nil, nil
	}
	srcs, err := lg.sources()
	if err != nil {
		return nil, err
	}
	if len(srcs) == 0 {
		return nil, nil
	}

	// Precompute taint reachability per source (amortizes the DFS over
	// all sinks).
	reach := make([]map[graphdb.NodeID]bool, len(srcs))
	for i, s := range srcs {
		reach[i] = lg.TaintReach(s.ID, cfg.MaxHops)
	}

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
		callLoc := mdg.Loc(call.Props["loc"].(int64))
		cn := lg.Result.Graph.Node(callLoc)
		if cn == nil {
			continue
		}
		for _, argPos := range sink.Args {
			if argPos >= len(cn.CallArgs) {
				continue
			}
			for _, argLoc := range cn.CallArgs[argPos] {
				argID := lg.ByLoc[argLoc]
				for i, src := range srcs {
					if !reach[i][argID] {
						continue
					}
					file, _ := call.Props["file"].(string)
					key := fmt.Sprintf("%s/%s/%d/%s", cwe, file, call.Props["line"], name)
					if seen[key] {
						continue
					}
					seen[key] = true
					srcName, _ := src.Props["name"].(string)
					out = append(out, Finding{
						CWE:      cwe,
						SinkName: name,
						SinkLine: int(call.Props["line"].(int64)),
						SinkFile: file,
						Source:   srcName,
						Path:     lg.TaintPathWitness(src.ID, argID, cfg.MaxHops),
					})
				}
			}
		}
	}
	return out, nil
}

// DetectPrototypePollution implements the Table 2 pollution query
// (ObjLookup* ∘ ObjAssignment*) filtered by three taint paths: an
// attacker must control the lookup property, the assigned property, and
// the assigned value (§4).
func DetectPrototypePollution(lg *LoadedGraph, cfg *Config) ([]Finding, error) {
	srcs, err := lg.sources()
	if err != nil {
		return nil, err
	}
	if len(srcs) == 0 {
		return nil, nil
	}
	reach := make([]map[graphdb.NodeID]bool, len(srcs))
	for i, s := range srcs {
		reach[i] = lg.TaintReach(s.ID, cfg.MaxHops)
	}
	tainted := func(id graphdb.NodeID) (int, bool) {
		for i := range srcs {
			if reach[i][id] {
				return i, true
			}
		}
		return 0, false
	}

	var out []Finding
	seen := map[string]bool{}

	// Static-key variant: an explicit `obj['__proto__']` /
	// `obj.constructor.prototype` lookup followed by a write of an
	// attacker-controlled value pollutes Object.prototype even when the
	// property names are literals — only the value needs tainting.
	lits, err := detectLiteralProtoPollution(lg, reach, srcs, seen, cfg.MaxHops)
	if err != nil {
		return nil, err
	}
	out = append(out, lits...)

	pairs, err := lg.ObjLookupStar()
	if err != nil {
		return nil, err
	}
	// The dynamic assignments are the same for every sub: query them
	// once, on the first tainted sub.
	var assigns [][3]*graphdb.Node
	queried := false
	for _, pair := range pairs {
		sub := pair[1]
		// The lookup property must be attacker-controlled: sub is
		// tainted via its dynamic-property dependency.
		si, ok := tainted(sub.ID)
		if !ok {
			continue
		}
		if !queried {
			if assigns, err = lg.dynamicAssignments(); err != nil {
				return nil, err
			}
			queried = true
		}
		for _, av := range lg.assignmentsFrom(assigns, sub, cfg.MaxHops) {
			ver, val := av[0], av[1]
			if _, ok := tainted(ver.ID); !ok {
				continue // assigned property name not controlled
			}
			if _, ok := tainted(val.ID); !ok {
				continue // assigned value not controlled
			}
			line := int(ver.Props["line"].(int64))
			file, _ := ver.Props["file"].(string)
			key := fmt.Sprintf("pp/%s/%d", file, line)
			if seen[key] {
				continue
			}
			seen[key] = true
			srcName, _ := srcs[si].Props["name"].(string)
			out = append(out, Finding{
				CWE:      CWEPrototypePollution,
				SinkName: "prototype pollution",
				SinkLine: line,
				SinkFile: file,
				Source:   srcName,
				Path:     lg.TaintPathWitness(srcs[si].ID, sub.ID, cfg.MaxHops),
			})
		}
	}
	return out, nil
}

// protoWrites runs the write scan over prototype object sub: every
// (ver, val) written on a version of it. The scan starts bound at sub.
func (lg *LoadedGraph) protoWrites(sub *graphdb.Node) (*graphdb.Result, error) {
	qp, err := plans()
	if err != nil {
		return nil, err
	}
	return lg.DB.ExecBound(qp.protoWrite, map[string]*graphdb.Node{"sub": sub})
}

// detectLiteralProtoPollution finds the static `__proto__` pattern:
// (o)-[:P {prop:'__proto__'}]->(sub) with any later write on sub whose
// value is tainted, or the constructor.prototype two-step equivalent.
func detectLiteralProtoPollution(lg *LoadedGraph, reach []map[graphdb.NodeID]bool,
	srcs []*graphdb.Node, seen map[string]bool, maxHops int) ([]Finding, error) {
	tainted := func(id graphdb.NodeID) (int, bool) {
		for i := range srcs {
			if reach[i][id] {
				return i, true
			}
		}
		return 0, false
	}

	qp, err := plans()
	if err != nil {
		return nil, err
	}
	// Both `__proto__` lookups and `constructor` → `prototype` chains.
	res, err := lg.DB.Exec(qp.protoLookup)
	if err != nil {
		return nil, fmt.Errorf("queries: proto lookup: %w", err)
	}
	subs := map[graphdb.NodeID]*graphdb.Node{}
	for _, row := range res.Rows {
		sub := row["sub"].(*graphdb.Node)
		subs[sub.ID] = sub
	}
	res, err = lg.DB.Exec(qp.ctorProtoLookup)
	if err != nil {
		return nil, fmt.Errorf("queries: constructor.prototype lookup: %w", err)
	}
	for _, row := range res.Rows {
		sub := row["sub"].(*graphdb.Node)
		subs[sub.ID] = sub
	}

	// Deterministic sub order (database ids follow MDG location order);
	// map iteration order must not leak into dedup or witness choice.
	ids := make([]graphdb.NodeID, 0, len(subs))
	for id := range subs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var out []Finding
	for _, id := range ids {
		sub := subs[id]
		// Any write on (a version of) the prototype object whose value
		// is attacker-controlled.
		vres, err := lg.protoWrites(sub)
		if err != nil {
			return nil, fmt.Errorf("queries: proto write scan: %w", err)
		}
		for _, row := range vres.Rows {
			ver := row["ver"].(*graphdb.Node)
			val := row["val"].(*graphdb.Node)
			si, ok := tainted(val.ID)
			if !ok {
				continue
			}
			line := int(ver.Props["line"].(int64))
			file, _ := ver.Props["file"].(string)
			key := fmt.Sprintf("pp/%s/%d", file, line)
			if seen[key] {
				continue
			}
			seen[key] = true
			srcName, _ := srcs[si].Props["name"].(string)
			out = append(out, Finding{
				CWE:      CWEPrototypePollution,
				SinkName: "prototype pollution",
				SinkLine: line,
				SinkFile: file,
				Source:   srcName,
				Path:     lg.TaintPathWitness(srcs[si].ID, val.ID, maxHops),
			})
		}
	}
	return out, nil
}
