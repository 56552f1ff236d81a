package queries

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/budget"
	"repro/internal/graphdb"
	"repro/internal/mdg"
)

// LoadedGraph is an MDG loaded into the graph database, with the
// loc ↔ node-id correspondence.
type LoadedGraph struct {
	DB     *graphdb.DB
	ByLoc  map[mdg.Loc]graphdb.NodeID
	Result *analysis.Result

	// Truncated counts taint searches cut short by the hop bound while
	// unexplored edges remained — silent under-approximation made
	// observable. It accumulates across searches on this graph.
	Truncated int

	// Budget is the scan-wide fault-containment budget (nil =
	// unlimited): the database load charges it per node/edge, taint
	// traversals per visited node, and Detect stops between query
	// stages once it trips, returning the findings established so far.
	Budget *budget.Budget

	// LoadErr records a database-load inconsistency (an edge whose
	// endpoints could not be created); Detect surfaces it as a query
	// error.
	LoadErr error

	// sanitized marks call nodes matching configured sanitizers; taint
	// traversals do not pass through them (§6 extension).
	sanitized map[graphdb.NodeID]bool
}

// ApplySanitizers marks the call nodes whose callee matches one of the
// configuration's sanitizer names; subsequent taint searches treat them
// as taint barriers. Call it before Detect when the configuration
// carries sanitizers (Detect does this itself).
func (lg *LoadedGraph) ApplySanitizers(cfg *Config) {
	lg.sanitized = nil
	if cfg == nil || len(cfg.Sanitizers) == 0 {
		return
	}
	lg.sanitized = make(map[graphdb.NodeID]bool)
	for _, n := range lg.DB.NodesByLabel("Call") {
		name, _ := n.Props["name"].(string)
		if cfg.IsSanitizer(name) {
			lg.sanitized[n.ID] = true
		}
	}
}

// Edge type names used in the database.
const (
	RelDep  = "D"
	RelProp = "P"
	RelVer  = "V"
	// StarProp is the property-name value used for P(*)/V(*) edges.
	StarProp = "*"
)

// Node label sets by MDG node kind (CreateNode copies them).
var (
	callLabels    = []string{"Call"}
	funcLabels    = []string{"Func"}
	paramLabels   = []string{"Param"}
	literalLabels = []string{"Literal"}
	objectLabels  = []string{"Object"}
)

// Load stores the analysis result's MDG into a fresh database. Node
// labels follow the MDG node kinds (Object, Call, Func, Param,
// Literal); edges become typed relationships with a `prop` property
// carrying the property name ("*" for unknown).
func Load(res *analysis.Result) *LoadedGraph {
	return LoadBudget(res, nil)
}

// LoadBudget is Load under a fault-containment budget: one step is
// charged per node and edge stored, and when the budget trips the load
// stops, leaving a prefix-complete graph whose queries yield partial
// (sound-but-incomplete) findings. The budget is also installed on the
// database so query execution cooperates with it.
func LoadBudget(res *analysis.Result, b *budget.Budget) *LoadedGraph {
	db := graphdb.NewDB()
	nodes := res.Graph.Nodes()
	byLoc := make(map[mdg.Loc]graphdb.NodeID, len(nodes))
	lg := &LoadedGraph{DB: db, ByLoc: byLoc, Result: res, Budget: b}

	for _, n := range nodes {
		if b.Step() != nil {
			db.SetBudget(b)
			return lg
		}
		props := map[string]graphdb.Value{
			"loc":   int64(n.Loc),
			"label": n.Label,
			"site":  int64(n.Site),
			"line":  int64(n.Line),
			"file":  n.File,
		}
		labels := objectLabels
		switch n.Kind {
		case mdg.KindCall:
			labels = callLabels
			props["name"] = n.CallName
		case mdg.KindFunc:
			labels = funcLabels
			props["name"] = n.FuncName
			props["exported"] = n.Exported
		case mdg.KindParam:
			labels = paramLabels
			props["name"] = n.Label
			props["source"] = n.Source
		case mdg.KindLiteral:
			labels = literalLabels
		}
		if n.Source {
			props["source"] = true
		}
		dn := db.CreateNode(labels, props)
		byLoc[n.Loc] = dn.ID
	}

	for _, e := range res.Graph.Edges() {
		if b.Step() != nil {
			break
		}
		if _, ok := byLoc[e.From]; !ok {
			continue // endpoint beyond a budget-truncated node load
		}
		if _, ok := byLoc[e.To]; !ok {
			continue
		}
		var typ string
		prop := e.Prop
		switch e.Type {
		case mdg.Dep:
			typ = RelDep
		case mdg.Prop:
			typ = RelProp
		case mdg.PropStar:
			typ = RelProp
			prop = StarProp
		case mdg.Ver:
			typ = RelVer
		case mdg.VerStar:
			typ = RelVer
			prop = StarProp
		}
		props := map[string]graphdb.Value{}
		if typ != RelDep {
			props["prop"] = prop
		}
		// Endpoints exist (checked above); a CreateRel failure is a
		// store inconsistency, recorded rather than panicking so a
		// corpus sweep classifies it as a query error.
		if _, err := db.CreateRel(byLoc[e.From], byLoc[e.To], typ, props); err != nil && lg.LoadErr == nil {
			lg.LoadErr = fmt.Errorf("queries: load edge %v->%v: %w", e.From, e.To, err)
		}
	}

	db.SetBudget(b)
	return lg
}
