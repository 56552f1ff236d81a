package queries

import (
	"fmt"
	"sync"

	"repro/internal/graphdb"
)

// The detectors' query texts are fixed, so they are parsed once per
// process and the parsed queries are shared, read-only, by every scan
// (graphdb.DB.Exec never mutates a query). The set is fixed in size:
// ad-hoc query text goes through graphdb.DB.Query and is not cached.
const (
	sourcesQuery = `MATCH (p:Param {source: true}) RETURN p`

	protoLookupQuery = `
MATCH (o)-[:P {prop: '__proto__'}]->(sub)
RETURN DISTINCT sub`

	ctorProtoLookupQuery = `
MATCH (o)-[:P {prop: 'constructor'}]->(c)-[:P {prop: 'prototype'}]->(sub)
RETURN DISTINCT sub`

	// protoWriteQuery runs with sub bound to one prototype object
	// (graphdb.DB.ExecBound): any write on a version of it.
	protoWriteQuery = `
MATCH (sub)-[:V*0..6]->(mid)-[v:V]->(ver)-[p:P]->(val)
RETURN DISTINCT ver, val`

	objLookupStarQuery = `MATCH (o)-[:P {prop: '*'}]->(sub) RETURN o, sub`

	objAssignmentStarQuery = `
MATCH (mid)-[:V {prop: '*'}]->(ver)-[:P {prop: '*'}]->(val)
RETURN DISTINCT mid, ver, val`
)

// taintQueryText is the declarative taint-path query of
// DetectTaintStyleCypher.
func taintQueryText() string {
	return fmt.Sprintf(`
MATCH p = (s:Param {source: true})-[:D|P|V*1..%d]->(t)
RETURN p, id(s) AS src, id(t) AS dst`, cypherMaxHops)
}

// queryPlans holds the parsed detector queries.
type queryPlans struct {
	sources, protoLookup, ctorProtoLookup, protoWrite *graphdb.Query
	objLookupStar, objAssignmentStar, taint           *graphdb.Query
}

// plans returns the parsed detector queries, parsing them on first
// use. An error means a query text above does not parse.
var plans = sync.OnceValues(func() (*queryPlans, error) {
	qp := &queryPlans{}
	for _, q := range []struct {
		name string
		text string
		dst  **graphdb.Query
	}{
		{"sources", sourcesQuery, &qp.sources},
		{"proto lookup", protoLookupQuery, &qp.protoLookup},
		{"constructor.prototype lookup", ctorProtoLookupQuery, &qp.ctorProtoLookup},
		{"proto write scan", protoWriteQuery, &qp.protoWrite},
		{"ObjLookupStar", objLookupStarQuery, &qp.objLookupStar},
		{"ObjAssignment*", objAssignmentStarQuery, &qp.objAssignmentStar},
		{"cypher taint query", taintQueryText(), &qp.taint},
	} {
		parsed, err := graphdb.ParseQuery(q.text)
		if err != nil {
			return nil, fmt.Errorf("queries: compiling %s: %w", q.name, err)
		}
		*q.dst = parsed
	}
	return qp, nil
})
