// Package graphdb implements an embedded in-memory property-graph
// database with a Cypher-like query language. It stands in for the
// Neo4j + Cypher pipeline of the paper's artifact: the scanner loads
// the program's MDG into a DB instance and runs pattern queries
// against it.
//
// The data model is the property-graph model: nodes carry labels and a
// property map; directed relationships carry a type and a property
// map. The query language (see query.go / exec.go) supports MATCH
// patterns with variable-length relationships, WHERE filters, and
// RETURN projections with DISTINCT and LIMIT. A query parsed once
// (ParseQuery) can run many times through Exec, or through ExecBound
// with some pattern variables bound in advance; execution never
// modifies a parsed query, so one may be shared across goroutines.
//
// A DB instance is not internally synchronized: concurrent scans each
// load their own instance (see queries.Load), which is what makes the
// parallel corpus sweeps in internal/metrics safe without locking.
package graphdb
