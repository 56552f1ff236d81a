package graphdb

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// rowKey is the DISTINCT identity of a row over cols.
func rowKey(cols []string, row Row) string { return string(appendRowKey(nil, cols, row)) }

// TestDistinctKeepsValueTypes: DISTINCT must not conflate values that
// render alike but differ in type.
func TestDistinctKeepsValueTypes(t *testing.T) {
	db := NewDB()
	db.CreateNode([]string{"A"}, map[string]Value{"x": int64(5)})
	db.CreateNode([]string{"A"}, map[string]Value{"x": "5"})
	db.CreateNode([]string{"A"}, map[string]Value{"x": true})
	db.CreateNode([]string{"A"}, map[string]Value{"x": "true"})
	db.CreateNode([]string{"A"}, map[string]Value{"x": int64(5)})
	db.CreateNode([]string{"A"}, map[string]Value{"x": 5.0}) // numerically equal to 5
	db.CreateNode([]string{"A"}, map[string]Value{"x": int64(0)})
	db.CreateNode([]string{"A"}, map[string]Value{"x": ""})
	res := mustQuery(t, db, `MATCH (a:A) RETURN DISTINCT a.x`)
	want := []Value{int64(5), "5", true, "true", int64(0), ""}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
	for i, w := range want {
		if got := res.Rows[i]["a.x"]; got != w {
			t.Errorf("row %d = %#v, want %#v", i, got, w)
		}
	}
}

// TestDistinctPathsKeepStartNode: zero-length paths from different
// nodes have no relationships but are different paths.
func TestDistinctPathsKeepStartNode(t *testing.T) {
	db := NewDB()
	a1 := db.CreateNode([]string{"A"}, nil)
	db.CreateNode([]string{"A"}, nil)
	b := db.CreateNode([]string{"B"}, nil)
	if _, err := db.CreateRel(a1.ID, b.ID, "E", nil); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, db, `MATCH p = (a:A)-[*0..1]->(b) RETURN DISTINCT p`)
	// (a1), (a1)-[E]->(b), (a2).
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v, want 3 distinct paths", res.Rows)
	}
}

// TestRowKeyStringsSelfDelimiting: string keys carry their length, so
// adjacent columns cannot run together.
func TestRowKeyStringsSelfDelimiting(t *testing.T) {
	cols := []string{"a", "b"}
	k1 := rowKey(cols, Row{"a": "x;", "b": "y"})
	k2 := rowKey(cols, Row{"a": "x", "b": ";y"})
	if k1 == k2 {
		t.Fatalf("distinct rows share key %q", k1)
	}
}

// randomDB builds a small random graph with D/P/V edges.
func randomDB(t *testing.T, rng *rand.Rand, n int) *DB {
	t.Helper()
	db := NewDB()
	labels := []string{"Object", "Call", "Param"}
	for i := 0; i < n; i++ {
		db.CreateNode([]string{labels[rng.Intn(len(labels))]}, map[string]Value{"i": int64(i)})
	}
	types := []string{"D", "P", "V"}
	props := []string{"*", "a", "__proto__"}
	for i := 0; i < 2*n; i++ {
		from := NodeID(1 + rng.Intn(n))
		to := NodeID(1 + rng.Intn(n))
		typ := types[rng.Intn(len(types))]
		var p map[string]Value
		if typ != "D" {
			p = map[string]Value{"prop": props[rng.Intn(len(props))]}
		}
		if _, err := db.CreateRel(from, to, typ, p); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestExecBoundMatchesWhereID: a query run with a variable bound in
// advance returns exactly the rows, in order, of the same query
// filtered with WHERE id(v) = <id>, wherever v sits in the pattern.
func TestExecBoundMatchesWhereID(t *testing.T) {
	bodies := []struct{ match, ret, v string }{
		{"MATCH (sub)-[:V*0..6]->(mid)-[v:V]->(ver)-[p:P]->(val)", "RETURN DISTINCT ver, val", "sub"},
		{"MATCH (a)-[:D|P*1..3]->(b)", "RETURN a, b", "b"},
		{"MATCH p = (a:Object)-[:P*0..2]->(b)", "RETURN p", "a"},
		{"MATCH (a)-[r:V]->(b), (b)-[:P]->(c)", "RETURN a, r, c", "c"},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		db := randomDB(t, rng, 4+rng.Intn(12))
		for _, body := range bodies {
			q, err := ParseQuery(body.match + " " + body.ret)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range db.AllNodes() {
				want := mustQuery(t, db, fmt.Sprintf("%s WHERE id(%s) = %d %s", body.match, body.v, n.ID, body.ret))
				got, err := db.ExecBound(q, map[string]*Node{body.v: n})
				if err != nil {
					t.Fatalf("ExecBound: %v", err)
				}
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("%s with %s=%d: %d rows, want %d", body.match, body.v, n.ID, len(got.Rows), len(want.Rows))
				}
				for i := range want.Rows {
					if rowKey(want.Columns, want.Rows[i]) != rowKey(got.Columns, got.Rows[i]) {
						t.Fatalf("%s with %s=%d: row %d differs", body.match, body.v, n.ID, i)
					}
				}
			}
		}
	}
}

func TestExecBoundRejectsForeignNode(t *testing.T) {
	db, _ := buildSample(t)
	_, ns := buildSample(t)
	q, err := ParseQuery(`MATCH (a)-->(b) RETURN b`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecBound(q, map[string]*Node{"a": ns["p1"]}); err == nil {
		t.Fatal("a node of another database must be rejected")
	}
	if _, err := db.ExecBound(q, map[string]*Node{"a": nil}); err == nil {
		t.Fatal("a nil node must be rejected")
	}
}

// TestExecBoundRejectsNonNodeVar: only node-pattern variables can be
// bound; a name the query lacks, or one naming a relationship or a
// path, has no `WHERE id(v) = N` equivalent and is an error.
func TestExecBoundRejectsNonNodeVar(t *testing.T) {
	db, ns := buildSample(t)
	q, err := ParseQuery(`MATCH p = (a)-[r]->(b) RETURN b`)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"missing", "r", "p"} {
		_, err := db.ExecBound(q, map[string]*Node{name: ns["p1"]})
		var ee *ExecError
		if !errors.As(err, &ee) {
			t.Errorf("binding %q: got %v, want an ExecError", name, err)
		}
	}
	if _, err := db.ExecBound(q, map[string]*Node{"a": ns["p1"]}); err != nil {
		t.Errorf("binding node variable a: %v", err)
	}
}

// TestExecLeavesQueryUntouched: parsed queries are shared read-only
// across concurrent scans, so executing one must not change it.
func TestExecLeavesQueryUntouched(t *testing.T) {
	db, ns := buildSample(t)
	for _, src := range []string{
		`MATCH p = (a:Param {source:true})-[:D*1..4]->(c:Call) RETURN DISTINCT p, c.name ORDER BY c.name LIMIT 2`,
		`MATCH (a)-[r:P]->(b), (b)-[:V*0..3]->(c) WHERE a.name <> 'x' RETURN a, r, c`,
		`MATCH (a) RETURN count(a)`,
	} {
		q, err := ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := ParseQuery(src)
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
		if _, err := db.ExecBound(q, map[string]*Node{"a": ns["o1"]}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(q, fresh) {
			t.Errorf("Exec mutated the parsed query %q", src)
		}
	}
}
