package graphdb

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// NumRels returns the relationship count.
func (db *DB) NumRels() int { return db.numRels }

// decodeExport writes db with ExportJSON and decodes the document.
func decodeExport(t *testing.T, db *DB) jsonGraph {
	t.Helper()
	var buf bytes.Buffer
	if err := db.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var g jsonGraph
	dec := json.NewDecoder(&buf)
	dec.UseNumber()
	if err := dec.Decode(&g); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestExportImportRoundTrip imports ExportJSON's document with
// encoding/json: every node with its id and labels, and every
// relationship by type, with no dangling endpoint.
func TestExportImportRoundTrip(t *testing.T) {
	db, _ := buildSample(t)
	g := decodeExport(t, db)
	if len(g.Nodes) != db.NumNodes() || len(g.Rels) != db.NumRels() {
		t.Fatalf("counts: %d/%d vs %d/%d", len(g.Nodes), len(g.Rels), db.NumNodes(), db.NumRels())
	}
	for i, n := range db.AllNodes() {
		if got := g.Nodes[i]; got.ID != int64(n.ID) || strings.Join(got.Labels, ":") != strings.Join(n.Labels, ":") {
			t.Errorf("node %d exported as %+v, want id %d labels %v", i, got, n.ID, n.Labels)
		}
	}
	types := map[string]int{}
	for _, r := range g.Rels {
		types[r.Type]++
		if r.From < 1 || r.From > int64(len(g.Nodes)) || r.To < 1 || r.To > int64(len(g.Nodes)) {
			t.Errorf("rel %d dangles: %d->%d", r.ID, r.From, r.To)
		}
	}
	for _, n := range db.AllNodes() {
		for _, r := range db.Out(n.ID) {
			types[r.Type]--
		}
	}
	for typ, d := range types {
		if d != 0 {
			t.Errorf("rel type %s: export count off by %d", typ, d)
		}
	}
}

// TestImportPreservesIntTypes: an int64 property is exported as a JSON
// integer, so an importer can tell it from a float.
func TestImportPreservesIntTypes(t *testing.T) {
	db := NewDB()
	db.CreateNode([]string{"N"}, map[string]Value{"line": int64(7), "ratio": 2.5})
	props := decodeExport(t, db).Nodes[0].Props
	if v, ok := props["line"].(json.Number); !ok || v.String() != "7" {
		t.Errorf("line = %#v, want the integer 7", props["line"])
	}
	if v, ok := props["ratio"].(json.Number); !ok || v.String() != "2.5" {
		t.Errorf("ratio = %#v, want 2.5", props["ratio"])
	}
}

func TestOrderBy(t *testing.T) {
	db := NewDB()
	for _, v := range []int64{3, 1, 2} {
		db.CreateNode([]string{"N"}, map[string]Value{"v": v})
	}
	res := mustQuery(t, db, `MATCH (n:N) RETURN n.v ORDER BY n.v`)
	if res.Rows[0]["n.v"] != int64(1) || res.Rows[2]["n.v"] != int64(3) {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustQuery(t, db, `MATCH (n:N) RETURN n.v ORDER BY n.v DESC`)
	if res.Rows[0]["n.v"] != int64(3) {
		t.Fatalf("desc rows = %v", res.Rows)
	}
	res = mustQuery(t, db, `MATCH (n:N) RETURN n.v ORDER BY n.v LIMIT 2`)
	if len(res.Rows) != 2 || res.Rows[1]["n.v"] != int64(2) {
		t.Fatalf("limited rows = %v", res.Rows)
	}
}

func TestSkip(t *testing.T) {
	db := NewDB()
	for i := int64(0); i < 5; i++ {
		db.CreateNode([]string{"N"}, map[string]Value{"v": i})
	}
	res := mustQuery(t, db, `MATCH (n:N) RETURN n.v ORDER BY n.v SKIP 2 LIMIT 2`)
	if len(res.Rows) != 2 || res.Rows[0]["n.v"] != int64(2) {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustQuery(t, db, `MATCH (n:N) RETURN n.v SKIP 10`)
	if len(res.Rows) != 0 {
		t.Fatalf("skip past end: %v", res.Rows)
	}
}

func TestCountAggregate(t *testing.T) {
	db, _ := buildSample(t)
	res := mustQuery(t, db, `MATCH (p:Param) RETURN count(p)`)
	if len(res.Rows) != 1 || res.Rows[0]["count(p)"] != int64(2) {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustQuery(t, db, `MATCH (p:Param) WHERE p.source = true RETURN count(p) AS sources`)
	if res.Rows[0]["sources"] != int64(1) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestInListLiteral(t *testing.T) {
	db, _ := buildSample(t)
	res := mustQuery(t, db, `MATCH (c:Call) WHERE c.name IN ['exec', 'spawn'] RETURN c.name`)
	if len(res.Rows) != 1 || res.Rows[0]["c.name"] != "exec" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOrderByString(t *testing.T) {
	db := NewDB()
	for _, s := range []string{"beta", "alpha", "gamma"} {
		db.CreateNode([]string{"S"}, map[string]Value{"s": s})
	}
	res := mustQuery(t, db, `MATCH (n:S) RETURN n.s ORDER BY n.s`)
	if res.Rows[0]["n.s"] != "alpha" || res.Rows[2]["n.s"] != "gamma" {
		t.Fatalf("rows = %v", res.Rows)
	}
}
