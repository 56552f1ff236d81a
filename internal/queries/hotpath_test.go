package queries_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graphdb"
	"repro/internal/js/normalize"
	"repro/internal/queries"
)

// oldProtoWriteScan is the write-scan text the detector ran before the
// scan started bound: it matched from every node and kept one start
// node with WHERE. It is the oracle for the bound scan.
func oldProtoWriteScan(sub graphdb.NodeID) string {
	return `
MATCH (sub)-[:V*0..6]->(mid)-[v:V]->(ver)-[p:P]->(val)
WHERE id(sub) = ` + fmt.Sprint(int64(sub)) + `
RETURN DISTINCT ver, val`
}

// loadPackage analyzes a dataset package (all its files, in sorted
// order) and loads the MDG into a database.
func loadPackage(t *testing.T, p *dataset.Package) *queries.LoadedGraph {
	t.Helper()
	files := map[string]string{"index.js": p.Source}
	for rel, src := range p.Extra {
		files[rel] = src
	}
	rels := make([]string, 0, len(files))
	for rel := range files {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	var progs []*core.Program
	for _, rel := range rels {
		prog, err := normalize.File(files[rel], rel)
		if err != nil {
			t.Fatalf("%s/%s: %v", p.Name, rel, err)
		}
		progs = append(progs, prog)
	}
	return queries.Load(analysis.AnalyzeModules(progs, analysis.DefaultOptions()))
}

func groundTruth() []*dataset.Package {
	vul, sec := dataset.GroundTruth(1)
	return append(append([]*dataset.Package(nil), vul.Packages...), sec.Packages...)
}

// TestBoundWriteScanMatchesWhereText: on every ground-truth package's
// graph, the write scan started bound at a node returns the rows, in
// order, that the old text filtering every start node by id returns —
// from every node.
func TestBoundWriteScanMatchesWhereText(t *testing.T) {
	pkgs := groundTruth()
	if testing.Short() {
		pkgs = pkgs[:len(pkgs)/8]
	}
	nonEmpty := 0
	for _, p := range pkgs {
		lg := loadPackage(t, p)
		for _, n := range lg.DB.AllNodes() {
			want, err := lg.DB.Query(oldProtoWriteScan(n.ID))
			if err != nil {
				t.Fatalf("%s: oracle: %v", p.Name, err)
			}
			got, err := queries.ProtoWrites(lg, n)
			if err != nil {
				t.Fatalf("%s: bound scan: %v", p.Name, err)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("%s: sub %d: %d rows, want %d", p.Name, n.ID, len(got.Rows), len(want.Rows))
			}
			if len(want.Rows) > 0 {
				nonEmpty++
			}
			for i, w := range want.Rows {
				g := got.Rows[i]
				if g["ver"] != w["ver"] || g["val"] != w["val"] {
					t.Fatalf("%s: sub %d: row %d = %v, want %v", p.Name, n.ID, i, g, w)
				}
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every write scan was empty; the oracle compared nothing")
	}
	t.Logf("%d start nodes with writes", nonEmpty)
}

// TestDetectConcurrentSharedQueries: detection on different graphs from
// several goroutines at once, all sharing the parsed detector queries,
// reproduces the sequential findings (run under -race to check the
// queries are only read).
func TestDetectConcurrentSharedQueries(t *testing.T) {
	var pkgs []*dataset.Package
	for i, p := range groundTruth() {
		if i%40 == 0 {
			pkgs = append(pkgs, p)
		}
	}
	cfg := queries.DefaultConfig()
	want := make([]string, len(pkgs))
	for i, p := range pkgs {
		fs, err := queries.Detect(loadPackage(t, p), cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		want[i] = fmt.Sprint(fs)
	}
	const workers = 4
	graphs := make([][]*queries.LoadedGraph, workers)
	for w := range graphs {
		for _, p := range pkgs {
			graphs[w] = append(graphs[w], loadPackage(t, p))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts at a different package, so different
			// graphs are in flight at once.
			for k := range pkgs {
				i := (k + w*len(pkgs)/workers) % len(pkgs)
				fs, err := queries.Detect(graphs[w][i], cfg)
				if err != nil {
					t.Errorf("worker %d: %s: %v", w, pkgs[i].Name, err)
					return
				}
				if got := fmt.Sprint(fs); got != want[i] {
					t.Errorf("worker %d: %s: findings %s, want %s", w, pkgs[i].Name, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}
