package scanner

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/deptree"
	"repro/internal/js/normalize"
	"repro/internal/js/parser"
	"repro/internal/mdg"
	"repro/internal/queries"
)

// A warm state holds each fragment as its store record and decodes it
// straight into an acquired graph when detection or a tree stitch
// reads it. These tests hold that decode to the build: decoded into a
// recycled graph whose previous owner left every kind of state behind,
// a record gives the graph the build produced — every node field and
// every out-edge in order, at the fragment's stitch offset — and the
// same findings.

// dirtyPool releases a graph full of junk into the graph pool — nodes
// of every kind with labels, call arguments, parameters, flags, and a
// source past the high-degree threshold — and returns it, so the
// caller can tell whether its next Acquire recycled it.
func dirtyPool() *mdg.Graph {
	g := mdg.Acquire()
	hub := g.Alloc(mdg.RoleObj, 1, 0, "", mdg.KindObject, "hub", 1)
	for i := 2; i < 400; i++ {
		l := g.Alloc(mdg.RoleCall, i, 0, "", mdg.NodeKind(i%5), fmt.Sprintf("junk%d", i), i)
		n := g.Node(l)
		n.CallName, n.FuncName, n.File = "junk.call", "junk", "junk.js"
		n.CallArgs = [][]mdg.Loc{{l, hub}, nil}
		n.ParamLocs, n.RetLoc = []mdg.Loc{hub}, hub
		n.Source, n.Exported = true, true
		g.AddEdge(mdg.Edge{From: hub, To: l, Type: mdg.Prop, Prop: "p"})
		g.AddEdge(mdg.Edge{From: l, To: hub, Type: mdg.Ver, Prop: "v"})
	}
	g.Release()
	return g
}

// lowered parses and lowers files, in order.
func lowered(t *testing.T, files []SourceFile) []*core.Program {
	t.Helper()
	progs := make([]*core.Program, 0, len(files))
	for _, f := range files {
		p, err := parser.Parse(f.Src)
		if err != nil {
			return nil
		}
		progs = append(progs, normalize.Normalize(p, f.Rel))
	}
	return progs
}

// buildFragment analyzes progs as the scan analyzes one fragment and
// encodes the record a retained state would keep.
func buildFragment(rels []string, progs []*core.Program, multiPass bool) (*analysis.Result, *fragEntry) {
	aopts := analysis.DefaultOptions()
	aopts.NoExportFallback = true
	aopts.ForceMultiPass = multiPass
	res := analysis.AnalyzeModules(progs, aopts)
	enc := encodeFragEntry(rels, res)
	return res, newFragEntry("k", enc, res.HasRealExports, res.Graph)
}

// sameImage fails unless got holds want's nodes and out-edges moved by
// off: every node field, and every node's out-list in order.
func sameImage(t *testing.T, what string, want, got *mdg.Graph, off mdg.Loc) {
	t.Helper()
	shift := func(ls []mdg.Loc) []mdg.Loc {
		if len(ls) == 0 {
			return nil // the codec writes an empty list as none
		}
		out := make([]mdg.Loc, len(ls))
		for i, l := range ls {
			out[i] = l.Shift(off)
		}
		return out
	}
	for _, a := range want.Nodes() {
		b := got.Node(a.Loc + off)
		if b == nil {
			t.Fatalf("%s: node o%d missing at o%d", what, a.Loc, a.Loc+off)
		}
		c := *a
		c.Loc, c.RetLoc, c.ParamLocs = a.Loc+off, a.RetLoc.Shift(off), shift(a.ParamLocs)
		if a.CallArgs != nil {
			c.CallArgs = make([][]mdg.Loc, len(a.CallArgs))
			for i, arg := range a.CallArgs {
				c.CallArgs[i] = shift(arg)
			}
		}
		if !reflect.DeepEqual(c, *b) {
			t.Fatalf("%s: node o%d decodes as\n%+v\nwant\n%+v", what, a.Loc, *b, c)
		}
		var wantOut []mdg.Edge
		for _, e := range want.Out(a.Loc) {
			wantOut = append(wantOut, mdg.Edge{From: e.From + off, To: e.To + off, Type: e.Type, Prop: e.Prop})
		}
		if gotOut := got.Out(a.Loc + off); !slices.Equal(wantOut, gotOut) {
			t.Fatalf("%s: out-edges of o%d decode as %v, want %v", what, a.Loc, gotOut, wantOut)
		}
	}
}

// nativeFindings detects res with the native engine under the
// package-wide export fallback rule, sorted, with provenance cleared.
func nativeFindings(res *analysis.Result, anyReal bool) []queries.Finding {
	if !anyReal {
		analysis.ApplyExportFallback(res)
	}
	rep := &Report{Engine: EngineNative}
	detectInto(rep, res, queries.DefaultConfig(), EngineNative, newBudget(Options{}, "decode"))
	fs := queries.SortFindings(rep.Findings)
	for i := range fs {
		fs[i].Provenance = queries.Provenance{}
	}
	return fs
}

// TestRehydrateMatchesBuild: over the ground truth, each package
// analyzed as one fragment, the record rehydrated into a dirtied pooled
// graph is the built graph with the build-time summaries, and detects
// the same findings.
func TestRehydrateMatchesBuild(t *testing.T) {
	vul, sec := dataset.GroundTruth(1)
	recycled, checked := 0, 0
	for i, p := range append(slices.Clone(vul.Packages), sec.Packages...) {
		if testing.Short() && i%10 != 0 {
			continue
		}
		files := packageSources(p)
		progs := lowered(t, files)
		if progs == nil {
			continue // a parse error: the scan builds no fragment
		}
		rels := make([]string, len(files))
		for j, f := range files {
			rels[j] = f.Rel
		}
		built, fe := buildFragment(rels, progs, len(progs) > 1)
		dirty := dirtyPool()
		got, err := rehydrate(fe)
		if err != nil {
			t.Fatalf("%s: rehydrate: %v", p.Name, err)
		}
		if got.Graph == dirty {
			recycled++
		}
		if got.Graph.NumNodes() != built.Graph.NumNodes() || got.Graph.NumEdges() != built.Graph.NumEdges() {
			t.Fatalf("%s: rehydrated %d/%d nodes/edges, built %d/%d", p.Name,
				got.Graph.NumNodes(), got.Graph.NumEdges(), built.Graph.NumNodes(), built.Graph.NumEdges())
		}
		sameImage(t, p.Name, built.Graph, got.Graph, 0)
		if len(got.Functions) != len(built.Functions) {
			t.Fatalf("%s: %d summaries, built %d", p.Name, len(got.Functions), len(built.Functions))
		}
		for name, fn := range built.Functions {
			want := *fn
			want.Def = nil // records keep no AST
			if len(want.Params) == 0 {
				want.Params = nil
			}
			if g := got.Functions[name]; g == nil || !reflect.DeepEqual(*g, want) {
				t.Fatalf("%s: summary %s decodes as %+v, want %+v", p.Name, name, g, want)
			}
		}
		if gf, bf := nativeFindings(got, got.HasRealExports), nativeFindings(built, built.HasRealExports); !reflect.DeepEqual(gf, bf) {
			t.Fatalf("%s: rehydrated findings %v, built %v", p.Name, gf, bf)
		}
		got.Graph.Release()
		built.Graph.Release()
		checked++
	}
	if checked == 0 || recycled == 0 {
		t.Fatalf("vacuous: %d packages checked, %d rehydrated into the dirtied graph", checked, recycled)
	}
}

// TestStitchedTreeMatchesBuild: for every dependency tree, the package
// records stitched into a dirtied pooled graph hold each built package
// graph at its offset, and the linked tree detects what a cold tree
// scan reports.
func TestStitchedTreeMatchesBuild(t *testing.T) {
	recycled := 0
	for _, tc := range dataset.TreeCases() {
		files := treeSources(tc.Files)
		fmap := make(map[string]string, len(files))
		byRel := make(map[string]SourceFile, len(files))
		for _, f := range files {
			fmap[f.Rel] = f.Src
			byRel[f.Rel] = f
		}
		tree := deptree.Build(fmap)
		var lives []liveFrag
		var builds []*analysis.Result
		anyReal := false
		for _, pkg := range tree.Packages {
			var pfiles []SourceFile
			for _, rel := range pkg.Files {
				if strings.HasSuffix(rel, ".js") {
					pfiles = append(pfiles, byRel[rel])
				}
			}
			rels := make([]string, len(pfiles))
			for j, f := range pfiles {
				rels[j] = f.Rel
			}
			built, fe := buildFragment(rels, lowered(t, pfiles), true)
			builds = append(builds, built)
			lives = append(lives, liveFrag{fe: fe, pkg: pkg, hasReal: fe.hasReal})
			anyReal = anyReal || fe.hasReal
		}

		dirty := dirtyPool()
		g := mdg.Acquire()
		if g == dirty {
			recycled++
		}
		for i, lv := range lives {
			_, off, err := readFragEntry(lv.fe.enc, g)
			if err != nil {
				t.Fatalf("%s: stitch %s: %v", tc.Name, lv.pkg.Dir, err)
			}
			sameImage(t, tc.Name+" "+lv.pkg.Dir, builds[i].Graph, g, off)
		}
		g.Release()

		dirtyPool()
		linked, err := linkTree(lives, tree, anyReal)
		if err != nil {
			t.Fatalf("%s: link: %v", tc.Name, err)
		}
		got := nativeFindings(linked, anyReal)
		linked.Graph.Release()
		want := ScanFiles(files, tc.Name, Options{Tree: true, Engine: EngineNative})
		if want.Err != nil {
			t.Fatalf("%s: cold tree scan: %v", tc.Name, want.Err)
		}
		wf := slices.Clone(want.Findings)
		for i := range wf {
			wf[i].Provenance = queries.Provenance{}
		}
		if !reflect.DeepEqual(got, queries.SortFindings(wf)) {
			t.Fatalf("%s: stitched findings %v, cold tree scan %v", tc.Name, got, wf)
		}
		if tc.Vulnerable && len(got) == 0 {
			t.Fatalf("%s: vacuous: a vulnerable tree with no findings", tc.Name)
		}
		for _, b := range builds {
			b.Graph.Release()
		}
	}
	if recycled == 0 {
		t.Fatal("vacuous: no tree stitched into the dirtied graph")
	}
}
