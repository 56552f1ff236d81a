package scanner

import (
	"encoding/hex"
	"testing"

	"repro/internal/analysis"
	"repro/internal/graphdb"
	"repro/internal/mdg"
	"repro/internal/queries"
)

// The on-disk format of the persistent store is pinned byte for byte:
// a `-cache-dir` store written by an earlier build must keep hitting,
// so a refactor of the codecs may not change a single byte of their
// output. goldenStore holds the encodings of fixed inputs; FuzzStoreDecode
// seeds its corpus with them.

// goldenGraph is a small graph exercising every field the fragment
// codec writes: labels, sites, lines, files, the source/exported/call-
// args flags, call and function metadata, and dep/prop edges.
func goldenGraph() *mdg.Graph {
	g := mdg.New()
	obj := g.Alloc(mdg.RoleObj, 1, 0, "", mdg.KindObject, "opts", 3)
	param := g.Alloc(mdg.RoleParam, 2, 0, "", mdg.KindParam, "cmd", 2)
	fn := g.Alloc(mdg.RoleObj, 3, 0, "", mdg.KindFunc, "run", 2)
	call := g.Alloc(mdg.RoleObj, 4, 0, "", mdg.KindCall, "exec", 5)
	for _, l := range []mdg.Loc{obj, param, fn, call} {
		g.Node(l).File = "lib/run.js"
	}
	g.Node(param).Source = true
	g.Node(fn).Exported = true
	g.Node(fn).FuncName = "run"
	g.Node(fn).ParamLocs = []mdg.Loc{param}
	g.Node(fn).RetLoc = obj
	g.Node(call).CallName = "child_process.exec"
	g.Node(call).CallArgs = [][]mdg.Loc{{param, obj}, nil}
	g.AddDep(param, call)
	g.AddEdge(mdg.Edge{From: obj, To: param, Type: mdg.Prop, Prop: "cmd"})
	return g
}

// goldenRels and goldenResult are a built component: its files and its
// analysis result.
var goldenRels = []string{"index.js", "lib/run.js"}

func goldenResult() *analysis.Result {
	return &analysis.Result{
		Graph: goldenGraph(),
		Functions: map[string]*analysis.FuncSummary{
			"lib/run.js:run": {Loc: 3, Params: []mdg.Loc{2}, ThisLoc: mdg.NoLoc, RetLoc: 1, Exported: true},
			"index.js:main":  {Loc: 4, ThisLoc: 1},
		},
		HasRealExports: true,
		Externals:      map[string]mdg.Loc{"child_process": 1},
		CalleeLocs:     map[mdg.Loc][]mdg.Loc{4: {3}},
		CallThis:       map[mdg.Loc][]mdg.Loc{4: {1, 2}},
		ModuleEnv: map[string]analysis.ModuleLocs{
			"index.js":   {Module: 1, Exports: 2},
			"lib/run.js": {Module: 3, Exports: 4},
		},
	}
}

func goldenFacts() *fileFacts {
	return &fileFacts{
		requires:  []string{"./lib/run", "child_process"},
		freeReads: map[string]bool{"shared": true, "unread": false},
		assigned:  map[string]bool{"shared": true, "x": true},
		mutated:   map[string]bool{"process": true},
		readRoots: map[string]bool{"config": true, "m:./lib/run": true},
	}
}

func goldenDetect() *detectResult {
	return &detectResult{
		findings: []queries.Finding{
			{CWE: queries.CWECommandInjection, SinkName: "child_process.exec", SinkLine: 5,
				SinkFile: "lib/run.js", Source: "cmd", Path: []graphdb.NodeID{2, 4}},
			{CWE: queries.CWEPrototypePollution, SinkLine: 9, SinkFile: "index.js", Source: "key"},
		},
		truncated: 1,
	}
}

// goldenStore maps each codec to the hex of its output on the fixed
// inputs above.
var goldenStore = map[string]string{
	"fragment": "01040100046f70747301030a6c69622f72756e2e6a730000000000020303636d" +
		"6402020a6c69622f72756e2e6a73010000000003020372756e03020a6c69622f" +
		"72756e2e6a7302000372756e0102010401046578656304050a6c69622f72756e" +
		"2e6a7304126368696c645f70726f636573732e65786563020202010000000002" +
		"01020103636d640204000004",
	"fragEntry": "020208696e6465782e6a730a6c69622f72756e2e6a7301020d696e6465782e6a" +
		"733a6d61696e04000100000e6c69622f72756e2e6a733a72756e030102000101" +
		"010d6368696c645f70726f63657373010104010301040201020208696e646578" +
		"2e6a7301020a6c69622f72756e2e6a73030401040100046f70747301030a6c69" +
		"622f72756e2e6a730000000000020303636d6402020a6c69622f72756e2e6a73" +
		"010000000003020372756e03020a6c69622f72756e2e6a7302000372756e0102" +
		"010401046578656304050a6c69622f72756e2e6a7304126368696c645f70726f" +
		"636573732e6578656302020201000000000201020103636d640204000004",
	"facts": "0202092e2f6c69622f72756e0d6368696c645f70726f63657373010673686172" +
		"656402067368617265640178010770726f636573730206636f6e6669670b6d3a" +
		"2e2f6c69622f72756e",
	"detect": "7b2276223a322c2266696e64696e6773223a5b7b22435745223a224357452d37" +
		"38222c2253696e6b4e616d65223a226368696c645f70726f636573732e657865" +
		"63222c2253696e6b4c696e65223a352c2253696e6b46696c65223a226c69622f" +
		"72756e2e6a73222c22536f75726365223a22636d64222c2250617468223a5b32" +
		"2c345d2c2250726f76656e616e6365223a7b22456e747279223a22222c22486f" +
		"7073223a6e756c6c2c2246616c6c6261636b223a66616c73652c224465705061" +
		"7468223a6e756c6c7d7d2c7b22435745223a224357452d31333231222c225369" +
		"6e6b4e616d65223a22222c2253696e6b4c696e65223a392c2253696e6b46696c" +
		"65223a22696e6465782e6a73222c22536f75726365223a226b6579222c225061" +
		"7468223a6e756c6c2c2250726f76656e616e6365223a7b22456e747279223a22" +
		"222c22486f7073223a6e756c6c2c2246616c6c6261636b223a66616c73652c22" +
		"44657050617468223a6e756c6c7d7d5d2c227472756e6361746564223a317d",
}

// goldenCodecs encodes each fixed input and re-encodes a decoded body,
// per store family.
var goldenCodecs = map[string]struct {
	encode    func() []byte
	roundTrip func([]byte) ([]byte, error)
}{
	"fragment": {
		func() []byte { return mdg.AppendGraph(nil, goldenGraph()) },
		func(b []byte) ([]byte, error) {
			g := mdg.Acquire()
			defer g.Release()
			if _, err := g.Stitch(b); err != nil {
				return nil, err
			}
			return mdg.AppendGraph(nil, g), nil
		},
	},
	"fragEntry": {
		func() []byte { return encodeFragEntry(goldenRels, goldenResult()) },
		func(b []byte) ([]byte, error) {
			fe, err := decodeFragEntry("golden", b)
			if err != nil {
				return nil, err
			}
			g := mdg.Acquire()
			defer g.Release()
			fb, _, err := readFragEntry(fe.enc, g)
			if err != nil {
				return nil, err
			}
			return encodeFragEntry(fb.rels, fb.result(g)), nil
		},
	},
	"facts": {
		func() []byte { return encodeFacts(goldenFacts()) },
		func(b []byte) ([]byte, error) {
			ff, err := decodeFacts(b)
			if err != nil {
				return nil, err
			}
			return encodeFacts(ff), nil
		},
	},
	"detect": {
		func() []byte { body, _ := encodeDetectResult(goldenDetect()); return body },
		func(b []byte) ([]byte, error) {
			dr, err := decodeDetectResult(b)
			if err != nil {
				return nil, err
			}
			body, _ := encodeDetectResult(dr)
			return body, nil
		},
	},
}

// result rebuilds the analysis result a fragment body was encoded
// from, over its decoded graph g.
func (fb *fragBody) result(g *mdg.Graph) *analysis.Result {
	res := &analysis.Result{Graph: g, Functions: fb.functions(), HasRealExports: fb.hasReal}
	if len(fb.externals) > 0 {
		res.Externals = make(map[string]mdg.Loc)
		for _, e := range fb.externals {
			res.Externals[e.spec] = e.loc
		}
	}
	table := func(rows []locRow) map[mdg.Loc][]mdg.Loc {
		if len(rows) == 0 {
			return nil
		}
		m := make(map[mdg.Loc][]mdg.Loc)
		for _, row := range rows {
			m[row.loc] = row.vals
		}
		return m
	}
	res.CalleeLocs, res.CallThis = table(fb.calleeLocs), table(fb.callThis)
	if len(fb.modEnv) > 0 {
		res.ModuleEnv = make(map[string]analysis.ModuleLocs)
		for _, me := range fb.modEnv {
			res.ModuleEnv[me.file] = me.locs
		}
	}
	return res
}

// goldenBodies returns the recorded encodings, for fuzz seeds.
func goldenBodies(t testing.TB) [][]byte {
	var out [][]byte
	for _, h := range goldenStore {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestStoreFormatGolden: every store codec encodes the fixed inputs to
// the recorded bytes, and every recorded body decodes and re-encodes to
// itself.
func TestStoreFormatGolden(t *testing.T) {
	for name, c := range goldenCodecs {
		want := goldenStore[name]
		if got := hex.EncodeToString(c.encode()); got != want {
			t.Errorf("%s encoding changed:\n got %s\nwant %s", name, got, want)
		}
		data, err := hex.DecodeString(want)
		if err != nil {
			t.Fatal(err)
		}
		again, err := c.roundTrip(data)
		if err != nil {
			t.Errorf("%s: recorded bytes no longer decode: %v", name, err)
		} else if hex.EncodeToString(again) != want {
			t.Errorf("%s: decode+encode changed the recorded bytes:\n got %x", name, again)
		}
	}
}
