package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/queries"
	"repro/internal/server"
)

// The serve-edit request mix. Each client owns a disjoint set of
// packages and draws its ops from its own seeded generator, so a
// client's op stream depends only on (seed, client) and every warm
// re-submission differs from that package's previous submission in
// exactly one file. Every block of 20 ops holds, in a seeded order:
//
//   - 15 warm re-submissions of a multi-file package with one file
//     edited (75%): the incremental caches' hit path, as in the
//     repository's BENCH_incremental and BENCH_serve warm cases;
//   - 2 first-seen packages (10%): cold scans with fragment and store
//     writes, as in BENCH_serve's cold case;
//   - 3 tree: true re-submissions with one dependency edited (15%):
//     deptree and stitching, as in BENCH_deps.
//
// No measured traffic mix of editor or CI clients exists for this
// scanner, so the shares are an assumption: warm ops are the majority
// so that op_p50_ms reads the warm path, and the cold and tree shares
// are large enough that op_p95_ms has well over ten samples of each
// beyond it. Exact shares keep the slow op kinds from moving the
// percentiles between seeds.
var opBlock = []string{"cold", "cold", "tree", "tree", "tree",
	"warm", "warm", "warm", "warm", "warm", "warm", "warm", "warm",
	"warm", "warm", "warm", "warm", "warm", "warm", "warm"}

const (
	warmPerClient     = 24 // multi-file packages each client keeps warm
	modulesPerPackage = 5  // ground-truth packages bundled as one package's modules
	bigTreesPerClient = 2  // generated node_modules trees per client
	bigTreeLibs       = 6  // library dependencies of a generated tree
)

// servePkg is one logical package a client re-submits: its current file
// set, the annotations that judge it, and its edit state.
type servePkg struct {
	name  string
	files []server.SourceFileJSON // sorted by Rel; current content
	base  []string                // content before any edit, by file
	mods  []*dataset.Package      // flat packages: the dataset package in each file
	tree  *dataset.TreeCase       // tree packages: file-qualified annotations
	edits []int                   // indices of the files an edit may change
	rev   int
}

// serveOp is one POST /v1/scan a client sends.
type serveOp struct {
	kind string // "warm", "cold" or "tree"
	name string
	req  server.ScanRequest
	mods []*dataset.Package
	tree *dataset.TreeCase
}

// serveStream is one client's deterministic op generator.
type serveStream struct {
	id      int
	clients int
	rng     *rand.Rand
	warm    []*servePkg
	trees   []*servePkg
	gt      []*dataset.Package // the pool first-seen packages are drawn from
	cold    int
	block   []string // op kinds left in the current block
}

// serveInputs generates every client's stream from seed. tiny shrinks
// the per-client package sets for tests.
func serveInputs(seed int64, clients int, tiny bool) []*serveStream {
	vulcan, secbench := dataset.GroundTruth(seed)
	gt := append(append([]*dataset.Package(nil), vulcan.Packages...), secbench.Packages...)
	// Order the corpus by (CWE, class), so that evenly spaced picks
	// take every class in proportion and the mix's accuracy and cost do
	// not hinge on which packages a seed happens to draw.
	sort.SliceStable(gt, func(i, j int) bool {
		if gt[i].CWE != gt[j].CWE {
			return gt[i].CWE < gt[j].CWE
		}
		return gt[i].Class < gt[j].Class
	})
	cases := dataset.TreeCases()
	warmN, bigN := warmPerClient, bigTreesPerClient
	if tiny {
		warmN, bigN = 4, 1
	}
	// The generated trees' libraries are benign packages of the wild
	// corpus: real package code the scanner must find nothing in.
	libsPerTree := bigTreeLibs + bigTreeLibs/3
	benign := dataset.Collected(seed, dataset.CollectedMix{Benign: bigN * clients * libsPerTree}).Packages
	streams := make([]*serveStream, clients)
	for c := range streams {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		s := &serveStream{id: c, clients: clients, rng: rng, gt: gt}
		for k := 0; k < warmN; k++ {
			// Module j of every warm package comes from the j-th fifth
			// of the class-ordered corpus, so each package mixes classes.
			b, total := k*clients+c, warmN*clients
			mods := make([]*dataset.Package, modulesPerPackage)
			for j := range mods {
				mods[j] = gt[evenPick(j*total+b, total*modulesPerPackage, len(gt))]
			}
			s.warm = append(s.warm, bundle(fmt.Sprintf("warm-c%d-%d", c, k), mods, ""))
		}
		for i := range cases {
			if i%clients == c {
				tc := cases[i]
				s.trees = append(s.trees, treePackageOf(fmt.Sprintf("%s-c%d", tc.Name, c), &tc))
			}
		}
		for k := 0; k < bigN; k++ {
			t := k*clients + c
			tc := bigTree(fmt.Sprintf("big-c%d-%d", c, k), k%2 == 0, benign[t*libsPerTree:(t+1)*libsPerTree])
			s.trees = append(s.trees, treePackageOf(tc.Name, tc))
		}
		streams[c] = s
	}
	return streams
}

// evenPick is the index of pick i of n evenly spaced picks from size
// items.
func evenPick(i, n, size int) int {
	return (2*i + 1) * size / (2 * n)
}

// warmups are the submissions that seed a client's packages before
// timing starts.
func (s *serveStream) warmups() []serveOp {
	var ops []serveOp
	for _, p := range s.warm {
		ops = append(ops, p.op("warm"))
	}
	for _, p := range s.trees {
		ops = append(ops, p.op("tree"))
	}
	return ops
}

// next draws the client's next op.
func (s *serveStream) next() serveOp {
	if len(s.block) == 0 {
		s.block = append(s.block, opBlock...)
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	kind := s.block[0]
	s.block = s.block[1:]
	switch kind {
	case "cold":
		s.cold++
		// A golden-ratio walk over the class-ordered corpus: first-seen
		// packages cover the classes evenly however few a run sends.
		mods := make([]*dataset.Package, modulesPerPackage)
		for j := range mods {
			walk := math.Mod(float64((s.cold*s.clients+s.id)*modulesPerPackage+j)*0.6180339887498949, 1)
			mods[j] = s.gt[int(walk*float64(len(s.gt)))]
		}
		// The package's name tags every file, so no content hash was
		// seen before.
		name := fmt.Sprintf("cold-c%d-%d", s.id, s.cold)
		return bundle(name, mods, "// first seen "+name).op("cold")
	case "tree":
		p := s.trees[s.rng.Intn(len(s.trees))]
		p.edit(p.edits[s.rng.Intn(len(p.edits))])
		return p.op("tree")
	default:
		p := s.warm[s.rng.Intn(len(s.warm))]
		p.edit(p.edits[s.rng.Intn(len(p.edits))])
		return p.op("warm")
	}
}

// edit changes file i of the package by re-tagging its last line, so
// the submission differs from the previous one in that file only and
// every annotated line keeps its number.
func (p *servePkg) edit(i int) {
	p.rev++
	p.files[i].Src = appendLine(p.base[i], fmt.Sprintf("// edit %d", p.rev))
}

func (p *servePkg) op(kind string) serveOp {
	files := append([]server.SourceFileJSON(nil), p.files...)
	return serveOp{kind: kind, name: p.name, mods: p.mods, tree: p.tree,
		req: server.ScanRequest{Name: p.name, Files: files, Tree: p.tree != nil}}
}

func appendLine(src, line string) string {
	if src != "" && !strings.HasSuffix(src, "\n") {
		src += "\n"
	}
	return src + line + "\n"
}

// bundle makes one multi-file package of ground-truth packages: mods[0]
// is index.js and the others lib/m<j>.js, each file unchanged (so its
// annotations hold) apart from an optional trailing tag line. The
// modules do not require one another; a scan of the bundle finds in
// each file what a scan of that package alone finds.
func bundle(name string, mods []*dataset.Package, tag string) *servePkg {
	p := &servePkg{name: name, mods: mods}
	for j, m := range mods {
		rel := "index.js"
		if j > 0 {
			rel = fmt.Sprintf("lib/m%d.js", j)
		}
		src := m.Source
		if tag != "" {
			src = appendLine(src, tag)
		}
		p.files = append(p.files, server.SourceFileJSON{Rel: rel, Src: src})
		p.base = append(p.base, src)
		p.edits = append(p.edits, j)
	}
	return p
}

// treePackageOf wraps a tree case; an edit may change any JavaScript
// file under node_modules.
func treePackageOf(name string, tc *dataset.TreeCase) *servePkg {
	p := &servePkg{name: name, tree: tc}
	for _, f := range tc.Files {
		p.files = append(p.files, server.SourceFileJSON{Rel: f.Rel, Src: f.Src})
	}
	sort.Slice(p.files, func(i, j int) bool { return p.files[i].Rel < p.files[j].Rel })
	for i, f := range p.files {
		p.base = append(p.base, f.Src)
		if strings.HasPrefix(f.Rel, "node_modules/") && strings.HasSuffix(f.Rel, ".js") {
			p.edits = append(p.edits, i)
		}
	}
	return p
}

// bigTree generates a larger node_modules tree in the shape of the
// repository's BenchmarkDepsRescan: a root that forwards its API
// argument to a runner dependency (which executes it when vulnerable),
// plus library dependencies, every third with its own nested
// node_modules. The libraries' code is libs, benign wild-corpus
// packages (bigTreeLibs of them, then one per nested dependency). The
// only annotated sink is the runner's exec.
func bigTree(name string, vulnerable bool, libs []*dataset.Package) *dataset.TreeCase {
	deps := map[string]string{"runner": "^1.0.0"}
	root := "var runner = require('runner');\n"
	var files []dataset.TreeFile
	nested := bigTreeLibs
	for k := 0; k < bigTreeLibs; k++ {
		lib := fmt.Sprintf("lib%d", k)
		deps[lib] = "^1.0.0"
		root += fmt.Sprintf("var %s = require('%s');\n", lib, lib)
		dir := "node_modules/" + lib
		src := libs[k].Source
		var libDeps map[string]string
		if k%3 == 2 {
			// A nested private dependency, resolved by node_modules
			// walk-up from the library.
			util := "util-" + lib
			src = fmt.Sprintf("var util = require('%s');\n", util) + src
			libDeps = map[string]string{util: "^2.0.0"}
			udir := dir + "/node_modules/" + util
			files = append(files,
				dataset.TreeFile{Rel: udir + "/package.json", Src: manifestJSON(util, "2.0.1", nil)},
				dataset.TreeFile{Rel: udir + "/index.js", Src: libs[nested].Source})
			nested++
		}
		files = append(files,
			dataset.TreeFile{Rel: dir + "/package.json", Src: manifestJSON(lib, "1.0.0", libDeps)},
			dataset.TreeFile{Rel: dir + "/index.js", Src: src})
	}
	root += "function entry(input) {\n\trunner.run('git ' + input);\n}\nmodule.exports = entry;\n"
	body := "const { exec } = require('child_process');\nfunction run(cmd) {\n\texec('git status');\n}\nmodule.exports = { run: run };\n"
	if vulnerable {
		body = "const { exec } = require('child_process');\nfunction run(cmd) {\n\texec(cmd);\n}\nmodule.exports = { run: run };\n"
	}
	files = append(files,
		dataset.TreeFile{Rel: "package.json", Src: manifestJSON(name, "1.0.0", deps)},
		dataset.TreeFile{Rel: "index.js", Src: root},
		dataset.TreeFile{Rel: "node_modules/runner/package.json", Src: manifestJSON("runner", "1.0.0", nil)},
		dataset.TreeFile{Rel: "node_modules/runner/index.js", Src: body})
	tc := &dataset.TreeCase{Name: name, Vulnerable: vulnerable, CWE: queries.CWECommandInjection, Files: files}
	if vulnerable {
		tc.Annotated = []dataset.TreeAnnotation{{CWE: queries.CWECommandInjection, File: "node_modules/runner/index.js", Line: 3}}
	}
	return tc
}

// manifestJSON renders a package.json with sorted dependencies.
func manifestJSON(name, version string, deps map[string]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "{\n  %q: %q,\n  %q: %q,\n  %q: %q", "name", name, "version", version, "main", "index.js")
	if len(deps) > 0 {
		b.WriteString(",\n  \"dependencies\": {")
		for i, k := range sortedKeys(deps) {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "\n    %q: %q", k, deps[k])
		}
		b.WriteString("\n  }")
	}
	b.WriteString("\n}\n")
	return b.String()
}
