package exports

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/js/normalize"
)

// resultView is the query surface Result and refResult share.
type resultView interface {
	Reachable(qname string) bool
	OwnerOf(file string, line int) string
	EntryName(qname string) string
	PathTo(file string, line int) (string, []string, bool)
}

// resultFields is the exported state of a Result or refResult.
type resultFields struct {
	exports            []Export
	funcs              map[string]*FuncInfo
	order              []string
	calls              map[string][]string
	exported, escaped  map[string]bool
	fallback, converge bool
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, fmt.Sprintf("%s=%v", k, v))
	}
	sort.Strings(out)
	return out
}

// dumpResult renders every observable of one analysis — all fields,
// every function's entry name and reachability, and owner and
// provenance of every line of every file — plus the steps charged.
func dumpResult(progs []*core.Program, f resultFields, v resultView, steps int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "steps=%d fallback=%v converged=%v\n", steps, f.fallback, f.converge)
	for _, e := range f.exports {
		fmt.Fprintf(&sb, "export %+v\n", e)
	}
	fmt.Fprintf(&sb, "funcs=%d order=%v\n", len(f.funcs), f.order)
	for _, q := range f.order {
		fi := f.funcs[q]
		fmt.Fprintf(&sb, "func %s def=%p file=%s owner=%s entry=%q reach=%v\n",
			fi.QName, fi.Def, fi.File, fi.Owner, v.EntryName(q), v.Reachable(q))
	}
	callers := make([]string, 0, len(f.calls))
	for c := range f.calls {
		callers = append(callers, c)
	}
	sort.Strings(callers)
	for _, c := range callers {
		fmt.Fprintf(&sb, "calls %s -> %v\n", c, f.calls[c])
	}
	fmt.Fprintf(&sb, "exported %v\nescaped %v\n", sortedKeys(f.exported), sortedKeys(f.escaped))
	for _, p := range progs {
		maxLine := 0
		core.Walk(p.Body, func(s core.Stmt) bool {
			if s.Line() > maxLine {
				maxLine = s.Line()
			}
			return true
		})
		for ln := -1; ln <= maxLine+1; ln++ {
			entry, hops, ok := v.PathTo(p.FileName, ln)
			fmt.Fprintf(&sb, "%s:%d owner=%q path=%q %v %v\n", p.FileName, ln, v.OwnerOf(p.FileName, ln), entry, hops, ok)
		}
	}
	return sb.String()
}

func dumpDense(progs []*core.Program, limits budget.Limits) string {
	b := budget.New(limits)
	b.BeginPhase("reach-gate")
	r := Analyze(progs, b)
	return dumpResult(progs, resultFields{r.Exports, r.Funcs, r.Order, r.Calls, r.Exported, r.Escaped, r.Fallback, r.Converged}, r, b.PhaseUsages()[0].Steps)
}

func dumpReference(progs []*core.Program, limits budget.Limits) string {
	b := budget.New(limits)
	b.BeginPhase("reach-gate")
	r := refAnalyze(progs, b)
	return dumpResult(progs, resultFields{r.Exports, r.Funcs, r.Order, r.Calls, r.Exported, r.Escaped, r.Fallback, r.Converged}, r, b.PhaseUsages()[0].Steps)
}

// firstDiff returns the first differing line of two dumps.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  dense:     %s\n  reference: %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(al), len(bl))
}

// normalizeFiles normalizes a package's files in the given order,
// skipping files that fail to parse (as the scanner's front end
// drops them).
func normalizeFiles(names []string, srcs map[string]string) []*core.Program {
	var out []*core.Program
	for _, name := range names {
		p, err := normalize.File(srcs[name], name)
		if err == nil {
			out = append(out, p)
		}
	}
	return out
}

// packageProgs normalizes a dataset package in the scanner's sorted
// file order, its main file as index.js.
func packageProgs(p *dataset.Package) []*core.Program {
	srcs := map[string]string{"index.js": p.Source}
	names := []string{"index.js"}
	for n, s := range p.Extra {
		srcs[n] = s
		names = append(names, n)
	}
	sort.Strings(names)
	return normalizeFiles(names, srcs)
}

// equivalenceCorpus is every package of the ground truth, the wild
// corpus stand-in, the crash corpus and the flattened dependency
// trees, normalized.
func equivalenceCorpus(t testing.TB) [][]*core.Program {
	t.Helper()
	vulcan, secbench := dataset.GroundTruth(1)
	corpora := []*dataset.Corpus{vulcan, secbench, dataset.Collected(1, dataset.DefaultCollectedMix(2000)), dataset.Pathological()}
	var out [][]*core.Program
	for _, c := range corpora {
		for _, p := range c.Packages {
			if progs := packageProgs(p); len(progs) > 0 {
				out = append(out, progs)
			}
		}
	}
	for _, tc := range dataset.TreeCases() {
		srcs := map[string]string{}
		var names []string
		for _, f := range dataset.FlattenTree(tc) {
			srcs[f.Rel] = f.Src
			names = append(names, f.Rel)
		}
		out = append(out, normalizeFiles(names, srcs))
	}
	return out
}

// TestDenseMatchesReference pins the dense interpreter to the
// string-keyed reference it replaced: identical Result fields, owner
// and provenance of every line, and identical budget steps — uncapped
// and under step caps that cut the lowering, the passes, the export
// closure and the reachability BFS at different points.
func TestDenseMatchesReference(t *testing.T) {
	corpus := equivalenceCorpus(t)
	caps := []int{0, 1, 5, 17, 40, 90, 200}
	if testing.Short() {
		caps = []int{0, 17, 90}
	}
	mismatches := 0
	for i, progs := range corpus {
		for _, c := range caps {
			limits := budget.Limits{MaxSteps: c}
			dense := dumpDense(progs, limits)
			ref := dumpReference(progs, limits)
			if dense != ref {
				mismatches++
				if mismatches <= 5 {
					t.Errorf("package %d (%s) cap %d: %s", i, progs[0].FileName, c, firstDiff(dense, ref))
				}
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d mismatching (package, cap) pairs over %d packages", mismatches, len(corpus))
	}
}

// FuzzExportsEquivalence runs arbitrary sources through normalize and
// both interpreters, uncapped and under a small step cap.
func FuzzExportsEquivalence(f *testing.F) {
	for _, s := range []string{
		"function run(x) { return x; }\nmodule.exports = run;",
		"var api = module.exports; api.run = function (a) { exec(a); };",
		"exports = module.exports = { a: a }; function a(x) {} exports.b = a;",
		"var impl = { run: run }; function run(x) {} module.exports = Object.assign({}, impl);",
		"var l = []; l.push(f); function f() {} module.exports = l.concat([g]); function g() {}",
		"function cb(d) {} dispatch(1, cb); for (var k in o) { o[k] = cb; } module.exports = Object.keys(o);",
		"var lib = require('./index'); module.exports = { run: lib.run, j: JSON.parse(s) };",
		"var o = {}; o[k] = v; v = f; function f() {}",
		"function f(a, b) { if (a) { while (b) { b = b.next; } } return a[b]; } f.helper = f; module.exports = f;",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := normalize.File(src, "index.js")
		if err != nil {
			return
		}
		progs := []*core.Program{p}
		for _, c := range []int{0, 7} {
			limits := budget.Limits{MaxSteps: c}
			if dense, ref := dumpDense(progs, limits), dumpReference(progs, limits); dense != ref {
				t.Fatalf("cap %d: %s", c, firstDiff(dense, ref))
			}
		}
	})
}

// BenchmarkExportsAnalyze times the export-graph pass alone over the
// ground truth and the wild-corpus stand-in (front end excluded), for
// the dense interpreter and the string-keyed reference. ns/pkg and
// allocs/op (one op = one corpus pass) are the layer's cost.
func BenchmarkExportsAnalyze(b *testing.B) {
	vulcan, secbench := dataset.GroundTruth(1)
	gt := append(append([]*dataset.Package(nil), vulcan.Packages...), secbench.Packages...)
	wild := dataset.Collected(1, dataset.DefaultCollectedMix(2000)).Packages
	for _, corpus := range []struct {
		name string
		pkgs []*dataset.Package
	}{{"gt", gt}, {"wild", wild}} {
		var all [][]*core.Program
		for _, p := range corpus.pkgs {
			all = append(all, packageProgs(p))
		}
		for _, impl := range []struct {
			name string
			run  func([]*core.Program)
		}{
			{"dense", func(p []*core.Program) { Analyze(p, nil) }},
			{"reference", func(p []*core.Program) { refAnalyze(p, nil) }},
		} {
			b.Run(corpus.name+"/"+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, progs := range all {
						impl.run(progs)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(all)), "ns/pkg")
			})
		}
	}
}
