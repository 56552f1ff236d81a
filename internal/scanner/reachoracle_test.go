package scanner

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/queries"
)

// findingBytes renders a report's finding set in its identity-relevant
// entirety (provenance is diagnostic metadata, deliberately excluded).
func findingBytes(rep *Report) string {
	var sb strings.Builder
	for _, f := range rep.Findings {
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// oraclePackages is the full differential-oracle input: one instance
// of every dataset template (all CWEs x all behavioural classes), the
// export-alias corpus, the complete ground-truth corpora, and the
// pathological crash corpus.
func oraclePackages() []*dataset.Package {
	var pkgs []*dataset.Package
	g := dataset.NewGenForTest(3)
	classes := []dataset.Class{
		dataset.ClassPlain, dataset.ClassLoopy, dataset.ClassNoWebContext,
		dataset.ClassUnsupported, dataset.ClassBaselineOnly,
		dataset.ClassSanitized, dataset.ClassBenign,
	}
	for _, cwe := range queries.AllCWEs {
		for _, class := range classes {
			pkgs = append(pkgs, dataset.RenderForTest(g, cwe, class))
		}
	}
	pkgs = append(pkgs, dataset.ExportAlias(3).Packages...)
	vulcan, secbench := dataset.GroundTruth(1)
	pkgs = append(pkgs, vulcan.Packages...)
	pkgs = append(pkgs, secbench.Packages...)
	pkgs = append(pkgs, dataset.Pathological().Packages...)
	return pkgs
}

// TestReachGateDifferentialOracle is the soundness gate for the
// export-graph reachability pre-pass: over every dataset template,
// the full ground-truth corpus, and the pathological crash corpus, on
// all three detection engines, a gated scan must produce a
// byte-identical finding set (and failure classification) to an
// ungated one. Any divergence means the gate lost or invented a
// finding.
func TestReachGateDifferentialOracle(t *testing.T) {
	pkgs := oraclePackages()
	engines := []Engine{EngineQuery, EngineNative, EngineDifferential}

	type job struct {
		p      *dataset.Package
		engine Engine
	}
	jobs := make(chan job, len(pkgs))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				gated := scanAliasPkg(j.p, Options{Engine: j.engine})
				ungated := scanAliasPkg(j.p, Options{Engine: j.engine, NoReachGate: true})
				var msg string
				switch {
				case findingBytes(gated) != findingBytes(ungated):
					msg = "finding sets diverge:\n  gated:\n" + findingBytes(gated) +
						"  ungated:\n" + findingBytes(ungated)
				case gated.Failure != ungated.Failure:
					msg = "failure class diverges: " + gated.Failure.String() + " vs " + ungated.Failure.String()
				case gated.SkippedByReach && len(ungated.Findings) > 0:
					msg = "gate skipped detection but ungated scan found findings"
				}
				if msg != "" {
					mu.Lock()
					failures = append(failures, j.p.Name+" ("+string(j.engine)+"): "+msg)
					mu.Unlock()
				}
			}
		}()
	}
	for _, engine := range engines {
		for _, p := range pkgs {
			jobs <- job{p: p, engine: engine}
		}
	}
	close(jobs)
	wg.Wait()
	if len(failures) > 0 {
		max := len(failures)
		if max > 10 {
			max = 10
		}
		t.Fatalf("%d oracle violations, first %d:\n%s",
			len(failures), max, strings.Join(failures[:max], "\n"))
	}
}

// FuzzReachSoundness fuzzes the oracle on arbitrary sources: pruning
// decisions must never change what the scan reports.
func FuzzReachSoundness(f *testing.F) {
	f.Add(gitResetSrc)
	f.Add("var cp = require('child_process');\nfunction hit(c){cp.exec(c);}\n")
	f.Add("var api = module.exports;\napi.go = function(x){ eval(x); };\n")
	f.Add("function dead(x){ eval(x); }\nmodule.exports = function(y){ return y; };\n")
	f.Add("exports = module.exports = { run: function(k){ require('fs').readFile(k); } };\n")
	f.Add("module.exports = require('./lib');\n")
	f.Add("function f(o,k,v){ var s = o[k]; s[k] = v; }\nmodule.exports = f;\n")
	f.Fuzz(func(t *testing.T, src string) {
		gated := ScanSource(src, "fuzz.js", Options{})
		ungated := ScanSource(src, "fuzz.js", Options{NoReachGate: true})
		if findingBytes(gated) != findingBytes(ungated) {
			t.Fatalf("finding sets diverge on %q:\n  gated: %v\n  ungated: %v",
				src, gated.Findings, ungated.Findings)
		}
		if gated.SkippedByReach && len(ungated.Findings) > 0 {
			t.Fatalf("gate skipped detection on %q but ungated scan found %v",
				src, ungated.Findings)
		}
	})
}
