package scanner

import (
	"testing"

	"repro/internal/dataset"
)

// scanAliasPkg scans one dataset package as the metrics harness does
// (see packageFiles).
func scanAliasPkg(p *dataset.Package, opts Options) *Report {
	return ScanFiles(packageFiles(p), p.Name, opts)
}

// TestExportAliasPrunedPins pins the reach-gate counters for every
// export-alias template shape: how many functions each defines, how
// many the export graph prunes, and what the finding provenance looks
// like. A change in any pin means the alias resolution changed.
func TestExportAliasPrunedPins(t *testing.T) {
	cases := []struct {
		class       dataset.Class
		vulnerable  bool
		funcs       int
		pruned      int
		exports     int
		findings    int
		entryPrefix string
	}{
		{dataset.ClassDeadShadow, true, 2, 1, 1, 1, "module.exports"},
		{dataset.ClassDeadShadow, false, 2, 1, 1, 0, ""},
		{dataset.ClassAliasedExport, true, 1, 0, 1, 1, "exports."},
		{dataset.ClassAliasedExport, false, 2, 0, 2, 0, ""},
		{dataset.ClassReexportChain, true, 1, 0, 1, 1, "exports."},
		{dataset.ClassReexportChain, false, 1, 0, 1, 0, ""},
	}
	g := dataset.NewGenForTest(11)
	for _, tc := range cases {
		p := dataset.ExportAliasForTest(g, tc.class, tc.vulnerable)
		rep := scanAliasPkg(p, Options{})
		if rep.Err != nil {
			t.Fatalf("%s: %v", p.Name, rep.Err)
		}
		if rep.FuncsTotal != tc.funcs || rep.FuncsPruned != tc.pruned {
			t.Errorf("%s: funcs %d/%d pruned, want %d/%d",
				p.Name, rep.FuncsPruned, rep.FuncsTotal, tc.pruned, tc.funcs)
		}
		if rep.ExportCount != tc.exports {
			t.Errorf("%s: exports = %d, want %d", p.Name, rep.ExportCount, tc.exports)
		}
		if rep.ReachFallback {
			t.Errorf("%s: export evidence present, fallback must not fire", p.Name)
		}
		if len(rep.Findings) != tc.findings {
			t.Errorf("%s: findings = %v, want %d", p.Name, rep.Findings, tc.findings)
		}
		for _, f := range rep.Findings {
			if got := f.Provenance.Entry; len(got) < len(tc.entryPrefix) || got[:len(tc.entryPrefix)] != tc.entryPrefix {
				t.Errorf("%s: provenance entry %q, want prefix %q", p.Name, got, tc.entryPrefix)
			}
			if len(f.Provenance.Hops) == 0 {
				t.Errorf("%s: finding without hop chain: %s", p.Name, f)
			}
		}
	}
}

// TestExportAliasGroundTruth checks the corpus invariants: vulnerable
// variants carry exactly one annotation whose sink the scan detects,
// benign variants carry none and scan clean.
func TestExportAliasGroundTruth(t *testing.T) {
	c := dataset.ExportAlias(7)
	if len(c.Packages) != 12 {
		t.Fatalf("corpus size = %d, want 12", len(c.Packages))
	}
	seen := map[string]bool{}
	for _, p := range c.Packages {
		if seen[p.Name] {
			t.Fatalf("duplicate package name %s", p.Name)
		}
		seen[p.Name] = true
		rep := scanAliasPkg(p, Options{})
		if rep.Err != nil {
			t.Fatalf("%s: %v", p.Name, rep.Err)
		}
		vulnerable := p.CWE != ""
		if vulnerable {
			if len(p.Annotated) != 1 {
				t.Errorf("%s: %d annotations, want 1", p.Name, len(p.Annotated))
				continue
			}
			a := p.Annotated[0]
			hit := false
			for _, f := range rep.Findings {
				if f.CWE == a.CWE && f.SinkLine == a.Line {
					hit = true
				}
			}
			if !hit {
				t.Errorf("%s: annotated sink %s:%d not detected; findings %v",
					p.Name, a.CWE, a.Line, rep.Findings)
			}
		} else {
			if len(p.Annotated) != 0 || len(rep.Findings) != 0 {
				t.Errorf("%s: benign variant has annotations %v / findings %v",
					p.Name, p.Annotated, rep.Findings)
			}
		}
	}
}
