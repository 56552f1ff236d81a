package scanner

import (
	"testing"
	"testing/quick"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/queries"
)

// differentialClasses is every behavioural template class the dataset
// generator can render, including the sanitized and benign negatives.
var differentialClasses = []dataset.Class{
	dataset.ClassPlain,
	dataset.ClassLoopy,
	dataset.ClassUnsupported,
	dataset.ClassBaselineOnly,
	dataset.ClassBenign,
	dataset.ClassSanitized,
	dataset.ClassBaselineFPOnly,
}

// TestDifferentialEnginesOnTemplates runs the query and native
// backends over every dataset template (all four CWEs crossed with
// every class) and requires identical finding sets. The reach gate is
// disabled so the engines are exercised even on packages the gate
// would skip.
func TestDifferentialEnginesOnTemplates(t *testing.T) {
	g := dataset.NewGenForTest(1)
	for _, cwe := range queries.AllCWEs {
		for _, class := range differentialClasses {
			for variant := 0; variant < 3; variant++ {
				p := dataset.RenderForTest(g, cwe, class)
				rep := ScanSource(p.Source, p.Name, Options{
					Engine:      EngineDifferential,
					NoReachGate: true,
				})
				if rep.Err != nil {
					t.Errorf("%s (cwe %s, class %s): %v", p.Name, cwe, class, rep.Err)
				}
			}
		}
	}
}

// TestDifferentialEnginesGenerative is the testing/quick variant:
// random (seed, cwe, class) triples must never produce a finding-set
// mismatch.
func TestDifferentialEnginesGenerative(t *testing.T) {
	property := func(seed int64, cweIdx, classIdx uint8) bool {
		cwe := queries.AllCWEs[int(cweIdx)%len(queries.AllCWEs)]
		class := differentialClasses[int(classIdx)%len(differentialClasses)]
		g := dataset.NewGenForTest(seed)
		p := dataset.RenderForTest(g, cwe, class)
		rep := ScanSource(p.Source, p.Name, Options{
			Engine:      EngineDifferential,
			NoReachGate: true,
		})
		if rep.Err != nil {
			t.Logf("seed %d, cwe %s, class %s: %v", seed, cwe, class, rep.Err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialEnginesGroundTruth sweeps a slice of the ground-
// truth corpus through differential mode with the reach gate enabled,
// the configuration the evaluation actually runs.
func TestDifferentialEnginesGroundTruth(t *testing.T) {
	vul, sec := dataset.GroundTruth(42)
	pkgs := append(append([]*dataset.Package{}, vul.Packages...), sec.Packages...)
	if testing.Short() {
		pkgs = pkgs[:40]
	}
	for _, p := range pkgs {
		rep := ScanSource(p.Source, p.Name, Options{Engine: EngineDifferential})
		if rep.Err != nil {
			t.Errorf("%s: %v", p.Name, rep.Err)
		}
	}
}

// TestDifferentialEnginesWild runs differential mode over the
// wild-corpus stand-in (60% benign, dynamic requires, sanitized and
// vulnerable packages) with the reach gate on: the input the
// production default engine sees most. It is cheap enough to run in
// full under -short.
func TestDifferentialEnginesWild(t *testing.T) {
	for _, p := range dataset.Collected(1, dataset.DefaultCollectedMix(2000)).Packages {
		rep := scanAliasPkg(p, Options{Engine: EngineDifferential})
		if rep.Err != nil || rep.Failure != budget.ClassNone {
			t.Errorf("%s: class=%q err=%v", p.Name, rep.Failure, rep.Err)
		}
	}
}

// TestEngineReportedFindingsAgree pins the native backend's findings
// to the query backend's on a known-vulnerable program, including the
// reported metadata.
func TestEngineReportedFindingsAgree(t *testing.T) {
	src := `
const { exec } = require('child_process');
function git_reset(config, op, branch_name, url) {
	var options = config[op];
	options[branch_name] = url;
	options.cmd = 'git reset HEAD~';
	exec(options.cmd + options.commit);
}
module.exports = git_reset;
`
	q := ScanSource(src, "gitreset.js", Options{Engine: EngineQuery})
	n := ScanSource(src, "gitreset.js", Options{Engine: EngineNative})
	if q.Err != nil || n.Err != nil {
		t.Fatalf("errors: query=%v native=%v", q.Err, n.Err)
	}
	if len(q.Findings) == 0 {
		t.Fatal("query engine found nothing")
	}
	if err := DiffFindings(q.Findings, n.Findings); err != nil {
		t.Fatal(err)
	}
	for i := range n.Findings {
		if len(n.Findings[i].Path) == 0 {
			t.Errorf("native finding %d has no witness path: %+v", i, n.Findings[i])
		}
	}
	for rep, phase := range map[*Report]string{n: PhaseDetectNative, q: PhaseDetectQuery} {
		last := rep.Phases[len(rep.Phases)-1]
		if _, traversal := budget.SplitTime(rep.Phases); last.Phase != phase || traversal != last.Dur || traversal == 0 {
			t.Errorf("%s: detection row not recorded as traversal time: %+v", phase, rep.Phases)
		}
	}
}

func TestParseEngine(t *testing.T) {
	for s, want := range map[string]Engine{
		"": EngineNative, "native": EngineNative,
		"query": EngineQuery, "differential": EngineDifferential,
	} {
		if got, err := ParseEngine(s); err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %q, %v; want %q", s, got, err, want)
		}
	}
	for _, s := range []string{"bogus", "fallback"} {
		if _, err := ParseEngine(s); err == nil {
			t.Errorf("ParseEngine(%q) must be rejected", s)
		}
	}
	rep := ScanSource("module.exports = 1;", "x.js", Options{Engine: "bogus"})
	if rep.Err == nil {
		t.Error("scan with unknown engine must fail")
	}
}
