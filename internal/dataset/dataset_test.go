package dataset

import (
	"math/rand"
	"testing"

	"repro/internal/budget"
	"repro/internal/odgen"
	"repro/internal/queries"
	"repro/internal/scanner"
)

func newGen(seed int64) *gen { return &gen{r: rand.New(rand.NewSource(seed))} }

func graphjsFinds(t *testing.T, p *Package) bool {
	t.Helper()
	rep := scanner.ScanSource(p.Source, p.Name, scanner.Options{})
	if rep.Err != nil {
		t.Fatalf("%s: graphjs error: %v\n%s", p.Name, rep.Err, p.Source)
	}
	return matchesAnnotation(rep.Findings, p)
}

func odgenFinds(t *testing.T, p *Package) (found, timedOut bool) {
	t.Helper()
	rep := odgen.Scan(p.Source, p.Name, odgen.DefaultOptions())
	if rep.Err != nil {
		t.Fatalf("%s: odgen error: %v\n%s", p.Name, rep.Err, p.Source)
	}
	// Lenient (type-only) matching, as the paper grants ODGen.
	for _, f := range rep.Findings {
		for _, a := range p.Annotated {
			if f.CWE == a.CWE {
				return true, rep.Failure == budget.ClassBudget
			}
		}
	}
	return false, rep.Failure == budget.ClassBudget
}

func matchesAnnotation(fs []queries.Finding, p *Package) bool {
	for _, f := range fs {
		for _, a := range p.Annotated {
			if f.CWE == a.CWE && f.SinkLine == a.Line {
				return true
			}
		}
	}
	return false
}

// TestTemplateCalibration verifies that each (CWE, class) template has
// the detection profile the corpus design relies on:
//
//	class          Graph.js  baseline
//	plain          yes       yes
//	loopy          yes       no (timeout)
//	no-web (22)    yes       no (fast miss)
//	unsupported    no        no
//	baseline-only  no        yes
func TestTemplateCalibration(t *testing.T) {
	type expect struct {
		class    Class
		graphjs  bool
		baseline bool
		timeout  bool
	}
	cases := map[queries.CWE][]expect{
		queries.CWECommandInjection: {
			{ClassPlain, true, true, false},
			{ClassLoopy, true, false, true},
			{ClassUnsupported, false, false, false},
			{ClassBaselineOnly, false, true, false},
		},
		queries.CWECodeInjection: {
			{ClassPlain, true, true, false},
			{ClassLoopy, true, false, true},
			{ClassUnsupported, false, false, false},
			{ClassBaselineOnly, false, true, false},
		},
		queries.CWEPathTraversal: {
			{ClassPlain, true, true, false},
			{ClassNoWebContext, true, false, false},
			{ClassUnsupported, false, false, false},
			{ClassBaselineOnly, false, true, false},
		},
		queries.CWEPrototypePollution: {
			{ClassPlain, true, true, false},
			{ClassLoopy, true, false, true},
			{ClassUnsupported, false, false, false},
			{ClassBaselineOnly, false, true, false},
		},
	}
	for cwe, exps := range cases {
		for _, e := range exps {
			for seed := int64(0); seed < 3; seed++ {
				g := newGen(seed)
				p := g.render(cwe, e.class, false)
				if got := graphjsFinds(t, p); got != e.graphjs {
					t.Errorf("%s/%s seed %d: graphjs found=%v want %v\n%s",
						cwe, e.class, seed, got, e.graphjs, p.Source)
				}
				found, timedOut := odgenFinds(t, p)
				if found != e.baseline {
					t.Errorf("%s/%s seed %d: baseline found=%v want %v\n%s",
						cwe, e.class, seed, found, e.baseline, p.Source)
				}
				if timedOut != e.timeout {
					t.Errorf("%s/%s seed %d: baseline timeout=%v want %v",
						cwe, e.class, seed, timedOut, e.timeout)
				}
			}
		}
	}
}

// TestSanitizedTemplatesAreTFPDrivers: Graph.js must report sanitized
// packages (they become TFPs); annotations stay empty.
func TestSanitizedTemplatesAreTFPDrivers(t *testing.T) {
	for _, cwe := range queries.AllCWEs {
		g := newGen(7)
		p := g.render(cwe, ClassSanitized, false)
		if len(p.Annotated) != 0 || len(p.Exploitable) != 0 {
			t.Fatalf("%s sanitized must have no annotations", cwe)
		}
		rep := scanner.ScanSource(p.Source, p.Name, scanner.Options{})
		found := false
		for _, f := range rep.Findings {
			if f.CWE == cwe {
				found = true
			}
		}
		if !found {
			t.Errorf("%s sanitized: graphjs must report a (true false positive) finding\n%s", cwe, p.Source)
		}
	}
}

func TestSanitizedCWE22InvisibleToBaseline(t *testing.T) {
	g := newGen(3)
	p := g.render(queries.CWEPathTraversal, ClassSanitized, false)
	rep := odgen.Scan(p.Source, p.Name, odgen.DefaultOptions())
	for _, f := range rep.Findings {
		if f.CWE == queries.CWEPathTraversal {
			t.Fatalf("baseline must not report CWE-22 without web context: %v", f)
		}
	}
}

func TestSanitizedLoopyPollution(t *testing.T) {
	g := newGen(5)
	p := g.sanitizedLoopyPollution()
	rep := scanner.ScanSource(p.Source, p.Name, scanner.Options{})
	found := false
	for _, f := range rep.Findings {
		if f.CWE == queries.CWEPrototypePollution {
			found = true
		}
	}
	if !found {
		t.Fatalf("graphjs must flag the loopy sanitized pollution\n%s", p.Source)
	}
	orep := odgen.Scan(p.Source, p.Name, odgen.DefaultOptions())
	if orep.Failure != budget.ClassBudget {
		t.Fatalf("baseline must exhaust its step budget on the loopy sanitized pollution, got %q", orep.Failure)
	}
}

func TestExtraSinkDetected(t *testing.T) {
	g := newGen(11)
	p := g.render(queries.CWECommandInjection, ClassPlain, true)
	if len(p.Exploitable) != 2 || len(p.Annotated) != 1 {
		t.Fatalf("annotations: ann=%v exp=%v", p.Annotated, p.Exploitable)
	}
	rep := scanner.ScanSource(p.Source, p.Name, scanner.Options{})
	// Both sinks must be reported: the annotated one (TP) and the
	// unannotated exploitable one (FP but not TFP).
	lines := map[int]bool{}
	for _, f := range rep.Findings {
		if f.CWE == queries.CWECommandInjection {
			lines[f.SinkLine] = true
		}
	}
	for _, a := range p.Exploitable {
		if !lines[a.Line] {
			t.Fatalf("sink at line %d not reported; findings %v\n%s", a.Line, rep.Findings, p.Source)
		}
	}
}

func TestGroundTruthComposition(t *testing.T) {
	vul, sec := GroundTruth(42)
	totalVulns := vul.NumVulns() + sec.NumVulns()
	if totalVulns != 603 {
		t.Fatalf("combined annotated vulns = %d, want 603 (Table 3)", totalVulns)
	}
	// Per-CWE totals match Table 4's Total column.
	perCWE := map[queries.CWE]int{}
	for _, c := range []*Corpus{vul, sec} {
		for _, p := range c.Packages {
			for _, a := range p.Annotated {
				perCWE[a.CWE]++
			}
		}
	}
	want := map[queries.CWE]int{
		queries.CWEPathTraversal:      166,
		queries.CWECommandInjection:   169,
		queries.CWECodeInjection:      54,
		queries.CWEPrototypePollution: 214,
	}
	for cwe, w := range want {
		if perCWE[cwe] != w {
			t.Errorf("%s: %d annotated, want %d", cwe, perCWE[cwe], w)
		}
	}
}

func TestGroundTruthDeterministic(t *testing.T) {
	v1, s1 := GroundTruth(42)
	v2, s2 := GroundTruth(42)
	if len(v1.Packages) != len(v2.Packages) || len(s1.Packages) != len(s2.Packages) {
		t.Fatal("same seed must give same corpus")
	}
	for i := range v1.Packages {
		if v1.Packages[i].Source != v2.Packages[i].Source {
			t.Fatal("same seed must give identical sources")
		}
	}
}

func TestCollectedComposition(t *testing.T) {
	c := Collected(1, DefaultCollectedMix(100))
	if len(c.Packages) < 95 {
		t.Fatalf("packages = %d", len(c.Packages))
	}
	benign := 0
	for _, p := range c.Packages {
		if p.Class == ClassBenign {
			benign++
		}
	}
	if benign != 60 {
		t.Fatalf("benign = %d, want 60", benign)
	}
}

func TestAllPackagesParse(t *testing.T) {
	vul, sec := GroundTruth(42)
	for _, c := range []*Corpus{vul, sec} {
		for _, p := range c.Packages {
			rep := scanner.ScanSource(p.Source, p.Name, scanner.Options{})
			if rep.Err != nil {
				t.Fatalf("%s does not parse: %v\n%s", p.Name, rep.Err, p.Source)
			}
		}
	}
}

func TestAnnotationLinesPointAtSinks(t *testing.T) {
	g := newGen(9)
	p := g.render(queries.CWECommandInjection, ClassPlain, false)
	if len(p.Annotated) != 1 {
		t.Fatalf("annotations = %v", p.Annotated)
	}
	lines := splitLines(p.Source)
	sinkLine := lines[p.Annotated[0].Line-1]
	if !containsAny(sinkLine, "exec(") {
		t.Fatalf("annotated line %d is %q", p.Annotated[0].Line, sinkLine)
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

func containsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if len(sub) > 0 && len(s) >= len(sub) {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
		}
	}
	return false
}
