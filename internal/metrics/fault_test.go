package metrics

import (
	"errors"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/odgen"
	"repro/internal/scanner"
)

// TestSweepSurvivesPanickingPackage: one package whose scan panics
// must become a classified failure row while the Workers=4 pool keeps
// draining every other package. Run under -race (make check does) this
// also checks the protected path for data races.
func TestSweepSurvivesPanickingPackage(t *testing.T) {
	const n = 16
	sw := runCorpus(n, 4, func(i int) PackageResult {
		if i == 2 {
			panic("injected package bug")
		}
		return PackageResult{LoC: i}
	})
	if len(sw.Results) != n {
		t.Fatalf("got %d results, want %d", len(sw.Results), n)
	}
	for i, r := range sw.Results {
		if i == 2 {
			if r.Failure != budget.ClassPanic {
				t.Errorf("panicking package classified %q, want %q", r.Failure, budget.ClassPanic)
			}
			var pe *budget.PanicError
			if !errors.As(r.Err, &pe) {
				t.Errorf("panicking package err %T, want *budget.PanicError", r.Err)
			}
			continue
		}
		if r.Err != nil || r.Failure != budget.ClassNone {
			t.Errorf("package %d contaminated by neighbor's panic: err=%v class=%q", i, r.Err, r.Failure)
		}
		if r.LoC != i {
			t.Errorf("package %d result corrupted: LoC=%d", i, r.LoC)
		}
	}
}

// TestPathologicalSweepIsolation mixes the crash corpus into a normal
// sweep: the pathological packages must come back classified, and the
// ordinary packages must produce exactly the findings they produce
// when scanned alone.
func TestPathologicalSweepIsolation(t *testing.T) {
	normal := groundTruth(t)
	if len(normal.Packages) > 12 {
		normal.Packages = normal.Packages[:12]
	}
	mixed := &dataset.Corpus{Name: "mixed"}
	mixed.Packages = append(mixed.Packages, dataset.Pathological().Packages...)
	mixed.Packages = append(mixed.Packages, normal.Packages...)

	opts := scanner.Options{Timeout: 30 * time.Second, Workers: 4}
	sw := SweepGraphJS(mixed, opts)

	counts := FailureCounts(sw.Results)
	if counts[budget.ClassParse] != 2 {
		t.Errorf("parse-error count %d, want 2 (deep_nesting, unterminated_template)", counts[budget.ClassParse])
	}
	if counts[budget.ClassPanic] != 0 {
		t.Errorf("panic count %d, want 0", counts[budget.ClassPanic])
	}
	for _, r := range sw.Results[len(dataset.Pathological().Packages):] {
		solo := scanner.ScanSource(r.Package.Source, r.Package.Name, scanner.Options{})
		if err := scanner.DiffFindings(solo.Findings, r.Findings); err != nil {
			t.Errorf("package %s: sweep findings differ from solo scan: %v", r.Package.Name, err)
		}
	}
}

// TestODGenPathologicalSweep: the baseline must classify the unroll
// bomb as a budget exhaustion while keeping the finding it had already
// established, and parse failures stay parse failures.
func TestODGenPathologicalSweep(t *testing.T) {
	opts := odgen.DefaultOptions()
	opts.StepBudget = 20000
	opts.Timeout = 30 * time.Second
	sw := SweepODGen(dataset.Pathological(), opts)
	byName := map[string]PackageResult{}
	for _, r := range sw.Results {
		byName[r.Package.Name] = r
	}
	if r := byName["deep_nesting"]; r.Failure != budget.ClassParse {
		t.Errorf("deep_nesting classified %q, want %q", r.Failure, budget.ClassParse)
	}
	r := byName["unroll_bomb"]
	if r.Failure != budget.ClassBudget {
		t.Errorf("unroll_bomb classified %q, want %q", r.Failure, budget.ClassBudget)
	}
	if !r.Incomplete {
		t.Error("unroll_bomb not marked Incomplete")
	}
	if len(r.Findings) == 0 {
		t.Error("unroll_bomb lost its pre-timeout finding")
	}
}
