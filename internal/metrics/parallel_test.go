package metrics

import (
	"runtime"
	"testing"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/odgen"
	"repro/internal/scanner"
)

// groundTruth returns the combined ground-truth corpus, truncated in
// -short mode so the -race runs stay quick.
func groundTruth(t *testing.T) *dataset.Corpus {
	t.Helper()
	vul, sec := dataset.GroundTruth(42)
	c := &dataset.Corpus{Name: "combined"}
	c.Packages = append(c.Packages, vul.Packages...)
	c.Packages = append(c.Packages, sec.Packages...)
	if testing.Short() && len(c.Packages) > 60 {
		c.Packages = c.Packages[:60]
	}
	return c
}

// TestParallelSweepMatchesSequential is the tentpole correctness
// guarantee: a Workers=GOMAXPROCS sweep must produce, package by
// package, exactly the finding-sets of the Workers=1 sweep. Run under
// -race (make check does) this also exercises the pool for data races.
func TestParallelSweepMatchesSequential(t *testing.T) {
	c := groundTruth(t)
	seq := SweepGraphJS(c, scanner.Options{Workers: 1})
	par := SweepGraphJS(c, scanner.Options{Workers: runtime.GOMAXPROCS(0)})

	if seq.Workers != 1 {
		t.Errorf("sequential sweep used %d workers, want 1", seq.Workers)
	}
	if len(seq.Results) != len(c.Packages) || len(par.Results) != len(c.Packages) {
		t.Fatalf("result lengths: seq=%d par=%d, want %d",
			len(seq.Results), len(par.Results), len(c.Packages))
	}
	for i := range c.Packages {
		s, p := seq.Results[i], par.Results[i]
		if s.Package != p.Package {
			t.Fatalf("package %d: sequential scanned %s, parallel %s",
				i, s.Package.Name, p.Package.Name)
		}
		if err := scanner.DiffFindings(s.Findings, p.Findings); err != nil {
			t.Errorf("package %s: parallel findings differ from sequential: %v",
				s.Package.Name, err)
		}
		if s.Failure != p.Failure || s.SkippedByReach != p.SkippedByReach {
			t.Errorf("package %s: outcomes differ: seq failure=%q skip=%v, par failure=%q skip=%v",
				s.Package.Name, s.Failure, s.SkippedByReach, p.Failure, p.SkippedByReach)
		}
	}
}

// TestParallelDifferentialSweep runs the differential engine (query
// and native backends cross-checked per package) across the corpus on
// a multi-worker pool: no package may report an error, in particular
// no finding-set mismatch between the backends.
func TestParallelDifferentialSweep(t *testing.T) {
	c := groundTruth(t)
	sw := SweepGraphJS(c, scanner.Options{
		Engine:  scanner.EngineDifferential,
		Workers: 4,
	})
	for _, r := range sw.Results {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Package.Name, r.Err)
		}
	}
}

// TestParallelOrderingMatchesCorpus is the regression test for the
// index-addressed result slice: whatever the scheduling, Results[i]
// must belong to Packages[i], for both tools.
func TestParallelOrderingMatchesCorpus(t *testing.T) {
	c := groundTruth(t)
	gjs := RunGraphJS(c, scanner.Options{Workers: 0}) // 0 = GOMAXPROCS
	for i, p := range c.Packages {
		if gjs[i].Package != p {
			t.Fatalf("Graph.js result %d is %s, want %s", i, gjs[i].Package.Name, p.Name)
		}
	}
	// The baseline shares runCorpus, so a small slice suffices to pin
	// its ordering too (a full ODGen sweep spends minutes exhausting
	// step budgets on loopy packages).
	small := &dataset.Corpus{Name: "small", Packages: c.Packages[:40]}
	od := odgen.DefaultOptions()
	od.Workers = 3 // deliberately not a divisor of the corpus size
	odg := SweepODGen(small, od).Results
	for i, p := range small.Packages {
		if odg[i].Package != p {
			t.Fatalf("baseline result %d is %s, want %s", i, odg[i].Package.Name, p.Name)
		}
	}
}

// TestSweepTiming checks the aggregate wall-clock vs sum-of-CPU
// accounting the speedup claims rest on.
func TestSweepTiming(t *testing.T) {
	c := groundTruth(t)
	sw := SweepGraphJS(c, scanner.Options{Workers: 2})
	if sw.Workers != 2 {
		t.Errorf("Workers = %d, want 2", sw.Workers)
	}
	if sw.Wall <= 0 {
		t.Errorf("Wall = %v, want > 0", sw.Wall)
	}
	if sw.CPU <= 0 {
		t.Errorf("CPU = %v, want > 0", sw.CPU)
	}
	var sum int64
	for _, r := range sw.Results {
		graph, traversal := budget.SplitTime(r.Phases)
		sum += int64(graph + traversal)
	}
	if int64(sw.CPU) != sum {
		t.Errorf("CPU = %v, want sum of per-package times %v", sw.CPU, sum)
	}
	if sw.Speedup() <= 0 {
		t.Errorf("Speedup() = %v, want > 0", sw.Speedup())
	}
}

// TestPoolWorkers pins the Workers-resolution rules: 0 means
// GOMAXPROCS, the pool never exceeds the package count, and the floor
// is one worker.
func TestPoolWorkers(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		workers, packages, want int
	}{
		{0, 1000, maxprocs},
		{-1, 1000, maxprocs},
		{1, 1000, 1},
		{8, 3, 3},
		{4, 0, 1},
		{0, 0, 1},
	}
	for _, tc := range cases {
		if got := poolWorkers(tc.workers, tc.packages); got != tc.want {
			t.Errorf("poolWorkers(%d, %d) = %d, want %d", tc.workers, tc.packages, got, tc.want)
		}
	}
}

// TestEmptyCorpusSweep: a zero-package sweep must return an empty,
// well-formed Sweep rather than hanging or panicking.
func TestEmptyCorpusSweep(t *testing.T) {
	sw := SweepGraphJS(&dataset.Corpus{Name: "empty"}, scanner.Options{})
	if len(sw.Results) != 0 {
		t.Errorf("got %d results, want 0", len(sw.Results))
	}
	if sw.Speedup() != 0 && sw.Wall > 0 {
		// Speedup with zero CPU should be 0/wall = 0.
		t.Errorf("Speedup() = %v on empty corpus", sw.Speedup())
	}
}
