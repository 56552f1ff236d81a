package scanner

import (
	"testing"

	"repro/internal/queries"
)

// sameFindings asserts two reports carry the same finding multiset and
// the same failure classification.
func sameFindings(t *testing.T, cold, incr *Report) {
	t.Helper()
	if err := DiffFindings(cold.Findings, incr.Findings); err != nil {
		t.Fatalf("incremental findings diverge from cold:\n%v", err)
	}
	if cold.Failure != incr.Failure {
		t.Fatalf("failure class: cold=%v incremental=%v", cold.Failure, incr.Failure)
	}
	if cold.Incomplete != incr.Incomplete {
		t.Fatalf("incomplete: cold=%v incremental=%v", cold.Incomplete, incr.Incomplete)
	}
}

func TestIncrementalMatchesColdSingleFile(t *testing.T) {
	cold := ScanSource(gitResetSrc, "git_reset.js", Options{})
	st := NewIncrementalState()
	incr := ScanSource(gitResetSrc, "git_reset.js", Options{Incremental: st})
	sameFindings(t, cold, incr)
	if incr.IncrStats == nil {
		t.Fatal("incremental report missing stats")
	}
	if incr.IncrStats.FragmentMisses != 1 || incr.IncrStats.FragmentHits != 0 {
		t.Fatalf("first scan stats: %+v", incr.IncrStats)
	}
}

func TestIncrementalWarmReuse(t *testing.T) {
	files := []SourceFile{
		{Rel: "a.js", Src: "function fa(x) { return x; }\nmodule.exports = fa;\n"},
		{Rel: "index.js", Src: gitResetSrc},
	}
	st := NewIncrementalState()
	opts := Options{Incremental: st}

	rep1 := ScanFiles(files, "pkg", opts)
	if rep1.Err != nil {
		t.Fatal(rep1.Err)
	}
	rep2 := ScanFiles(files, "pkg", opts)
	sameFindings(t, rep1, rep2)
	s := rep2.IncrStats
	if s.FragmentHits == 0 {
		t.Fatalf("warm scan rebuilt everything: %+v", s)
	}
	if s.FragmentMisses != rep1.IncrStats.FragmentMisses {
		t.Fatalf("warm scan caused fragment rebuilds: %+v", s)
	}
	if s.DetectHits == 0 {
		t.Fatalf("warm scan re-ran detection: %+v", s)
	}
	if s.FrontEndHits == 0 {
		t.Fatalf("warm scan re-parsed: %+v", s)
	}
}

// Editing one file of a package whose files are independent must
// rebuild exactly that file's fragment and reuse the other's.
func TestIncrementalEditRebuildsOneComponent(t *testing.T) {
	files := []SourceFile{
		{Rel: "a.js", Src: "function fa(x) { return x; }\nmodule.exports = fa;\n"},
		{Rel: "index.js", Src: gitResetSrc},
	}
	st := NewIncrementalState()
	opts := Options{Incremental: st}
	ScanFiles(files, "pkg", opts)
	before := st.Stats()

	edited := []SourceFile{
		{Rel: "a.js", Src: "function fa(x) { return x + 1; }\nmodule.exports = fa;\n"},
		{Rel: "index.js", Src: gitResetSrc},
	}
	rep := ScanFiles(edited, "pkg", opts)
	s := rep.IncrStats
	if got := s.FragmentMisses - before.FragmentMisses; got != 1 {
		t.Fatalf("edit rebuilt %d fragments, want 1 (stats %+v)", got, s)
	}
	if got := s.FragmentHits - before.FragmentHits; got != 1 {
		t.Fatalf("edit reused %d fragments, want 1 (stats %+v)", got, s)
	}

	cold := ScanFiles(edited, "pkg", Options{})
	sameFindings(t, cold, rep)
}

// Cross-file flows must survive incrementality: source and sink in
// different files are one require-component, so editing the source
// file rebuilds the pair and the finding persists.
func TestIncrementalCrossFileComponent(t *testing.T) {
	runner := SourceFile{Rel: "runner.js", Src: `
const { exec } = require('child_process');
function shellRun(c) { exec(c); }
module.exports = shellRun;
`}
	index := SourceFile{Rel: "index.js", Src: `
var run = require('./runner');
function entry(input) { run('git clone ' + input); }
module.exports = entry;
`}
	files := []SourceFile{index, runner}
	st := NewIncrementalState()
	opts := Options{Incremental: st}

	rep1 := ScanFiles(files, "pkg", opts)
	cold1 := ScanFiles(files, "pkg", Options{})
	sameFindings(t, cold1, rep1)
	found := false
	for _, f := range rep1.Findings {
		if f.CWE == queries.CWECommandInjection && f.SinkFile == "runner.js" {
			found = true
		}
	}
	if !found {
		t.Fatalf("cross-file command injection missed incrementally: %v", rep1.Findings)
	}

	// The two files are one component; a warm re-scan reuses it whole.
	rep2 := ScanFiles(files, "pkg", opts)
	if rep2.IncrStats.FragmentHits != rep1.IncrStats.FragmentHits+1 {
		t.Fatalf("cross-file component not reused: %+v", rep2.IncrStats)
	}
	sameFindings(t, rep1, rep2)
}

// Regression for the stale-cache hazard: when a file is deleted from
// the package, its cache entries must be evicted and its findings must
// disappear from the next incremental scan.
func TestIncrementalDeletedFileFindingsDisappear(t *testing.T) {
	files := []SourceFile{
		{Rel: "a.js", Src: "function fa(x) { return x; }\nmodule.exports = fa;\n"},
		{Rel: "vuln.js", Src: gitResetSrc},
	}
	st := NewIncrementalState()
	opts := Options{Incremental: st}

	rep1 := ScanFiles(files, "pkg", opts)
	if len(rep1.Findings) == 0 {
		t.Fatal("seed scan found nothing; test is vacuous")
	}
	if len(st.files) != 2 {
		t.Fatalf("front-end entries = %d, want 2", len(st.files))
	}

	shrunk := files[:1]
	rep2 := ScanFiles(shrunk, "pkg", opts)
	if len(rep2.Findings) != 0 {
		t.Fatalf("deleted file's findings survived: %v", rep2.Findings)
	}
	if len(st.files) != 1 {
		t.Fatalf("stale front-end entry not evicted: len=%d", len(st.files))
	}
	if rep2.IncrStats.EvictedFiles == 0 {
		t.Fatalf("eviction not recorded: %+v", rep2.IncrStats)
	}
	cold := ScanFiles(shrunk, "pkg", Options{})
	sameFindings(t, cold, rep2)

	// And the same package state keeps working if the file comes back.
	rep3 := ScanFiles(files, "pkg", opts)
	sameFindings(t, rep1, rep3)
}

// Deleted files' front-end entries and facts must go after a
// sequence of scans too (the stale-cache hazard: an entry keyed by a
// removed rel would otherwise live forever and, worse, be served again
// if a file with the same path and content reappeared after
// incompatible sibling changes).
func TestCacheEvictsDeletedFiles(t *testing.T) {
	st := NewIncrementalState()
	opts := Options{Incremental: st}
	files := []SourceFile{
		{Rel: "a.js", Src: "function fa(x) { return x; }\nmodule.exports = fa;\n"},
		{Rel: "vuln.js", Src: gitResetSrc},
	}
	rep1 := ScanFiles(files, "pkg", opts)
	if len(rep1.Findings) == 0 {
		t.Fatal("seed scan found nothing")
	}
	if len(st.files) != 2 || len(st.facts) != 2 {
		t.Fatalf("entries = %d files/%d facts, want 2/2", len(st.files), len(st.facts))
	}
	rep2 := ScanFiles(files[:1], "pkg", opts)
	if len(st.files) != 1 || len(st.facts) != 1 {
		t.Fatalf("stale entries survived: %d files/%d facts", len(st.files), len(st.facts))
	}
	if _, ok := st.files["vuln.js"]; ok {
		t.Fatal("the deleted file's front-end entry survived")
	}
	if len(rep2.Findings) != 0 {
		t.Fatalf("deleted file's findings survived: %v", rep2.Findings)
	}
}

// A scan truncated by a node cap must not cache its partial fragment
// as complete: the next (uncapped) scan rebuilds and matches cold.
func TestIncrementalBudgetPartialNotCached(t *testing.T) {
	st := NewIncrementalState()
	capped := ScanSource(gitResetSrc, "t.js", Options{Incremental: st, MaxNodes: 5})
	if !capped.Incomplete {
		t.Fatalf("cap did not trip: %+v", capped)
	}
	if st.Fragments() != 0 {
		t.Fatalf("partial fragment was cached: %d", st.Fragments())
	}

	full := ScanSource(gitResetSrc, "t.js", Options{Incremental: st})
	if full.IncrStats.FragmentHits != 0 {
		t.Fatalf("uncapped scan reused a partial fragment: %+v", full.IncrStats)
	}
	cold := ScanSource(gitResetSrc, "t.js", Options{})
	sameFindings(t, cold, full)
}

// Stale fragments are evicted when their component key disappears,
// keeping state memory proportional to the package.
func TestIncrementalFragmentEviction(t *testing.T) {
	st := NewIncrementalState()
	opts := Options{Incremental: st}
	ScanSource(gitResetSrc, "t.js", opts)
	if st.Fragments() != 1 {
		t.Fatalf("fragments = %d, want 1", st.Fragments())
	}
	ScanSource(gitResetSrc+"\n// edited\nvar touched = 1;\n", "t.js", opts)
	if st.Fragments() != 1 {
		t.Fatalf("stale fragment survived the edit: %d", st.Fragments())
	}
	if st.Stats().EvictedFragments == 0 {
		t.Fatalf("fragment eviction not recorded: %+v", st.Stats())
	}
}

// Incremental scans across engines must match their cold counterparts
// (the detection cache is keyed per engine).
func TestIncrementalMatchesColdAllEngines(t *testing.T) {
	for _, eng := range []Engine{EngineQuery, EngineNative, EngineDifferential} {
		st := NewIncrementalState()
		opts := Options{Engine: eng, Incremental: st}
		cold := ScanSource(gitResetSrc, "t.js", Options{Engine: eng})
		incr := ScanSource(gitResetSrc, "t.js", opts)
		sameFindings(t, cold, incr)
		warm := ScanSource(gitResetSrc, "t.js", opts)
		sameFindings(t, cold, warm)
		if warm.IncrStats.DetectHits == 0 {
			t.Fatalf("engine %s: warm detection not cached: %+v", eng, warm.IncrStats)
		}
	}
}

// The export fallback is a package-wide decision; flipping it between
// scans (by adding/removing a real export elsewhere) must not serve a
// detection result computed under the other fallback state.
func TestIncrementalExportFallbackFlip(t *testing.T) {
	// No real exports anywhere: fallback marks sink's caller exported.
	noExport := []SourceFile{
		{Rel: "a.js", Src: "function fa(x) { return x; }\n"},
		{Rel: "vuln.js", Src: `
const { exec } = require('child_process');
function run(c) { exec('echo ' + c); }
`},
	}
	// a.js gains a real export: the fallback turns off package-wide,
	// so vuln.js's unexported run() is no longer a source.
	withExport := []SourceFile{
		{Rel: "a.js", Src: "function fa(x) { return x; }\nmodule.exports = fa;\n"},
		noExport[1],
	}
	st := NewIncrementalState()
	opts := Options{Incremental: st}
	for i, files := range [][]SourceFile{noExport, withExport, noExport} {
		cold := ScanFiles(files, "pkg", Options{})
		incr := ScanFiles(files, "pkg", opts)
		if err := DiffFindings(cold.Findings, incr.Findings); err != nil {
			t.Fatalf("step %d: fallback flip diverged:\n%v", i, err)
		}
	}
}
