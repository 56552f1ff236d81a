package scanner

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/store"
)

// The early-cutoff oracle. Everything a retained state caches below
// the front end is keyed by the lowered program (core.Key), not by the
// bytes, so an edit that leaves a file's Core program unchanged must
// rebuild nothing, and one that changes it must rebuild exactly the
// components that contain the file. Either way the warm report equals
// a scan from a fresh state — findings with their provenance and
// witness paths — and a cold scan's finding identities, provenance and
// gate counters.

// cutoffEdit is one edit of one file's source.
type cutoffEdit struct {
	name string
	// semantic marks an edit that moves every statement of the file,
	// so its lowered program changes.
	semantic bool
	apply    func(src string) string
}

var cutoffEdits = []cutoffEdit{
	{"trailing-comment-line", false, func(src string) string { return src + "\n// edited\n" }},
	{"end-of-line-comment", false, endOfLineComment},
	{"trailing-blank-lines", false, func(src string) string { return src + "\n\n\n" }},
	{"comment-line-above", true, func(src string) string { return "// header\n" + src }},
}

// endOfLineComment appends a line comment to the first line that ends
// a statement or a block, where a comment cannot change the program.
func endOfLineComment(src string) string {
	lines := strings.Split(src, "\n")
	for i, l := range lines {
		if t := strings.TrimSpace(l); strings.HasSuffix(t, ";") || strings.HasSuffix(t, "{") || strings.HasSuffix(t, "}") {
			lines[i] = l + " // note"
			return strings.Join(lines, "\n")
		}
	}
	return src + " // note"
}

// cutoffView renders what a warm scan must share with a scan from a
// fresh state: the findings (with provenance and witness paths), the
// outcome, the gate counters and the graph size.
func cutoffView(t *testing.T, rep *Report) string {
	t.Helper()
	fs, err := json.Marshal(rep.Findings)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s err=%v failure=%q incomplete=%v gate=%s nodes=%d edges=%d",
		fs, rep.Err, rep.Failure, rep.Incomplete, coldView(rep), rep.MDGNodes, rep.MDGEdges)
}

// coldView renders what a warm scan must share with a cold one, whose
// graph is partitioned differently: finding identities with their
// provenance, and the gate counters.
func coldView(rep *Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "funcs=%d pruned=%d exports=%d fallback=%v skipped=%v depth=%d",
		rep.FuncsTotal, rep.FuncsPruned, rep.ExportCount, rep.ReachFallback, rep.SkippedByReach, rep.ProvenanceDepth)
	for _, f := range rep.Findings {
		fmt.Fprintf(&sb, "; %s %s %v", findingIdentity(f), f.Provenance, f.Provenance.Fallback)
	}
	return sb.String()
}

// cutoffInputs are a sample of the ground truth (its multi-file
// packages among them), bundles of independent sampled packages, and
// every dependency tree (scanned in tree mode).
func cutoffInputs() (flat map[string][]SourceFile, trees map[string][]SourceFile) {
	vul, sec := dataset.GroundTruth(1)
	gt := append(slices.Clone(vul.Packages), sec.Packages...)
	flat = map[string][]SourceFile{}
	var sample []*dataset.Package
	for i, p := range gt {
		if i%40 == 7 || (len(p.Extra) > 0 && len(sample) < 40 && i%4 == 0) {
			sample = append(sample, p)
			flat[p.Name] = packageSources(p)
		}
	}
	for i, files := range bundles(sample, 3) {
		flat[fmt.Sprintf("bundle-%d", i)] = files
	}
	trees = map[string][]SourceFile{}
	for _, tc := range dataset.TreeCases() {
		trees[tc.Name] = treeSources(tc.Files)
	}
	return flat, trees
}

// checkCutoff edits every .js file of one input with every edit and
// checks the warm re-scan's cache traffic and report.
// It returns how many edits of each kind reached the analysis (the gate
// did not skip the package), so the caller can check it is not vacuous.
func checkCutoff(t *testing.T, name string, files []SourceFile, tree bool) (kept, rebuilt int) {
	st := NewIncrementalState()
	opts := Options{Incremental: st, Tree: tree}
	for i, f := range files {
		if !strings.HasSuffix(f.Rel, ".js") {
			continue
		}
		for _, ed := range cutoffEdits {
			ScanFiles(files, name, opts) // back to the unedited package
			before := st.Stats()
			lastComps := st.last.comps
			stmts := st.files[f.Rel].coreStmts
			edited := slices.Clone(files)
			edited[i].Src = ed.apply(f.Src)
			warm := ScanFiles(edited, name, opts)
			d := warm.IncrStats.minus(before)
			where := fmt.Sprintf("%s: %s of %s", name, ed.name, f.Rel)
			if warm.Err != nil || warm.Failure != budget.ClassNone || warm.Incomplete {
				t.Fatalf("%s: scan failed: %v %q", where, warm.Err, warm.Failure)
			}
			if d.FrontEndMisses != 1 || d.FrontEndHits != countJS(files)-1 {
				t.Errorf("%s: front end %d hits/%d misses, want %d/1", where, d.FrontEndHits, d.FrontEndMisses, countJS(files)-1)
			}
			looked := d.FragmentHits+d.FragmentMisses > 0 // the gate did not skip the package
			if looked && ed.semantic {
				rebuilt++
			} else if looked {
				kept++
			}
			switch {
			case !ed.semantic || stmts == 0:
				if d.FragmentMisses != 0 || d.GateMisses != 0 || d.DetectMisses != 0 {
					t.Errorf("%s: non-semantic edit rebuilt: %d fragment, %d gate, %d detection misses",
						where, d.FragmentMisses, d.GateMisses, d.DetectMisses)
				}
				if !tree && (len(lastComps) == 0 || &st.last.comps[0] != &lastComps[0]) {
					t.Errorf("%s: non-semantic edit re-partitioned the package", where)
				}
			case tree:
				if looked && d.FragmentMisses != 1 {
					t.Errorf("%s: %d fragment misses, want 1 (the file's package)", where, d.FragmentMisses)
				}
			default:
				if d.GateMisses != 1 || (looked && (d.FragmentMisses != 1 || d.DetectMisses != 1)) {
					t.Errorf("%s: %d gate, %d fragment, %d detection misses, want 1 each (the file's component)",
						where, d.GateMisses, d.FragmentMisses, d.DetectMisses)
				}
			}
			fresh := ScanFiles(edited, name, Options{Incremental: NewIncrementalState(), Tree: tree})
			if got, want := cutoffView(t, warm), cutoffView(t, fresh); got != want {
				t.Errorf("%s: warm report differs from a fresh state's\n  warm:  %s\n  fresh: %s", where, got, want)
			}
			cold := ScanFiles(edited, name, Options{Tree: tree})
			if got, want := coldView(warm), coldView(cold); got != want {
				t.Errorf("%s: warm report differs from cold\n  warm: %s\n  cold: %s", where, got, want)
			}
		}
	}
	return kept, rebuilt
}

func countJS(files []SourceFile) int {
	n := 0
	for _, f := range files {
		if strings.HasSuffix(f.Rel, ".js") {
			n++
		}
	}
	return n
}

// minus returns the counters accumulated since before.
func (s *IncrementalStats) minus(before IncrementalStats) IncrementalStats {
	d := *s
	d.FrontEndHits -= before.FrontEndHits
	d.FrontEndMisses -= before.FrontEndMisses
	d.FragmentHits -= before.FragmentHits
	d.FragmentMisses -= before.FragmentMisses
	d.DetectHits -= before.DetectHits
	d.DetectMisses -= before.DetectMisses
	d.GateHits -= before.GateHits
	d.GateMisses -= before.GateMisses
	return d
}

// TestEarlyCutoffOracle: over the ground-truth sample, the bundles and
// every dependency tree, a comment, end-of-line comment or trailing
// blank lines rebuild no fragment, gate unit or detection and keep the
// partition; a comment line above the first statement misses the
// component (or tree package) holding the file. Every warm report
// equals a fresh state's and matches a cold scan.
func TestEarlyCutoffOracle(t *testing.T) {
	flat, trees := cutoffInputs()
	if len(flat) < 20 || len(trees) == 0 {
		t.Fatalf("%d flat inputs, %d trees: sample too small", len(flat), len(trees))
	}
	multi, kept, rebuilt := 0, 0, 0
	for name, files := range flat {
		if len(files) > 1 {
			multi++
		}
		k, r := checkCutoff(t, name, files, false)
		kept, rebuilt = kept+k, rebuilt+r
	}
	for name, files := range trees {
		k, r := checkCutoff(t, name, files, true)
		kept, rebuilt = kept+k, rebuilt+r
	}
	if multi < 5 || kept < 100 || rebuilt < 30 {
		t.Fatalf("vacuous: %d multi-file inputs, %d non-semantic and %d line-shifting edits reached the analysis",
			multi, kept, rebuilt)
	}
	t.Logf("%d flat inputs (%d multi-file), %d trees: %d non-semantic and %d line-shifting edits reached the analysis",
		len(flat), multi, len(trees), kept, rebuilt)
}

// TestEarlyCutoffStoreRestart: a restart over a store written before a
// non-semantic edit serves every file's facts, every fragment and every
// detection from the store and reparses the files, reporting what a cold scan of the edited
// bytes reports.
func TestEarlyCutoffStoreRestart(t *testing.T) {
	flat, _ := cutoffInputs()
	inputs := [][]SourceFile{persistFiles, flat["bundle-0"]}
	for _, files := range inputs {
		dir := t.TempDir()
		s1 := openStoreT(t, dir, store.Options{})
		st1 := NewIncrementalState()
		st1.AttachStore(s1)
		first := ScanFiles(files, "pkg", Options{Incremental: st1})
		if first.IncrStats.FragmentMisses == 0 {
			t.Fatalf("first scan built no fragment: %+v", first.IncrStats)
		}
		if err := s1.Close(); err != nil {
			t.Fatal(err)
		}
		edited := slices.Clone(files)
		edited[0].Src += "\n// edited after the store was written\n"

		s2 := openStoreT(t, dir, store.Options{})
		st2 := NewIncrementalState()
		st2.AttachStore(s2)
		warm := ScanFiles(edited, "pkg", Options{Incremental: st2})
		s := warm.IncrStats
		if s.FragmentMisses != 0 || s.DetectMisses != 0 || s.StoreMisses != 0 || s.FragmentHits != first.IncrStats.FragmentMisses {
			t.Fatalf("restart after a comment edit: %+v, want every fact set, fragment and detection from the store", s)
		}
		if s.FrontEndMisses != len(files) {
			t.Fatalf("restart parsed %d files, want %d", s.FrontEndMisses, len(files))
		}
		cold := ScanFiles(edited, "pkg", Options{})
		if got, want := coldView(warm), coldView(cold); got != want {
			t.Fatalf("restart differs from cold\n  warm: %s\n  cold: %s", got, want)
		}
	}
}
