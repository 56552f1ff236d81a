package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/scanner"
)

// tinyRun runs one workload on tiny inputs for a short while.
func tinyRun(t *testing.T, workload string, traced bool) *Record {
	t.Helper()
	rec, err := run(runConfig{workload: workload, seed: 7, duration: 3 * time.Second,
		traced: traced, tiny: true, workers: 2, rounds: 2, tmp: t.TempDir()})
	if err != nil {
		t.Fatalf("%s traced=%v: %v", workload, traced, err)
	}
	return rec
}

// TestWorkloadsReportEveryMetric runs every workload untraced and
// traced: every metric the run must report is present, finite and in
// its declared unit; every op agrees with the annotations; the
// contract line has exactly its four keys; and the traced run produces
// the same finding sets as the untraced one.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range workloads {
		digests := map[bool]any{}
		for _, traced := range []bool{false, true} {
			rec := tinyRun(t, w, traced)
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range append(defs, extraMetrics...) {
				m, ok := rec.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w, traced, d.name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w, traced, d.name, m.Value)
				case m.Unit != d.unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w, traced, d.name, m.Unit, d.unit)
				}
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					w, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Notes["first_failures"])
			}
			line, err := rec.contractLine()
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(sortedKeys(keys), ","); got != "attempted,correct,failed,metrics" {
				t.Errorf("%s: contract line keys %s", w, got)
			}
			digests[traced] = rec.Notes["findings_digest"]
			if n, want := rec.Notes["findings_digest_ops"], expectedDigestOps(w); n != want {
				t.Errorf("%s traced=%v: digest covers %v ops, want %d", w, traced, n, want)
			}
		}
		if digests[false] != digests[true] {
			t.Errorf("%s: traced finding digest %v != untraced %v", w, digests[true], digests[false])
		}
	}
}

func expectedDigestOps(workload string) int {
	if workload == "serve-edit" {
		return 2 * digestOpsPerClient
	}
	return len(buildSweepCorpus(workload, 7, true).corpus.Packages)
}

// TestSweepAccuracyMatchesEvaluate checks that sweep-gt's recall and
// precision are exactly what metrics.Evaluate reports for the corpus.
func TestSweepAccuracyMatchesEvaluate(t *testing.T) {
	rec := tinyRun(t, "sweep-gt", false)
	c := buildSweepCorpus("sweep-gt", 7, true)
	results := metrics.RunGraphJS(c.corpus, scanner.Options{Workers: 1})
	want := metrics.Evaluate("graphjs", results, false).TotalCounts()
	if got := rec.Metrics["recall"].Value; got != want.Recall() {
		t.Errorf("recall %v, Evaluate says %v", got, want.Recall())
	}
	if got := rec.Metrics["precision"].Value; got != want.Precision() {
		t.Errorf("precision %v, Evaluate says %v", got, want.Precision())
	}
}

// inputDigest fingerprints every input a workload generates from seed:
// the corpus for the sweeps; for serve-edit every client's packages and
// the first opsPerClient requests of its stream.
func inputDigest(t *testing.T, workload string, seed int64, opsPerClient int) string {
	h := sha256.New()
	if workload != "serve-edit" {
		for _, p := range buildSweepCorpus(workload, seed, true).corpus.Packages {
			fmt.Fprintf(h, "%s %s %s %v %v\n%s\n", p.Name, p.Class, p.CWE, p.Annotated, p.Exploitable, p.Source)
			for _, rel := range sortedKeys(p.Extra) {
				fmt.Fprintf(h, "%s\n%s\n", rel, p.Extra[rel])
			}
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	for _, s := range serveInputs(seed, 2, true) {
		ops := s.warmups()
		for i := 0; i < opsPerClient; i++ {
			ops = append(ops, s.next())
		}
		for _, op := range ops {
			body, err := json.Marshal(op.req)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s %s\n%s\n", op.kind, op.name, body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestInputsFollowTheSeed: the same seed gives byte-identical inputs,
// another seed different ones.
func TestInputsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := inputDigest(t, w, 11, 50)
		if b := inputDigest(t, w, 11, 50); a != b {
			t.Errorf("%s: seed 11 generated different inputs twice", w)
		}
		if c := inputDigest(t, w, 12, 50); a == c {
			t.Errorf("%s: seeds 11 and 12 generated the same inputs", w)
		}
	}
}

// TestServeEditsOneFile: every warm re-submission differs from the
// package's previous submission in exactly one file.
func TestServeEditsOneFile(t *testing.T) {
	s := serveInputs(3, 2, true)[0]
	last := map[string][]string{}
	for _, op := range s.warmups() {
		last[op.name] = srcs(op)
	}
	for i := 0; i < 200; i++ {
		op := s.next()
		cur := srcs(op)
		if prev, ok := last[op.name]; ok {
			changed := 0
			for j := range cur {
				if cur[j] != prev[j] {
					changed++
				}
			}
			if changed != 1 {
				t.Fatalf("op %d (%s %s) changed %d files", i, op.kind, op.name, changed)
			}
		} else if op.kind != "cold" {
			t.Fatalf("op %d: %s package %s was never seeded", i, op.kind, op.name)
		}
		last[op.name] = cur
	}
}

func srcs(op serveOp) []string {
	out := make([]string, len(op.req.Files))
	for i, f := range op.req.Files {
		out[i] = f.Src
	}
	return out
}

// TestLegacyImportIsCurrent: legacy.jsonl is what the importer makes
// of the repository's BENCH_*.json files.
func TestLegacyImportIsCurrent(t *testing.T) {
	if _, err := os.Stat("../BENCH_serve.json"); err != nil {
		t.Skip("legacy BENCH files not present")
	}
	got, err := importLegacy("..")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("legacy.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("legacy.jsonl is stale: run `go run . legacy --out legacy.jsonl`")
	}
	if n := bytes.Count(got, []byte("\n")); n < len(legacyFiles) {
		t.Errorf("imported %d rows from %d files", n, len(legacyFiles))
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9}, [3]float64{1.25, 3.5, 9}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	}
	for _, c := range cases {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestCompareVerdicts exercises the better/worse/unresolved rule.
func TestCompareVerdicts(t *testing.T) {
	base := make([]float64, 10)
	for i := range base {
		base[i] = 100 + float64(i%3)
	}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, c := range []struct {
		head []float64
		want string
	}{
		{shift(-20), "better"},
		{shift(20), "worse"},
		{shift(0), "unresolved"},
		{shift(-0.5), "unresolved"}, // wins every pair but within the base's spread
	} {
		cmp := comparison{metric: "op_p50_ms", better: "lower", base: base, head: c.head}
		if got := cmp.verdict().text; got != c.want {
			t.Errorf("head %v: verdict %q, want %q", c.head[:3], got, c.want)
		}
	}
}
