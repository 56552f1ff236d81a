package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/queries"
)

// The oracle judges every op's findings against what the dataset
// generator annotated — the package's class, its annotated sinks and
// its exploitable-but-unannotated sinks — never against an earlier
// output of the scanner. The class contract (see internal/dataset's
// package comment) is:
//
//	plain, loopy, noweb and the vulnerable export-alias shapes: every
//	  annotated sink is found, and every finding is an exploitable sink;
//	unsupported, baseline-only: the documented misses — a finding, if
//	  any, must be an exploitable sink;
//	sanitized: looks vulnerable but is not exploitable — findings are
//	  the expected false positives, and stay within the package's CWE;
//	benign, baseline-fp and every package without a CWE: no findings.
//
// Every finding must carry the package's CWE.

// checkPackage returns an error describing how findings disagree with
// p's annotations (nil when they agree).
func checkPackage(p *dataset.Package, fs []queries.Finding) error {
	if p.CWE == "" || p.Class == dataset.ClassBenign || p.Class == dataset.ClassBaselineFPOnly {
		if len(fs) > 0 {
			return fmt.Errorf("%s (%s): want no findings, got %s", p.Name, p.Class, describe(fs))
		}
		return nil
	}
	for _, f := range fs {
		if f.CWE != p.CWE {
			return fmt.Errorf("%s (%s %s): finding outside the package's CWE: %s", p.Name, p.Class, p.CWE, f)
		}
	}
	switch p.Class {
	case dataset.ClassSanitized:
		return nil
	case dataset.ClassUnsupported, dataset.ClassBaselineOnly:
		return onlyExploitable(p, fs)
	}
	for _, a := range p.Annotated {
		if !found(fs, a) {
			return fmt.Errorf("%s (%s): annotated %s sink at line %d not found (got %s)", p.Name, p.Class, a.CWE, a.Line, describe(fs))
		}
	}
	return onlyExploitable(p, fs)
}

func onlyExploitable(p *dataset.Package, fs []queries.Finding) error {
	for _, f := range fs {
		if !annotatedAt(p.Exploitable, f) {
			return fmt.Errorf("%s (%s): finding at a line that is no exploitable sink: %s", p.Name, p.Class, f)
		}
	}
	return nil
}

func annotatedAt(as []dataset.Annotation, f queries.Finding) bool {
	for _, a := range as {
		if a.CWE == f.CWE && a.Line == f.SinkLine {
			return true
		}
	}
	return false
}

func found(fs []queries.Finding, a dataset.Annotation) bool {
	for _, f := range fs {
		if f.CWE == a.CWE && f.SinkLine == a.Line {
			return true
		}
	}
	return false
}

// byFile groups findings by the file their sink is in.
func byFile(fs []queries.Finding) map[string][]queries.Finding {
	m := map[string][]queries.Finding{}
	for _, f := range fs {
		m[f.SinkFile] = append(m[f.SinkFile], f)
	}
	return m
}

// checkModules judges a serve-edit bundle file by file: each file is a
// dataset package, and the findings in it must agree with that
// package's annotations. A finding in no file of the request fails.
func checkModules(op serveOp, fs []queries.Finding) error {
	in := byFile(fs)
	for i, f := range op.req.Files {
		if err := checkPackage(op.mods[i], in[f.Rel]); err != nil {
			return fmt.Errorf("%s/%s: %w", op.name, f.Rel, err)
		}
		delete(in, f.Rel)
	}
	for rel, rest := range in {
		return fmt.Errorf("%s: findings in %s, which is no file of the request: %s", op.name, rel, describe(rest))
	}
	return nil
}

// checkTree requires a tree scan's findings to be exactly the case's
// file-qualified annotations.
func checkTree(c *dataset.TreeCase, fs []queries.Finding) error {
	want := map[string]bool{}
	for _, a := range c.Annotated {
		want[fmt.Sprintf("%s %s:%d", a.CWE, a.File, a.Line)] = true
	}
	got := map[string]bool{}
	for _, f := range fs {
		got[fmt.Sprintf("%s %s:%d", f.CWE, f.SinkFile, f.SinkLine)] = true
	}
	for k := range want {
		if !got[k] {
			return fmt.Errorf("tree %s: annotated sink %s not found (got %s)", c.Name, k, describe(fs))
		}
	}
	for k := range got {
		if !want[k] {
			return fmt.Errorf("tree %s: unannotated finding %s", c.Name, k)
		}
	}
	return nil
}

// treePackage views a tree case as a line-annotated package, so recall
// and precision use the same (CWE, line) matching as metrics.Evaluate.
func treePackage(c *dataset.TreeCase) *dataset.Package {
	p := &dataset.Package{Name: c.Name, CWE: c.CWE}
	for _, a := range c.Annotated {
		an := dataset.Annotation{CWE: a.CWE, Line: a.Line}
		p.Annotated = append(p.Annotated, an)
		p.Exploitable = append(p.Exploitable, an)
	}
	return p
}

// accuracy accumulates metrics.Evaluate's counts over ops.
type accuracy struct {
	counts metrics.Counts
}

func (a *accuracy) add(p *dataset.Package, fs []queries.Finding) {
	out := metrics.Evaluate("graphjs", []metrics.PackageResult{{Package: p, Findings: fs}}, false)
	a.merge(accuracy{out.TotalCounts()})
}

func (a *accuracy) merge(o accuracy) {
	a.counts.Total += o.counts.Total
	a.counts.TP += o.counts.TP
	a.counts.FP += o.counts.FP
	a.counts.TFP += o.counts.TFP
}

func (a *accuracy) report(rec *Record) {
	rec.set("recall", a.counts.Recall())
	rec.set("precision", a.counts.Precision())
	rec.note("accuracy_counts", a.counts)
}

// identity is a finding's identity: CWE, sink, location and source
// (witness paths and provenance are not part of it).
func identity(f queries.Finding) string {
	return fmt.Sprintf("%s %s %s:%d (source %s)", f.CWE, f.SinkName, f.SinkFile, f.SinkLine, f.Source)
}

func describe(fs []queries.Finding) string {
	if len(fs) == 0 {
		return "none"
	}
	ids := make([]string, len(fs))
	for i, f := range fs {
		ids[i] = identity(f)
	}
	sort.Strings(ids)
	return "[" + strings.Join(ids, "; ") + "]"
}

// digest fingerprints the finding sets of a fixed list of ops, so a
// traced and an untraced run of the same seed can be compared.
type digest struct {
	sets []string // by op slot; "" = not completed
}

func newDigest(n int) *digest { return &digest{sets: make([]string, n)} }

// put stores slot i's finding set; each slot has a single writer.
func (d *digest) put(i int, name string, fs []queries.Finding) {
	if i < 0 || i >= len(d.sets) {
		return
	}
	d.sets[i] = name + " " + describe(fs)
}

// sum returns the hex digest and how many slots were filled.
func (d *digest) sum() (string, int) {
	h := sha256.New()
	n := 0
	for _, s := range d.sets {
		if s == "" {
			continue
		}
		n++
		fmt.Fprintln(h, s)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], n
}
