package lint

import (
	"strings"
	"testing"
)

func findings(t *testing.T, path, src string) []Finding {
	t.Helper()
	fs, err := File(path, src)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	return fs
}

func checks(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Check)
	}
	return out
}

func TestNakedPanicFlagged(t *testing.T) {
	src := `package x
func f() { panic("boom") }
`
	fs := findings(t, "internal/x/x.go", src)
	if len(fs) != 1 || fs[0].Check != "nakedpanic" || fs[0].Line != 2 {
		t.Fatalf("findings = %v", fs)
	}
}

func TestNakedPanicWaived(t *testing.T) {
	src := `package x
func f() {
	panic("boom") //lint:allow nakedpanic -- recovered by the phase guard
}
func g() {
	//lint:allow nakedpanic -- recovered by the phase guard
	panic("boom")
}
`
	if fs := findings(t, "internal/x/x.go", src); len(fs) != 0 {
		t.Fatalf("waived panics still flagged: %v", fs)
	}
}

func TestPanicOutsideInternalIgnored(t *testing.T) {
	src := `package main
func main() { panic("cli") }
`
	if fs := findings(t, "cmd/x/main.go", src); len(fs) != 0 {
		t.Fatalf("cmd panics are not library panics: %v", fs)
	}
}

func TestBudgetLoopFlagged(t *testing.T) {
	src := `package x
import "repro/internal/budget"
func f(items []int, b *budget.Budget) {
	for range items {
	}
}
`
	fs := findings(t, "internal/x/x.go", src)
	if len(fs) != 1 || fs[0].Check != "budgetloop" {
		t.Fatalf("findings = %v", fs)
	}
	if !strings.Contains(fs[0].Msg, "f never consults") {
		t.Fatalf("msg = %q", fs[0].Msg)
	}
}

func TestBudgetLoopConsultedNotFlagged(t *testing.T) {
	src := `package x
import "repro/internal/budget"
func f(items []int, b *budget.Budget) {
	for range items {
		if b.CheckDeadline() != nil {
			return
		}
		for range items { // inner loop judged on its own
		}
	}
}
`
	fs := findings(t, "internal/x/x.go", src)
	if len(fs) != 1 || fs[0].Line != 8 {
		t.Fatalf("want only the inner loop flagged: %v", fs)
	}
}

func TestBudgetLoopNoParamNoObligation(t *testing.T) {
	src := `package x
func f(items []int) {
	for range items {
	}
}
`
	if fs := findings(t, "internal/x/x.go", src); len(fs) != 0 {
		t.Fatalf("no budget param means no obligation: %v", fs)
	}
}

func TestBudgetLoopFuncLitExempt(t *testing.T) {
	src := `package x
import "repro/internal/budget"
func f(items []int, b *budget.Budget) {
	_ = b.Err()
	g := func() {
		for range items {
		}
	}
	g()
}
`
	if fs := findings(t, "internal/x/x.go", src); len(fs) != 0 {
		t.Fatalf("function literals do not inherit the obligation: %v", fs)
	}
}

func TestFragMutateFlagged(t *testing.T) {
	src := `package scanner
type fragEntry struct{ enc []byte }
func poke(fe *fragEntry) {
	fe.enc[0] = 1
}
func (fe *fragEntry) overwrite(b []byte) {
	copy(fe.enc, b)
}
func grow(fe *fragEntry) []byte {
	return append(fe.enc[:1], 2)
}
func swapIn(fe *fragEntry, b []byte) {
	fe.enc = b
}
`
	fs := findings(t, "internal/scanner/x.go", src)
	if len(fs) != 4 {
		t.Fatalf("findings = %v", fs)
	}
	for _, f := range fs {
		if f.Check != "fragmutate" {
			t.Fatalf("check = %q", f.Check)
		}
	}
}

func TestFragMutateConstructionExempt(t *testing.T) {
	src := `package scanner
type fragEntry struct{ enc []byte }
func newEntry(b []byte) *fragEntry {
	fe := &fragEntry{}
	fe.enc = append(fe.enc, b...)
	return fe
}
`
	if fs := findings(t, "internal/scanner/x.go", src); len(fs) != 0 {
		t.Fatalf("construction writes are exempt: %v", fs)
	}
}

func TestFragMutateRangeVarAndQualified(t *testing.T) {
	src := `package scanner
func stomp(lives []liveFrag) {
	for _, lv := range lives {
		(lv.fe.enc)[0]++
	}
}
`
	fs := findings(t, "internal/scanner/x.go", src)
	if len(fs) != 1 || fs[0].Check != "fragmutate" {
		t.Fatalf("findings = %v", fs)
	}
}

func TestFragMutateRebindNotFlagged(t *testing.T) {
	src := `package scanner
func swap(a, b *fragEntry) (*fragEntry, byte) {
	a = b // pointer rebind, not a record write
	enc := a.enc
	enc = nil // a local copy of the slice header
	return a, a.enc[0] + byte(len(enc))
}
`
	if fs := findings(t, "internal/scanner/x.go", src); len(fs) != 0 {
		t.Fatalf("rebinds and reads are not mutations: %v", fs)
	}
}

// TestRepoIsClean pins the repo-wide invariant the Makefile enforces:
// the tree this test ships in must lint clean.
func TestRepoIsClean(t *testing.T) {
	fs, err := Dirs("../../internal", "../../cmd")
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	for _, f := range fs {
		t.Errorf("%s", f)
	}
}

func TestSyncCloseFlagged(t *testing.T) {
	src := `package x

import "os"

func f() {
	f, err := os.Create("out")
	if err != nil {
		return
	}
	defer f.Close()
	g, err := os.OpenFile("log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	g.Sync()
	_ = g.Close()
}
`
	fs := findings(t, "cmd/x/main.go", src)
	if len(fs) != 3 {
		t.Fatalf("findings = %v, want 3 syncclose", fs)
	}
	for _, f := range fs {
		if f.Check != "syncclose" {
			t.Fatalf("unexpected check %q in %v", f.Check, fs)
		}
	}
}

func TestSyncCloseCheckedAndReadOnlyExempt(t *testing.T) {
	src := `package x

import "os"

func f() error {
	f, err := os.Create("out")
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

func g() {
	r, err := os.Open("in")
	if err != nil {
		return
	}
	defer r.Close()
	ro, err := os.OpenFile("in2", os.O_RDONLY, 0)
	if err != nil {
		return
	}
	ro.Close()
}
`
	if fs := findings(t, "internal/x/x.go", src); len(fs) != 0 {
		t.Fatalf("checked/read-only closes flagged: %v", fs)
	}
}

func TestSyncCloseWaived(t *testing.T) {
	src := `package x

import "os"

func f() {
	f, err := os.Create("out")
	if err != nil {
		return
	}
	//lint:allow syncclose -- error path cleanup, the write already failed
	f.Close()
}
`
	if fs := findings(t, "internal/x/x.go", src); len(fs) != 0 {
		t.Fatalf("waived close flagged: %v", fs)
	}
}

func TestCtxDropBudgetNewFlagged(t *testing.T) {
	src := `package x
import (
	"context"
	"repro/internal/budget"
)
func f(ctx context.Context) *budget.Budget {
	return budget.New(budget.Limits{})
}
`
	fs := findings(t, "internal/x/x.go", src)
	if len(fs) != 1 || fs[0].Check != "ctxdrop" {
		t.Fatalf("findings = %v", fs)
	}
	if !strings.Contains(fs[0].Msg, "budget.New is never given it") {
		t.Fatalf("msg = %q", fs[0].Msg)
	}
}

func TestCtxDropWithContextNotFlagged(t *testing.T) {
	src := `package x
import (
	"context"
	"repro/internal/budget"
)
func f(ctx context.Context) *budget.Budget {
	return budget.New(budget.Limits{}).WithContext(ctx)
}
`
	if fs := findings(t, "internal/x/x.go", src); len(fs) != 0 {
		t.Fatalf("WithContext call still flagged: %v", fs)
	}
}

func TestCtxDropOptionsLiteralFlagged(t *testing.T) {
	src := `package x
import (
	"net/http"
	"repro/internal/scanner"
)
func handle(w http.ResponseWriter, r *http.Request) {
	opts := scanner.Options{Workers: 2}
	_ = opts
}
`
	fs := findings(t, "internal/x/x.go", src)
	if len(fs) != 1 || fs[0].Check != "ctxdrop" {
		t.Fatalf("findings = %v", fs)
	}
	if !strings.Contains(fs[0].Msg, "scanner.Options literal drops it") {
		t.Fatalf("msg = %q", fs[0].Msg)
	}
}

func TestCtxDropOptionsAssignedLaterNotFlagged(t *testing.T) {
	src := `package x
import (
	"net/http"
	"repro/internal/scanner"
)
func handle(w http.ResponseWriter, r *http.Request) {
	opts := scanner.Options{Workers: 2}
	opts.Context = r.Context()
	_ = opts
}
func keyed(w http.ResponseWriter, r *http.Request) {
	_ = scanner.Options{Context: r.Context()}
}
`
	if fs := findings(t, "internal/x/x.go", src); len(fs) != 0 {
		t.Fatalf("threaded contexts still flagged: %v", fs)
	}
}

func TestCtxDropNoContextNoObligation(t *testing.T) {
	src := `package x
import (
	"repro/internal/budget"
	"repro/internal/scanner"
)
func f() *budget.Budget {
	_ = scanner.Options{}
	return budget.New(budget.Limits{})
}
`
	if fs := findings(t, "internal/x/x.go", src); len(fs) != 0 {
		t.Fatalf("context-free functions have no obligation: %v", fs)
	}
}

func TestCtxDropWaived(t *testing.T) {
	src := `package x
import (
	"context"
	"repro/internal/budget"
)
func f(ctx context.Context) *budget.Budget {
	//lint:allow ctxdrop -- background maintenance budget, outlives the request
	return budget.New(budget.Limits{})
}
`
	if fs := findings(t, "internal/x/x.go", src); len(fs) != 0 {
		t.Fatalf("waived ctxdrop still flagged: %v", fs)
	}
}
