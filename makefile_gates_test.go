package repro_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefileGatesMatchTests keeps the Makefile's named test gates
// honest. `go test -run P` passes when P matches nothing, so a gate
// whose tests were deleted or renamed would silently go empty. Every
// |-alternative of every -run, -bench and -fuzz pattern in a `go test`
// command must match at least one function of the right kind in the
// packages that command names. The literal `xxx` is the Makefile's
// "run no tests" idiom for benchmark and fuzz commands and is skipped.
func TestMakefileGatesMatchTests(t *testing.T) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	flagRe := regexp.MustCompile(`-(run|bench|fuzz) ('[^']*'|\S+)`)
	prefixes := map[string][]string{
		"run":   {"Test", "Fuzz"},
		"bench": {"Benchmark"},
		"fuzz":  {"Fuzz"},
	}
	gates := 0
	for _, line := range strings.Split(strings.ReplaceAll(string(data), "\\\n", " "), "\n") {
		if !strings.Contains(line, "$(GO) test ") {
			continue
		}
		var funcs []string
		for _, field := range strings.Fields(line) {
			if field == "." || strings.HasPrefix(field, "./") {
				funcs = append(funcs, testFuncs(t, field)...)
			}
		}
		for _, m := range flagRe.FindAllStringSubmatch(line, -1) {
			pattern := strings.Trim(m[2], "'")
			if pattern == "xxx" {
				continue
			}
			for _, alt := range strings.Split(pattern, "|") {
				gates++
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile: -%s alternative %q: %v", m[1], alt, err)
					continue
				}
				if !matchesAny(re, funcs, prefixes[m[1]]) {
					t.Errorf("Makefile: -%s alternative %q matches no %v function in the packages of %q",
						m[1], alt, prefixes[m[1]], strings.TrimSpace(line))
				}
			}
		}
	}
	if gates == 0 {
		t.Fatal("parsed no test gates from the Makefile")
	}
}

var testFuncRe = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)

// testFuncs lists the top-level test, fuzz and benchmark functions
// declared in one package directory's _test.go files.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFuncRe.FindAllStringSubmatch(string(src), -1) {
			out = append(out, m[1])
		}
	}
	return out
}

func matchesAny(re *regexp.Regexp, funcs, prefixes []string) bool {
	for _, name := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}
