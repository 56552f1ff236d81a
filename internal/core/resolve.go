package core

import (
	"path"
	"slices"
	"strings"
)

// ResolveRequire resolves the require specifier spec, written in the
// file from, against a package's module files, given sorted. It is
// the one resolution rule of the MDG build, the reach gate and the
// incremental partition, so all three always agree. Only relative
// specifiers ('./x', '../y') resolve; bare names are external packages.
// The cleaned path, then it with '.js', then with '/index.js' are tried
// first. Failing those, the first file in sorted order whose basename
// matches wins (module file names may carry generator prefixes while
// requires use plain names), so an ambiguous basename resolves the
// same way on every run.
func ResolveRequire(sorted []string, from, spec string) (string, bool) {
	if !strings.HasPrefix(spec, "./") && !strings.HasPrefix(spec, "../") {
		return "", false
	}
	target := path.Clean(path.Join(path.Dir(from), spec))
	for _, c := range [...]string{target, target + ".js", path.Join(target, "index.js")} {
		if _, ok := slices.BinarySearch(sorted, c); ok {
			return c, true
		}
	}
	base := path.Base(target)
	trimmed := strings.TrimSuffix(base, ".js")
	for _, f := range sorted {
		if fb := strings.TrimSuffix(path.Base(f), ".js"); fb == base || fb == trimmed {
			return f, true
		}
	}
	return "", false
}
