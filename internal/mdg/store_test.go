package mdg

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// Store is the string-keyed abstract variable store ρ̂ : X → ℘(L̂)
// (§3.2), mapping program variables to the sets of abstract locations
// they may denote. Stores form a lattice under pointwise subset
// inclusion; the tests below pin its laws. The analyzer runs on dense
// slot frames (internal/analysis); its string-keyed reference keeps a
// copy of this store.
type Store struct {
	m      map[string][]Loc
	parent *Store // lexical parent scope (closures); reads fall through
}

// NewStore returns an empty store with an optional parent scope.
func NewStore(parent *Store) *Store {
	return &Store{m: make(map[string][]Loc), parent: parent}
}

// Get returns the locations bound to x, consulting parent scopes.
func (s *Store) Get(x string) []Loc {
	if ls, ok := s.m[x]; ok {
		return ls
	}
	if s.parent != nil {
		return s.parent.Get(x)
	}
	return nil
}

// Has reports whether x is bound in this scope or any parent.
func (s *Store) Has(x string) bool {
	if _, ok := s.m[x]; ok {
		return true
	}
	return s.parent != nil && s.parent.Has(x)
}

// Set strongly updates x in the innermost scope that already binds it
// (assignment semantics), defaulting to this scope.
func (s *Store) Set(x string, ls []Loc) {
	for sc := s; sc != nil; sc = sc.parent {
		if _, ok := sc.m[x]; ok {
			sc.m[x] = dedupe(append([]Loc(nil), ls...))
			return
		}
	}
	s.m[x] = dedupe(append([]Loc(nil), ls...))
}

// SetLocal binds x in this scope regardless of outer bindings
// (declaration semantics).
func (s *Store) SetLocal(x string, ls []Loc) {
	s.m[x] = dedupe(append([]Loc(nil), ls...))
}

// Weaken adds locations to x's binding without removing existing ones
// (weak update; used at control-flow joins).
func (s *Store) Weaken(x string, ls []Loc) {
	cur := s.Get(x)
	s.Set(x, append(append([]Loc(nil), cur...), ls...))
}

// ReplaceAll substitutes old-version locations with their new versions
// in every binding of this scope chain; used by NV/NV* (§3.2: "the
// updated store with occurrences of older version locations replaced by
// their corresponding newer versions").
func (s *Store) ReplaceAll(repl map[Loc]Loc) {
	for sc := s; sc != nil; sc = sc.parent {
		for x, ls := range sc.m {
			changed := false
			out := make([]Loc, len(ls))
			for i, l := range ls {
				if nl, ok := repl[l]; ok && nl != l {
					out[i] = nl
					changed = true
				} else {
					out[i] = l
				}
			}
			if changed {
				sc.m[x] = dedupe(out)
			}
		}
	}
}

// WeakReplace adds the new versions alongside the old ones in every
// binding; used when a property update targets several abstract objects
// and it is unknown which one a given variable denotes (weak update).
func (s *Store) WeakReplace(repl map[Loc]Loc) {
	for sc := s; sc != nil; sc = sc.parent {
		for x, ls := range sc.m {
			var add []Loc
			for _, l := range ls {
				if nl, ok := repl[l]; ok && nl != l {
					add = append(add, nl)
				}
			}
			if add != nil {
				sc.m[x] = dedupe(append(append([]Loc(nil), ls...), add...))
			}
		}
	}
}

// Copy returns a deep copy of this scope (sharing the parent chain), for
// branch-local analysis.
func (s *Store) Copy() *Store {
	c := &Store{m: make(map[string][]Loc, len(s.m)), parent: s.parent}
	for x, ls := range s.m {
		c.m[x] = append([]Loc(nil), ls...)
	}
	return c
}

// Join merges o into s pointwise (s ⊔ o). Bindings present in only one
// store are kept as-is.
func (s *Store) Join(o *Store) {
	for x, ls := range o.m {
		cur := s.m[x]
		s.m[x] = dedupe(append(append([]Loc(nil), cur...), ls...))
	}
}

// Leq reports s ⊑ o on the local scope: dom(s) ⊆ dom(o) and pointwise
// subset.
func (s *Store) Leq(o *Store) bool {
	for x, ls := range s.m {
		os, ok := o.m[x]
		if !ok {
			return false
		}
		set := make(map[Loc]struct{}, len(os))
		for _, l := range os {
			set[l] = struct{}{}
		}
		for _, l := range ls {
			if _, ok := set[l]; !ok {
				return false
			}
		}
	}
	return true
}

// Vars returns the variables bound in the local scope, sorted.
func (s *Store) Vars() []string {
	out := make([]string, 0, len(s.m))
	for x := range s.m {
		out = append(out, x)
	}
	sort.Strings(out)
	return out
}

// Equal reports whether s and o bind the same variables in their local
// scopes to the same location lists, compared as sorted lists (so
// order is ignored and duplicates count). It is exactly Snapshot
// equality without rendering either store; parent scopes are not
// compared. The loop fixpoint uses it as its convergence check.
func (s *Store) Equal(o *Store) bool {
	if len(s.m) != len(o.m) {
		return false
	}
	for x, ls := range s.m {
		os, ok := o.m[x]
		if !ok || !sameLocs(ls, os) {
			return false
		}
	}
	return true
}

// sameLocs reports whether a and b are equal as sorted lists. The
// common case, identical lists, allocates nothing.
func sameLocs(a, b []Loc) bool {
	if len(a) != len(b) {
		return false
	}
	i := 0
	for i < len(a) && a[i] == b[i] {
		i++
	}
	if i == len(a) {
		return true
	}
	as := append([]Loc(nil), a[i:]...)
	bs := append([]Loc(nil), b[i:]...)
	slices.Sort(as)
	slices.Sort(bs)
	return slices.Equal(as, bs)
}

// Snapshot returns a canonical rendering of the local bindings, for
// diagnostics and tests: two local stores render equally exactly when
// Equal holds.
func (s *Store) Snapshot() string {
	var sb strings.Builder
	for _, x := range s.Vars() {
		ls := append([]Loc(nil), s.m[x]...)
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		fmt.Fprintf(&sb, "%s=%v;", x, ls)
	}
	return sb.String()
}

// String renders the store for diagnostics.
func (s *Store) String() string { return s.Snapshot() }

func TestStoreGetSet(t *testing.T) {
	s := NewStore(nil)
	if s.Get("x") != nil {
		t.Fatal("unbound variable should be nil")
	}
	s.Set("x", []Loc{1, 2})
	if got := s.Get("x"); len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	s.Set("x", []Loc{3})
	if got := s.Get("x"); len(got) != 1 || got[0] != 3 {
		t.Fatalf("strong update failed: %v", got)
	}
}

func TestStoreDedup(t *testing.T) {
	s := NewStore(nil)
	s.Set("x", []Loc{1, 1, 2, 2})
	if got := s.Get("x"); len(got) != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestStoreScopeChain(t *testing.T) {
	outer := NewStore(nil)
	outer.SetLocal("a", []Loc{1})
	inner := NewStore(outer)
	if got := inner.Get("a"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("inner should read outer: %v", got)
	}
	// Assignment updates the binding scope, not the inner one.
	inner.Set("a", []Loc{2})
	if got := outer.Get("a"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("outer should be updated: %v", got)
	}
	// SetLocal shadows.
	inner.SetLocal("a", []Loc{3})
	if got := inner.Get("a"); got[0] != 3 {
		t.Fatalf("inner = %v", got)
	}
	if got := outer.Get("a"); got[0] != 2 {
		t.Fatalf("outer must keep its own binding: %v", got)
	}
}

func TestStoreReplaceAll(t *testing.T) {
	outer := NewStore(nil)
	outer.SetLocal("a", []Loc{1})
	inner := NewStore(outer)
	inner.SetLocal("b", []Loc{1, 5})
	inner.ReplaceAll(map[Loc]Loc{1: 9})
	if got := inner.Get("b"); !hasLoc(got, 9) || hasLoc(got, 1) {
		t.Fatalf("b = %v", got)
	}
	if got := outer.Get("a"); !hasLoc(got, 9) {
		t.Fatalf("replace must traverse the scope chain: a = %v", got)
	}
}

func TestStoreJoinAndLeq(t *testing.T) {
	a := NewStore(nil)
	a.SetLocal("x", []Loc{1})
	b := NewStore(nil)
	b.SetLocal("x", []Loc{2})
	b.SetLocal("y", []Loc{3})
	a.Join(b)
	if got := a.Get("x"); len(got) != 2 {
		t.Fatalf("x = %v", got)
	}
	if got := a.Get("y"); len(got) != 1 {
		t.Fatalf("y = %v", got)
	}
	if !b.Leq(a) {
		t.Fatal("b ⊑ a must hold after join")
	}
	if a.Leq(b) {
		t.Fatal("a ⋢ b (a has x=1 that b lacks)")
	}
}

func TestStoreCopyIsolation(t *testing.T) {
	s := NewStore(nil)
	s.SetLocal("x", []Loc{1})
	c := s.Copy()
	c.Set("x", []Loc{2})
	if got := s.Get("x"); got[0] != 1 {
		t.Fatalf("copy should not alias: %v", got)
	}
}

func TestStoreWeaken(t *testing.T) {
	s := NewStore(nil)
	s.SetLocal("x", []Loc{1})
	s.Weaken("x", []Loc{2})
	if got := s.Get("x"); len(got) != 2 {
		t.Fatalf("x = %v", got)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	a := NewStore(nil)
	a.SetLocal("x", []Loc{2, 1})
	a.SetLocal("y", []Loc{3})
	b := NewStore(nil)
	b.SetLocal("y", []Loc{3})
	b.SetLocal("x", []Loc{1, 2})
	if a.Snapshot() != b.Snapshot() {
		t.Fatalf("snapshots differ: %q vs %q", a.Snapshot(), b.Snapshot())
	}
}

// Property: Join is an upper bound — after a.Join(b), both original
// stores are ⊑ the result.
func TestJoinUpperBoundQuick(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a := NewStore(nil)
		b := NewStore(nil)
		for i, x := range xs {
			a.SetLocal(varName(i), []Loc{Loc(x%8) + 1})
		}
		for i, y := range ys {
			b.SetLocal(varName(i), []Loc{Loc(y%8) + 1})
		}
		aOrig := a.Copy()
		a.Join(b)
		return aOrig.Leq(a) && b.Leq(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Join is idempotent on equal stores.
func TestJoinIdempotentQuick(t *testing.T) {
	f := func(xs []uint8) bool {
		a := NewStore(nil)
		for i, x := range xs {
			a.SetLocal(varName(i), []Loc{Loc(x%8) + 1})
		}
		snap := a.Snapshot()
		a.Join(a.Copy())
		return a.Snapshot() == snap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func varName(i int) string {
	return string(rune('a' + i%20))
}
