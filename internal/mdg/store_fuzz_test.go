package mdg

import "testing"

// fuzzStores decodes data into two local stores written directly (so
// lists may hold duplicates and come in any order): the first from the
// bytes as given, the second a perturbation of it — the same lists
// reversed or rotated, an element replaced or dropped, a variable
// added or removed — so equal and unequal pairs both occur often.
func fuzzStores(data []byte) (*Store, *Store) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	vars := []string{"a", "b", "c", "x1", "ret"}
	a, b := NewStore(nil), NewStore(nil)
	for n := next() % 6; n > 0; n-- {
		x := vars[next()%len(vars)]
		var ls []Loc
		for k := next() % 6; k > 0; k-- {
			ls = append(ls, Loc(next()%8-1))
		}
		a.m[x] = ls
		cp := append([]Loc(nil), ls...)
		switch next() % 6 {
		case 0: // reversed
			for i, j := 0, len(cp)-1; i < j; i, j = i+1, j-1 {
				cp[i], cp[j] = cp[j], cp[i]
			}
		case 1: // rotated
			if len(cp) > 0 {
				cp = append(cp[1:], cp[0])
			}
		case 2: // one element replaced
			if len(cp) > 0 {
				cp[next()%len(cp)] = Loc(next()%8 - 1)
			}
		case 3: // one element dropped
			if len(cp) > 0 {
				cp = cp[1:]
			}
		case 4: // unbound in the other store
			continue
		}
		b.m[x] = cp
	}
	if next()%4 == 0 {
		b.m["extra"] = nil
	}
	return a, b
}

// FuzzStoreEqual: the structural comparison the loop fixpoint uses
// agrees exactly with equality of the canonical Snapshot renderings.
func FuzzStoreEqual(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{1, 0, 3, 1, 1, 2, 0},
		{2, 1, 4, 1, 2, 2, 1, 1, 3, 0, 2, 5, 5, 2},
		{3, 0, 2, 7, 7, 1, 3, 5, 0, 0, 1, 2, 4, 3, 0},
		{5, 4, 0, 3, 3, 3, 3, 4, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := fuzzStores(data)
		want := a.Snapshot() == b.Snapshot()
		if got := a.Equal(b); got != want {
			t.Fatalf("Equal = %v, Snapshot equality = %v\n a: %s\n b: %s", got, want, a.Snapshot(), b.Snapshot())
		}
		if got := b.Equal(a); got != want {
			t.Fatalf("Equal not symmetric on\n a: %s\n b: %s", a.Snapshot(), b.Snapshot())
		}
		if !a.Equal(a.Copy()) {
			t.Fatalf("store unequal to its copy: %s", a.Snapshot())
		}
	})
}

// TestDedupeKeepsFirstOccurrences: dedupe keeps the first occurrence
// of every location, in order, on short and long lists.
func TestDedupeKeepsFirstOccurrences(t *testing.T) {
	for _, n := range []int{3, 16, 17, 64} {
		var in, want []Loc
		seen := map[Loc]bool{}
		for i := 0; i < n; i++ {
			l := Loc((i * 7) % (n/2 + 1))
			in = append(in, l)
			if !seen[l] {
				seen[l] = true
				want = append(want, l)
			}
		}
		got := dedupe(append([]Loc(nil), in...))
		if len(got) != len(want) {
			t.Fatalf("n=%d: dedupe(%v) = %v, want %v", n, in, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: dedupe(%v) = %v, want %v", n, in, got, want)
			}
		}
	}
}
