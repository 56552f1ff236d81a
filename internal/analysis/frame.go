package analysis

import (
	"slices"

	"repro/internal/mdg"
)

// The abstract store ρ̂ (§3.2) as dense frames. A frame is one scope's
// bindings indexed by slot (see lower.go). A slot is bound exactly when
// its binding is non-nil — an empty binding is the shared zero-length
// slice `bound` — which is the frame's presence bit. Bindings are
// immutable and shared: every update installs a new slice, so copying
// a frame copies slice headers only, and a frame copy shares even that
// array until one side writes (copy on write).
//
// An env is the scope chain a statement runs in: env[0] the global
// frame, env[1] the module frame, then the enclosing functions' frames,
// innermost last. The control-flow joins copy, join and compare the
// whole chain: a branch or loop body inside a closure may assign a
// variable of any enclosing scope.

type frame struct {
	vals   [][]mdg.Loc
	shared bool // vals is shared with another frame: copy before writing
	// scratch, when set, carves this frame's copies of vals: function
	// frames and chain copies never outlive the build, so their arrays
	// are build scratch (see scratch.go). Root's frames leave it nil.
	scratch *slab[[]mdg.Loc]
}

type env []*frame

// bound is the binding of a slot bound to no location.
var bound = []mdg.Loc{}

func newFrame(nslots int) *frame { return &frame{vals: make([][]mdg.Loc, nslots)} }

func (f *frame) at(slot int32) []mdg.Loc {
	if int(slot) < len(f.vals) {
		return f.vals[slot]
	}
	return nil
}

func (f *frame) put(slot int32, ls []mdg.Loc) {
	if ls == nil {
		ls = bound
	}
	if f.shared {
		f.vals = f.cloneVals()
		f.shared = false
	}
	if int(slot) >= len(f.vals) {
		f.vals = append(f.vals, make([][]mdg.Loc, int(slot)+1-len(f.vals))...)
	}
	f.vals[slot] = ls
}

// cloneVals copies vals for a write: from the scratch slab while it is
// under maxPooled elements, else from the heap.
func (f *frame) cloneVals() [][]mdg.Loc {
	if f.scratch == nil || f.scratch.n+len(f.vals) > maxPooled {
		return slices.Clone(f.vals)
	}
	c := f.scratch.alloc(len(f.vals))
	copy(c, f.vals)
	return c
}

// sameArray reports that two frames hold the very same bindings array.
func sameArray(a, b [][]mdg.Loc) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// sameSlice reports that two bindings are the very same slice.
func sameSlice(a, b []mdg.Loc) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// copyEnv returns a copy of the whole chain sharing every frame's
// bindings until written. A copy lives exactly as long as the If or
// loop iteration that made it, so copies nest and their frames come
// from a stack of chunks: release(mark) frees every copy made since.
func (a *analyzer) copyEnv(e env) (env, copyMark) {
	mark := copyMark{a.copyChunk, a.copyOff}
	n := len(e)
	for a.copyChunk < len(a.copies) && a.copyOff+n > len(a.copies[a.copyChunk].frames) {
		a.copyChunk++
		a.copyOff = 0
	}
	if a.copyChunk == len(a.copies) {
		size := max(16, 2*n)
		a.copies = append(a.copies, copyChunk{frames: make([]frame, size), ptrs: make([]*frame, size)})
	}
	c := &a.copies[a.copyChunk]
	fs := c.frames[a.copyOff : a.copyOff+n]
	ps := c.ptrs[a.copyOff : a.copyOff+n : a.copyOff+n]
	for i, f := range e {
		f.shared = true
		fs[i] = frame{vals: f.vals, shared: true, scratch: &a.vals}
		ps[i] = &fs[i]
	}
	a.copyOff += n
	return env(ps), mark
}

// copyChunk backs chain copies (see copyEnv).
type copyChunk struct {
	frames []frame
	ptrs   []*frame
}

// copyMark is a position on the copy stack.
type copyMark struct{ chunk, off int }

func (a *analyzer) release(m copyMark) { a.copyChunk, a.copyOff = m.chunk, m.off }

// funcEnv returns the chain e extended by a fresh nslots-slot function
// frame. The frame, its bindings array and the chain are build scratch
// while the slabs are under maxPooled elements.
func (a *analyzer) funcEnv(e env, nslots int) env {
	if a.frames.n >= maxPooled || a.vals.n+nslots > maxPooled || a.envs.n+len(e) >= maxPooled {
		return append(e[:len(e):len(e)], newFrame(nslots))
	}
	fr := a.frames.next()
	fr.vals, fr.scratch = a.vals.alloc(nslots), &a.vals
	child := a.envs.alloc(len(e) + 1)
	copy(child, e)
	child[len(e)] = fr
	return child
}

// get returns r's binding: the first candidate frame that binds it,
// else the global frame's.
func (a *analyzer) get(e env, r *varRef) []mdg.Loc {
	for _, c := range r.cands {
		if ls := e[c.level].at(c.slot); ls != nil {
			return ls
		}
	}
	if rs := a.rootSlot[r.id]; rs >= 0 {
		return e[0].at(rs)
	}
	return nil
}

// set strongly updates r in the innermost frame that already binds it,
// defaulting to the current frame (assignment targets always have a
// slot there). ls becomes the binding; callers never mutate it later.
func (a *analyzer) set(e env, r *varRef, ls []mdg.Loc) {
	ls = a.dedupeShared(ls)
	for _, c := range r.cands {
		if f := e[c.level]; f.at(c.slot) != nil {
			f.put(c.slot, ls)
			return
		}
	}
	if rs := a.rootSlot[r.id]; rs >= 0 && e[0].at(rs) != nil {
		e[0].put(rs, ls)
		return
	}
	c := r.cands[0]
	e[c.level].put(c.slot, ls)
}

// setGlobal binds name id in the global frame.
func (a *analyzer) setGlobal(e env, id int32, ls []mdg.Loc) {
	rs := a.rootSlot[id]
	if rs < 0 {
		rs = a.nextRoot
		a.nextRoot++
		a.rootSlot[id] = rs
	}
	e[0].put(rs, ls)
}

// joinThenFirst joins the then-branch chain t into e, which holds the
// else-branch state: a slot bound on both paths gets the then binding
// followed by the else locations it lacks, as the reference's
// then.Join(else) orders them.
func (a *analyzer) joinThenFirst(e, t env) {
	for i, d := range e {
		s := t[i]
		if sameArray(d.vals, s.vals) {
			continue
		}
		for slot := int32(0); int(slot) < len(s.vals); slot++ {
			tl := s.vals[slot]
			if tl == nil {
				continue
			}
			el := d.at(slot)
			if el == nil {
				d.put(slot, tl)
				continue
			}
			if sameSlice(tl, el) {
				continue
			}
			if m := a.union(tl, el); !slices.Equal(m, el) {
				d.put(slot, m)
			}
		}
	}
}

// joinInto joins o into e pointwise (e ⊔ o): e's locations first, then
// o's missing ones.
func (a *analyzer) joinInto(e, o env) {
	for i, d := range e {
		s := o[i]
		if sameArray(d.vals, s.vals) {
			continue
		}
		for slot := int32(0); int(slot) < len(s.vals); slot++ {
			ol := s.vals[slot]
			if ol == nil {
				continue
			}
			cur := d.at(slot)
			if cur == nil {
				d.put(slot, ol)
				continue
			}
			if sameSlice(cur, ol) {
				continue
			}
			if m := a.union(cur, ol); len(m) != len(cur) {
				d.put(slot, m)
			}
		}
	}
}

// equalEnv reports that two chains bind the same slots to the same
// location sets in every frame (the loop fixpoint's convergence test).
func equalEnv(e, o env) bool {
	for i, f := range e {
		g := o[i]
		if sameArray(f.vals, g.vals) {
			continue
		}
		for slot := int32(0); int(slot) < max(len(f.vals), len(g.vals)); slot++ {
			x, y := f.at(slot), g.at(slot)
			if (x == nil) != (y == nil) || !sameLocs(x, y) {
				return false
			}
		}
	}
	return true
}

// sameLocs reports whether a and b are equal as sorted lists. The
// common case, identical lists, allocates nothing.
func sameLocs(a, b []mdg.Loc) bool {
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
	as := slices.Clone(a[i:])
	bs := slices.Clone(b[i:])
	slices.Sort(as)
	slices.Sort(bs)
	return slices.Equal(as, bs)
}

// replaceAll substitutes the new version nl for old in every binding
// of the chain (NV's strong update: "occurrences of older version
// locations replaced by their corresponding newer versions", §3.2).
func (a *analyzer) replaceAll(e env, old, nl mdg.Loc) {
	for _, f := range e {
		for slot, ls := range f.vals {
			if !slices.Contains(ls, old) {
				continue
			}
			out := make([]mdg.Loc, len(ls))
			for i, l := range ls {
				if l == old {
					l = nl
				}
				out[i] = l
			}
			f.put(int32(slot), dedupeLocs(out))
		}
	}
}

// weakReplace adds nl to every binding of the chain holding a location
// of L1 other than nl: the update hit one of several abstract objects,
// and it is unknown which one a given variable denotes.
func (a *analyzer) weakReplace(e env, L1 []mdg.Loc, nl mdg.Loc) {
	a.markBegin()
	for _, l := range L1 {
		if l != nl {
			a.setMark(l)
		}
	}
	for _, f := range e {
		for slot, ls := range f.vals {
			hit := false
			for _, l := range ls {
				if a.marked(l) {
					hit = true
					break
				}
			}
			if hit && !slices.Contains(ls, nl) {
				f.put(int32(slot), append(slices.Clip(ls), nl))
			}
		}
	}
}

// union returns x followed by the locations of y missing from x (x
// itself when there are none): dedupe(x ++ y) for a duplicate-free x.
func (a *analyzer) union(x, y []mdg.Loc) []mdg.Loc {
	var out []mdg.Loc
	if len(x)*len(y) <= 64 {
		for _, l := range y {
			if slices.Contains(x, l) || (out != nil && slices.Contains(out[len(x):], l)) {
				continue
			}
			if out == nil {
				out = append(make([]mdg.Loc, 0, len(x)+len(y)), x...)
			}
			out = append(out, l)
		}
	} else {
		a.markBegin()
		for _, l := range x {
			a.setMark(l)
		}
		for _, l := range y {
			if a.marked(l) {
				continue
			}
			a.setMark(l)
			if out == nil {
				out = append(make([]mdg.Loc, 0, len(x)+len(y)), x...)
			}
			out = append(out, l)
		}
	}
	if out == nil {
		return x
	}
	return out
}

// dedupeShared returns ls without repeated locations, copying only
// when there is something to drop (ls itself may be shared).
func (a *analyzer) dedupeShared(ls []mdg.Loc) []mdg.Loc {
	if len(ls) < 2 {
		return ls
	}
	if len(ls) <= 8 {
		for i := 1; i < len(ls); i++ {
			if slices.Contains(ls[:i], ls[i]) {
				return dedupeLocs(slices.Clone(ls))
			}
		}
		return ls
	}
	a.markBegin()
	for _, l := range ls {
		if a.marked(l) {
			return dedupeLocs(slices.Clone(ls))
		}
		a.setMark(l)
	}
	return ls
}

// The analyzer's location marks: markBegin starts a fresh mark set.
func (a *analyzer) markBegin() {
	a.epoch++
	if a.epoch == 0 {
		clear(a.mark)
		a.epoch = 1
	}
}

func (a *analyzer) setMark(l mdg.Loc) {
	if int(l) >= len(a.mark) {
		a.mark = append(a.mark, make([]uint32, int(l)+1-len(a.mark)+256)...)
	}
	a.mark[l] = a.epoch
}

func (a *analyzer) marked(l mdg.Loc) bool {
	return int(l) < len(a.mark) && a.mark[l] == a.epoch
}
