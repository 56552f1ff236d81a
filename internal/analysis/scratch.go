package analysis

import "sync"

// Scratch reuse. An MDG build's working tables — the lowered program,
// the name tables, the per-location caches, the chain-copy stack and
// the function frames with their bindings arrays, the mark set — live
// for one AnalyzeModules call, so the analyzer that holds them is
// pooled and reset when the call ends instead of being allocated
// afresh per package. The invariant: nothing pooled is reachable from
// the Result. The graph, the Result and its side tables (Calls,
// Externals, CalleeLocs, CallThis), the function summaries and
// everything Result.Root references — the global and module frames and
// their bindings arrays, the shared single-location bindings
// (oneChunk) and the slot names — are allocated for the caller and
// never pooled. A build that panics never returns its analyzer; one
// whose budget tripped, or whose tables grew past maxPooled, drops it.

// maxPooled caps the elements any one pooled table may hold (and the
// lowered ops a build may carve) for the analyzer to be pooled, so one
// huge package cannot pin memory.
const maxPooled = 1 << 14

var analyzerPool = sync.Pool{New: func() any {
	a := &analyzer{modules: map[string]moduleGlobals{}}
	a.lw = lowerer{a: a, ids: map[string]int32{}, qids: map[string]int32{}}
	return a
}}

// recycle resets a and returns it to the pool (see the invariant
// above).
func (a *analyzer) recycle() {
	lw := &a.lw
	if a.opts.Budget.Err() != nil || len(a.one) > maxPooled || len(a.mark) > maxPooled ||
		len(lw.infos) > maxPooled || len(lw.addrs) > maxPooled || lw.ops.n > maxPooled ||
		lw.refs.n > maxPooled || lw.operands.n > maxPooled {
		return
	}
	clear(a.fnByID)
	clear(a.qnames)
	clear(a.fnStack)
	clear(a.files)
	clear(a.modules)
	clear(a.one)
	clear(a.argBuf)
	for i := range a.copies {
		clear(a.copies[i].frames)
		clear(a.copies[i].ptrs)
	}
	clear(lw.ids)
	clear(lw.qids)
	clear(lw.infos)
	clear(lw.shadow)
	lw.refs.reset()
	lw.lits.reset()
	lw.ops.reset()
	lw.calls.reset()
	lw.funcs.reset()
	lw.operands.reset()
	lw.slots.reset()
	lw.strs.reset()
	a.frames.reset()
	a.vals.reset()
	a.envs.reset()
	*a = analyzer{
		fnByID:    a.fnByID[:0],
		qnames:    a.qnames[:0],
		locFn:     zeroed(a.locFn),
		isCall:    zeroed(a.isCall),
		fnStack:   a.fnStack[:0],
		rootSlot:  a.rootSlot[:0],
		globalLoc: a.globalLoc[:0],
		modules:   a.modules,
		files:     a.files[:0],
		one:       a.one,
		copies:    a.copies,
		argBuf:    a.argBuf[:0],
		mark:      a.mark,
		epoch:     a.epoch,
		frames:    a.frames,
		vals:      a.vals,
		envs:      a.envs,
		lw: lowerer{
			a:        a,
			ids:      lw.ids,
			infos:    lw.infos[:0],
			decls:    lw.decls[:0],
			shadow:   lw.shadow[:0],
			qids:     lw.qids,
			refs:     lw.refs,
			lits:     lw.lits,
			addrs:    lw.addrs[:0],
			ops:      lw.ops,
			calls:    lw.calls,
			funcs:    lw.funcs,
			operands: lw.operands,
			slots:    lw.slots,
			strs:     lw.strs,
		},
	}
	analyzerPool.Put(a)
}

// zeroed clears s, keeping its length.
func zeroed[T any](s []T) []T {
	clear(s)
	return s
}

// slab hands out zeroed elements and runs of T carved from chunks that
// survive reset, so a pooled analyzer reuses them build after build.
// Carved memory never moves: a new chunk is started when the current
// one is full.
type slab[T any] struct {
	chunks [][]T
	cur    int // chunks[cur] is being carved
	n      int // elements carved since the last reset
}

// next returns one zeroed element.
func (s *slab[T]) next() *T { return &s.alloc(1)[0] }

// alloc returns n zeroed elements (nil for n = 0).
func (s *slab[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	s.n += n
	for ; s.cur < len(s.chunks); s.cur++ {
		c := s.chunks[s.cur]
		if m := len(c); m+n <= cap(c) {
			s.chunks[s.cur] = c[:m+n]
			return c[m : m+n : m+n]
		}
	}
	size := 64
	if k := len(s.chunks); k > 0 {
		size = min(2*cap(s.chunks[k-1]), 1024)
	}
	c := make([]T, n, max(n, size))
	s.chunks = append(s.chunks, c)
	return c[:n:n]
}

// reset zeroes everything carved and rewinds to the first chunk.
func (s *slab[T]) reset() {
	for i := 0; i <= s.cur && i < len(s.chunks); i++ {
		clear(s.chunks[i])
		s.chunks[i] = s.chunks[i][:0]
	}
	s.cur, s.n = 0, 0
}
