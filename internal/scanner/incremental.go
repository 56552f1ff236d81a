package scanner

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/budget"
	"repro/internal/mdg"
	"repro/internal/queries"
	"repro/internal/store"
)

// IncrementalStats counts what the incremental state reused and
// rebuilt, cumulatively over its lifetime.
type IncrementalStats struct {
	// Front-end (parse/normalize/CFG) cache traffic.
	FrontEndHits, FrontEndMisses int
	// Fragment (per require-component MDG) cache traffic. A fragment
	// miss is a rebuild: the component's files changed (or were never
	// seen), so its graph was re-analyzed from the lowered programs.
	FragmentHits, FragmentMisses int
	// Detection-result cache traffic (per fragment × engine ×
	// export-fallback bit).
	DetectHits, DetectMisses int
	// Entries dropped because their files disappeared from the
	// package (EvictedFiles) or their component key went stale
	// (EvictedFragments).
	EvictedFiles, EvictedFragments int
	// Persistent-store traffic (zero unless a store is attached).
	// StoreHits are entries served from disk instead of rebuilt;
	// StoreQuarantined counts records dropped for failing a CRC or
	// decode — each one a corruption turned into a cold rebuild
	// instead of a wrong finding. StoreErrors counts failed writes
	// (ENOSPC and injected faults): the entry stayed in memory, the
	// disk missed a speedup.
	StoreHits, StoreMisses, StorePuts int
	StoreQuarantined, StoreErrors     int
}

// Rebuilds returns the number of fragment rebuilds (the miss count).
func (s IncrementalStats) Rebuilds() int { return s.FragmentMisses }

// Add accumulates other into s (used by StatePool aggregation and
// metrics sweeps).
func (s *IncrementalStats) Add(o IncrementalStats) {
	s.FrontEndHits += o.FrontEndHits
	s.FrontEndMisses += o.FrontEndMisses
	s.FragmentHits += o.FragmentHits
	s.FragmentMisses += o.FragmentMisses
	s.DetectHits += o.DetectHits
	s.DetectMisses += o.DetectMisses
	s.EvictedFiles += o.EvictedFiles
	s.EvictedFragments += o.EvictedFragments
	s.StoreHits += o.StoreHits
	s.StoreMisses += o.StoreMisses
	s.StorePuts += o.StorePuts
	s.StoreQuarantined += o.StoreQuarantined
	s.StoreErrors += o.StoreErrors
}

// IncrementalState carries everything a package's re-scans can reuse:
// the per-file front end (keyed by a content hash over path and
// source), per-file dependency facts, per-component MDG fragments
// (immutable mdg.Fragment snapshots keyed by the component files'
// content hashes), and per-fragment detection results. One state
// serves one logical package; all methods are safe for concurrent use
// (a scan holds the state's lock end to end, so concurrent scans of
// the same state serialize).
//
// Every scan runs against a state (see pipeline.go). The zero value is
// the throwaway state of a cold scan: it retains nothing.
type IncrementalState struct {
	mu sync.Mutex
	// retained is set by NewIncrementalState: the state keeps what it
	// builds for the package's next scan.
	retained bool
	files    map[string]*frontEndEntry
	facts    map[string]*factsEntry
	frags    map[string]*fragEntry
	stats    IncrementalStats
	// store, when attached, backs the fragment/detect/facts families
	// on disk (read-through on miss, write-through on clean build).
	// See persist.go.
	store *store.Store
}

// NewIncrementalState returns an empty per-package incremental state.
func NewIncrementalState() *IncrementalState {
	return &IncrementalState{
		retained: true,
		files:    make(map[string]*frontEndEntry),
		facts:    make(map[string]*factsEntry),
		frags:    make(map[string]*fragEntry),
	}
}

// Stats returns a snapshot of the cumulative counters.
func (st *IncrementalState) Stats() IncrementalStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// Fragments returns the number of cached MDG fragments (test hook).
func (st *IncrementalState) Fragments() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.frags)
}

type factsEntry struct {
	hash  [sha256.Size]byte
	facts *fileFacts
}

// fragEntry is one cached require-component: an immutable graph
// snapshot plus the function summaries and export facts needed to
// rehydrate an analysis result for detection.
type fragEntry struct {
	key  string
	rels []string
	frag *mdg.Fragment
	// functions are shared mutable summaries (their Exported bit is
	// flipped when the package-wide export fallback toggles);
	// realExported records the build-time truth they are reset from.
	functions    map[string]*analysis.FuncSummary
	realExported map[string]bool
	hasReal      bool
	detect       map[detectKey]*detectResult
	// Cross-package linker side tables (tree mode): unresolved require
	// placeholders, per-call callee/this value sets, and per-module
	// CommonJS globals. Locations are fragment-local; the tree linker
	// translates them through the stitch remap (see analysis.Result).
	externals  map[string]mdg.Loc
	calleeLocs map[mdg.Loc][]mdg.Loc
	callThis   map[mdg.Loc][]mdg.Loc
	modEnv     map[string]analysis.ModuleLocs
}

type detectKey struct {
	engine   Engine
	fallback bool
	cfg      *queries.Config
}

// detectResult is a cached detection outcome for one fragment. Only
// complete runs (no budget interference) are cached.
type detectResult struct {
	findings  []queries.Finding
	truncated int
	err       error
	failure   budget.Class
}

// StatePool hands out one IncrementalState per package name, each
// scan taking its package's state as Options.Incremental — the shape
// corpus sweeps need (metrics.SweepGraphJSIncremental, graphjs
// -incremental, graphjsd's process-wide warm pool). A pool can be bounded (SetLimits) so a long-lived
// daemon cannot grow without limit: least-recently-used package
// states are evicted when the entry or estimated-byte cap is
// exceeded. With a store attached (AttachStore), eviction is cheap to
// recover from — the evicted state's fragments and detection results
// live on disk and reload on the package's next scan.
type StatePool struct {
	mu     sync.Mutex
	states map[string]*IncrementalState
	// lastUse orders states for LRU eviction (tick is a logical clock:
	// monotonic under mu, no wall-clock reads).
	lastUse map[string]int64
	tick    int64
	store   *store.Store

	maxStates int
	maxBytes  int64

	evictedStates int64
	evictedBytes  int64
}

// NewStatePool returns an empty, unbounded pool.
func NewStatePool() *StatePool {
	return &StatePool{
		states:  make(map[string]*IncrementalState),
		lastUse: make(map[string]int64),
	}
}

// SetLimits bounds the pool: at most maxStates package states and (an
// estimate of) maxBytes of retained cache memory; zero means
// unlimited on that axis. Exceeding either evicts least-recently-used
// states (never the one being returned).
func (p *StatePool) SetLimits(maxStates int, maxBytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.maxStates = maxStates
	p.maxBytes = maxBytes
}

// AttachStore connects every state in the pool — present and future —
// to the persistent store. nil detaches.
func (p *StatePool) AttachStore(s *store.Store) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.store = s
	for _, st := range p.states {
		st.AttachStore(s)
	}
}

// Store returns the attached persistent store (nil if none).
func (p *StatePool) Store() *store.Store {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.store
}

// Save flushes the attached store to disk. Scans write through as
// they go, so this is a group-commit point (drain, shutdown), not a
// bulk dump.
func (p *StatePool) Save() error {
	s := p.Store()
	if s == nil {
		return nil
	}
	return s.Sync()
}

// Get returns the state for name, creating it on first use, and
// enforces the pool's limits.
func (p *StatePool) Get(name string) *IncrementalState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.states[name]
	if st == nil {
		st = NewIncrementalState()
		st.store = p.store
		p.states[name] = st
	}
	p.tick++
	p.lastUse[name] = p.tick
	p.enforceLimits(name)
	return st
}

// enforceLimits evicts least-recently-used states (never keep) until
// both caps hold. Called under p.mu.
func (p *StatePool) enforceLimits(keep string) {
	if p.maxStates <= 0 && p.maxBytes <= 0 {
		return
	}
	var total int64
	sizes := make(map[string]int64, len(p.states))
	if p.maxBytes > 0 {
		for name, st := range p.states {
			sz := st.EstimateBytes()
			sizes[name] = sz
			total += sz
		}
	}
	for (p.maxStates > 0 && len(p.states) > p.maxStates) ||
		(p.maxBytes > 0 && total > p.maxBytes) {
		victim := ""
		var oldest int64
		for name := range p.states {
			if name == keep {
				continue
			}
			if t := p.lastUse[name]; victim == "" || t < oldest {
				victim, oldest = name, t
			}
		}
		if victim == "" {
			return // only keep remains; it is never evicted
		}
		sz := sizes[victim]
		if p.maxBytes > 0 && sz == 0 {
			sz = p.states[victim].EstimateBytes()
		}
		delete(p.states, victim)
		delete(p.lastUse, victim)
		p.evictedStates++
		p.evictedBytes += sz
		total -= sz
	}
}

// Evictions reports how many package states (and how many estimated
// bytes) the pool's limits have evicted so far.
func (p *StatePool) Evictions() (states int64, bytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evictedStates, p.evictedBytes
}

// Len returns the number of package states in the pool.
func (p *StatePool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.states)
}

// Stats aggregates the counters of every state in the pool.
func (p *StatePool) Stats() IncrementalStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out IncrementalStats
	for _, st := range p.states {
		out.Add(st.Stats())
	}
	return out
}

// EstimateBytes approximates the memory retained by this state's
// caches. It is a sizing heuristic for pool limits, not an exact
// accounting: fragments dominate (nodes and edges at struct size plus
// slice overhead), front-end entries are charged per lowered
// statement, facts and detection entries at flat rates.
func (st *IncrementalState) EstimateBytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var b int64
	for _, fe := range st.frags {
		if fe.frag != nil {
			b += int64(fe.frag.NumNodes())*112 + int64(fe.frag.NumEdges())*48
		}
		b += int64(len(fe.functions)) * 96
		for _, dr := range fe.detect {
			b += 128 + int64(len(dr.findings))*160
		}
	}
	for _, e := range st.files {
		b += 1024 + int64(e.coreStmts)*96
	}
	b += int64(len(st.facts)) * 256
	return b
}

// statsPtr snapshots the counters for a report.
func (st *IncrementalState) statsPtr() *IncrementalStats {
	s := st.stats
	return &s
}

// evictFiles drops the front-end entries and facts of files not in
// keep. Callers hold st.mu.
func (st *IncrementalState) evictFiles(keep map[string]bool) {
	for rel := range st.files {
		if !keep[rel] {
			delete(st.files, rel)
			st.stats.EvictedFiles++
		}
	}
	for rel := range st.facts {
		if !keep[rel] {
			delete(st.facts, rel)
		}
	}
}

// evictStale runs after a complete scan: any fragment key of the same
// mode (tree or component) that is not one of comps' keys belongs to
// changed or deleted files and is stale for good — a changed file can
// never produce the old key again without also reproducing the old
// content. The two modes' key namespaces never invalidate each other.
// Callers hold st.mu.
func (st *IncrementalState) evictStale(comps []component, tree bool) {
	current := make(map[string]bool, len(comps))
	for _, c := range comps {
		current[c.key] = true
	}
	for k := range st.frags {
		if strings.HasPrefix(k, treeKeyPrefix) == tree && !current[k] {
			delete(st.frags, k)
			st.stats.EvictedFragments++
		}
	}
}

// fragment returns the cached fragment for key from memory or, on a
// warm restart, from the store (a fragment built by a previous process
// or a replica sharing the directory). nil is a miss; a decode failure
// has already been quarantined and counted. Callers hold st.mu.
func (st *IncrementalState) fragment(key string) *fragEntry {
	if key == "" {
		return nil
	}
	if fe, ok := st.frags[key]; ok {
		return fe
	}
	fe, ok := st.loadFrag(key)
	if !ok {
		return nil
	}
	st.frags[key] = fe
	return fe
}

// detection returns fe's cached detection result for dkey from memory
// or the store (nil on a miss). Callers hold st.mu.
func (st *IncrementalState) detection(fe *fragEntry, dkey detectKey) *detectResult {
	if dr, ok := fe.detect[dkey]; ok {
		return dr
	}
	dr, ok := st.loadDetect(fe.key, dkey)
	if !ok {
		return nil
	}
	fe.detect[dkey] = dr
	return dr
}

// componentKey identifies a component by its files' content hashes
// (which cover both path and source) plus the analysis options that
// shape the fragment.
func componentKey(units []fileUnit, aoptsKey string) string {
	h := sha256.New()
	h.Write([]byte(aoptsKey))
	for _, u := range units {
		h.Write([]byte{0})
		h.Write(u.fe.hash[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// newFragEntry snapshots a freshly built component into a cacheable
// fragment. Called only on clean builds.
func newFragEntry(key string, rels []string, res *analysis.Result) *fragEntry {
	fe := partialFragEntry(key, rels, res)
	fe.frag = mdg.SnapshotFragment(res.Graph)
	return fe
}

// partialFragEntry wraps a (possibly budget-truncated) build without a
// graph snapshot; it is used for this scan only and never cached.
func partialFragEntry(key string, rels []string, res *analysis.Result) *fragEntry {
	fe := &fragEntry{
		key:          key,
		rels:         rels,
		functions:    res.Functions,
		realExported: make(map[string]bool, len(res.Functions)),
		hasReal:      res.HasRealExports,
		detect:       make(map[detectKey]*detectResult),
		externals:    res.Externals,
		calleeLocs:   res.CalleeLocs,
		callThis:     res.CallThis,
		modEnv:       res.ModuleEnv,
	}
	for name, fn := range res.Functions {
		fe.realExported[name] = fn.Exported
	}
	return fe
}

// rehydrate rebuilds a detection-ready analysis result from a cached
// fragment: a fresh graph via the stitching API (a single-fragment
// stitch preserves locations, so the stored summaries stay valid) with
// the export marks reset to the build-time truth.
func rehydrate(fe *fragEntry) *analysis.Result {
	g, _ := mdg.Stitch(fe.frag)
	res := &analysis.Result{
		Graph: g, Functions: fe.functions, HasRealExports: fe.hasReal,
		Externals: fe.externals, CalleeLocs: fe.calleeLocs,
		CallThis: fe.callThis, ModuleEnv: fe.modEnv,
	}
	for name, fn := range fe.functions {
		fn.Exported = fe.realExported[name]
		if n := g.Node(fn.Loc); n != nil {
			n.Exported = fn.Exported
		}
	}
	return res
}
