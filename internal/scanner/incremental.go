package scanner

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/budget"
	"repro/internal/exports"
	"repro/internal/mdg"
	"repro/internal/queries"
	"repro/internal/store"
)

// IncrementalStats counts what the incremental state reused and
// rebuilt, cumulatively over its lifetime.
type IncrementalStats struct {
	// Front-end (parse/normalize) cache traffic.
	FrontEndHits, FrontEndMisses int
	// Fragment (per require-component MDG) cache traffic. A fragment
	// miss is a rebuild: the component's files changed (or were never
	// seen), so its graph was re-analyzed from the lowered programs.
	FragmentHits, FragmentMisses int
	// Detection-result cache traffic (per fragment × engine ×
	// export-fallback bit).
	DetectHits, DetectMisses int
	// Reach-gate unit traffic: a unit is one require-component's
	// export pass. A miss re-runs the pass over the component's files.
	GateHits, GateMisses int
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
	s.GateHits += o.GateHits
	s.GateMisses += o.GateMisses
	s.EvictedFiles += o.EvictedFiles
	s.EvictedFragments += o.EvictedFragments
	s.StoreHits += o.StoreHits
	s.StoreMisses += o.StoreMisses
	s.StorePuts += o.StorePuts
	s.StoreQuarantined += o.StoreQuarantined
	s.StoreErrors += o.StoreErrors
}

// IncrementalState carries everything a package's re-scans can reuse:
// the per-file front end with its dependency facts (found by a content
// hash over path and source, keyed by the lowered program),
// per-component reach-gate units and MDG fragments (both keyed by the
// component files' lowered-program keys; fragments are held as their
// store records), per-fragment detection results, and a
// record of its last clean scan (lastScan). One state serves one
// logical package; all methods are safe for concurrent use
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
	frags    map[string]*fragEntry
	// gates holds the reach gate's export pass per require-component,
	// in memory only (a unit's FuncInfo.Def point into the lowered
	// programs).
	gates map[string]*gateEntry
	// last records the last clean scan (see lastScan).
	last  lastScan
	stats IncrementalStats
	// published is read without mu, so a metrics scrape or the pool's
	// limit check never waits on a scan in flight (nil before the
	// first scan ends).
	published atomic.Pointer[publishedState]
	// store, when attached, backs the fragment/detect/facts families
	// on disk (read-through on miss, write-through on clean build; see
	// load and save in persist.go).
	store *store.Store
}

// NewIncrementalState returns an empty per-package incremental state.
func NewIncrementalState() *IncrementalState {
	return &IncrementalState{
		retained: true,
		files:    make(map[string]*frontEndEntry),
		frags:    make(map[string]*fragEntry),
		gates:    make(map[string]*gateEntry),
	}
}

// publishedState is a state's counters and EstimateBytes value as of
// the end of its last scan.
type publishedState struct {
	stats IncrementalStats
	bytes int64
}

// publish snapshots the counters and byte estimate at the end of a
// scan. Callers hold st.mu.
func (st *IncrementalState) publish() {
	st.published.Store(&publishedState{stats: st.stats, bytes: st.estimateBytes()})
}

func (st *IncrementalState) snapshot() publishedState {
	if p := st.published.Load(); p != nil {
		return *p
	}
	return publishedState{}
}

// Stats returns the cumulative counters as of the end of the state's
// last scan; it never waits for a scan in flight.
func (st *IncrementalState) Stats() IncrementalStats { return st.snapshot().stats }

// gateEntry is one require-component's cached export pass, with the
// files it covers.
type gateEntry struct {
	rels []string
	unit *exports.Unit
}

// fragEntry is one cached require-component (or, in tree mode, one
// package): its fragment record — the component's graph, function
// summaries and linker side tables in the store's encoding — and its
// detection results. A scan that reads the fragment decodes the record
// straight into an acquired graph (rehydrate, linkTree); a cached
// detection is served without decoding anything.
type fragEntry struct {
	key string
	// enc is the record exactly as the store holds it
	// (encodeFragEntry). It is immutable: graphs and findings decoded
	// from it share its string bytes, so it is written only where the
	// entry is made (the fragmutate lint check).
	enc     []byte
	hasReal bool
	// nodes and edges size the graph, for the report on a hit.
	nodes, edges int
	detect       map[detectKey]*detectResult
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
// both caps hold, sizing each state by the estimate it published at the
// end of its last scan. Called under p.mu; takes no state's lock.
func (p *StatePool) enforceLimits(keep string) {
	if p.maxStates <= 0 && p.maxBytes <= 0 {
		return
	}
	var total int64
	if p.maxBytes > 0 {
		for _, st := range p.states {
			total += st.EstimateBytes()
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
		var sz int64
		if p.maxBytes > 0 {
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

// Stats aggregates the counters every state in the pool published at
// the end of its last scan; it never waits for a scan in flight.
func (p *StatePool) Stats() IncrementalStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out IncrementalStats
	for _, st := range p.states {
		out.Add(st.Stats())
	}
	return out
}

// EstimateBytes approximates the memory this state's caches retained
// at the end of its last scan; it never waits for a scan in flight. It
// is a sizing heuristic for pool limits, not an exact accounting:
// a fragment is charged its record's length plus a flat rate,
// front-end entries per lowered statement plus a flat rate for their
// facts, gate units and the last scan's gate result per function,
// detection entries (the last scan's tree detections among them) at a
// flat rate plus their findings. TestEstimateBytesTracksHeap holds it
// to the heap the states retain.
func (st *IncrementalState) EstimateBytes() int64 { return st.snapshot().bytes }

// estimateBytes computes EstimateBytes. Callers hold st.mu.
func (st *IncrementalState) estimateBytes() int64 {
	var b int64
	for _, fe := range st.frags {
		b += 512 + int64(len(fe.enc))
		for _, dr := range fe.detect {
			b += 256 + int64(len(dr.findings))*160
		}
	}
	for _, e := range st.files {
		b += 512 + int64(e.coreStmts)*176
		if e.facts != nil {
			b += 256
		}
	}
	for _, ge := range st.gates {
		b += 2048 + int64(ge.unit.Nodes())*384
	}
	if last := &st.last; last.rr != nil {
		b += 256 + int64(len(last.units))*64 + int64(last.rr.TotalFuncs)*192
		for _, td := range last.treeDetect {
			b += 128 + int64(len(td.findings))*160
		}
	}
	return b
}

// evictFiles drops the front-end entries, facts and gate units of
// files not in keep. Callers hold st.mu.
func (st *IncrementalState) evictFiles(keep map[string]bool) {
	for rel := range st.files {
		if !keep[rel] {
			delete(st.files, rel)
			st.stats.EvictedFiles++
		}
	}
	for k, ge := range st.gates {
		for _, rel := range ge.rels {
			if !keep[rel] {
				delete(st.gates, k)
				break
			}
		}
	}
}

// evictStale runs after a complete scan: any fragment key of the same
// mode (tree or component) that is not one of comps' keys belongs to
// changed or deleted files and is stale for good — a changed file can
// never produce the old key again without also reproducing the old
// lowered program (an edit that keeps the program keeps the key, so
// its fragment is current, not stale). The two modes' key namespaces
// never invalidate each other; gate units live in the component
// namespace. Callers hold st.mu.
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
	if !tree {
		for k := range st.gates {
			if !current[k] {
				delete(st.gates, k)
			}
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
	fe, ok := load(st, store.KindFragment, key, func(b []byte) (*fragEntry, error) {
		return decodeFragEntry(key, b)
	})
	if !ok {
		return nil
	}
	st.frags[key] = fe
	return fe
}

// detection returns fe's cached detection result for dkey from memory
// or the store (nil on a miss); fp is the scan's sink-config
// fingerprint. Callers hold st.mu.
func (st *IncrementalState) detection(fe *fragEntry, dkey detectKey, fp *configFP) *detectResult {
	if dr, ok := fe.detect[dkey]; ok {
		return dr
	}
	cfp, ok := fp.get()
	if !ok {
		return nil
	}
	dr, ok := load(st, store.KindDetect, detectStoreKey(fe.key, dkey.engine, dkey.fallback, cfp), decodeDetectResult)
	if !ok {
		return nil
	}
	fe.detect[dkey] = dr
	return dr
}

// componentKey identifies a component by its files' lowered-program
// keys (which cover both path and program) plus the analysis options
// that shape the fragment.
func componentKey(units []fileUnit, aoptsKey string) string {
	h := sha256.New()
	h.Write([]byte(aoptsKey))
	for _, u := range units {
		h.Write([]byte{0})
		h.Write(u.fe.key[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// newFragEntry makes the entry of the record enc, whose graph is g.
func newFragEntry(key string, enc []byte, hasReal bool, g *mdg.Graph) *fragEntry {
	return &fragEntry{
		key:     key,
		enc:     enc,
		hasReal: hasReal,
		nodes:   g.NumNodes(),
		edges:   g.NumEdges(),
		detect:  make(map[detectKey]*detectResult),
	}
}

// rehydrate decodes a cached fragment into a detection-ready analysis
// result: its graph in an acquired graph (a single fragment keeps its
// locations, so the decoded summaries stay valid) and summaries of its
// own, at their build-time export marks. The scan releases the graph
// after its detection.
func rehydrate(fe *fragEntry) (*analysis.Result, error) {
	g := mdg.Acquire()
	fb, _, err := readFragEntry(fe.enc, g)
	if err != nil {
		g.Release()
		return nil, err
	}
	return &analysis.Result{Graph: g, Functions: fb.functions(), HasRealExports: fb.hasReal}, nil
}
