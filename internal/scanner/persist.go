package scanner

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/budget"
	"repro/internal/mdg"
	"repro/internal/queries"
	"repro/internal/store"
)

// Persistent incremental state
//
// This file gives the incremental scanner's three cache families a
// durable form in the content-addressed store (internal/store):
//
//   - KindFragment: one fragEntry — the component's MDG fragment
//     (compact mdg codec) plus the function summaries and export facts
//     rehydration needs — keyed by the componentKey already used for
//     the in-memory map. Content-addressed keys make invalidation
//     unnecessary: a stale key can only be hit again if the exact file
//     contents (and analysis options) that produced it come back, and
//     then it is valid again by construction.
//   - KindDetect: one cached detection result, keyed by componentKey ×
//     engine × export-fallback bit × sink-config fingerprint. Only
//     clean results (no error, no failure class) are
//     persisted; the rare error-carrying entries recompute on restart,
//     which changes speed, never findings.
//   - KindFrontEnd: per-file dependency facts keyed by the file's
//     front-end content hash (which covers path and source).
//
// All three families go through one read-through (load) and one
// write-through (save); the keys are derived at the call sites.
//
// Decoders trust nothing. Bytes arrive CRC-clean from the store but
// could still be written by a different build or corrupted at a layer
// the CRC cannot see, so they read through mdg.Reader (bounds-checked,
// sticky error) and load turns every decode failure into
// store.Quarantine + a cold rebuild — the degrade-to-cold invariant.
// FuzzStoreDecode drives all of these decoders over corrupted inputs;
// TestStoreFormatGolden pins their byte format.
//
// Function summaries are persisted without their *core.FuncDef: after
// rehydration, detection consumes only the graph and the summaries'
// location/export fields (the reach gate computes the export surface
// from the lowered programs, or its in-memory units of them), so Def
// stays nil on load.

// persistVersion versions the scanner-level record bodies,
// independently of the store's record framing and the mdg fragment
// codec (each layer can evolve alone). Version 2 added the
// cross-package linker side tables (externals, callee/this sets,
// module environments) to fragment entries; version-1 records decode-
// fail into a quarantine + cold rebuild, the standard upgrade path.
const persistVersion = 2

// errPersistCodec wraps every scanner-level decode failure.
var errPersistCodec = errors.New("scanner: persisted entry decode")

// ---------------------------------------------------------------------------
// Fragment entries
// ---------------------------------------------------------------------------

// encodeFragEntry serializes a cacheable fragment entry. Only called
// for clean builds (fe.frag != nil).
func encodeFragEntry(fe *fragEntry) []byte {
	buf := make([]byte, 0, 256)
	buf = append(buf, persistVersion)
	buf = binary.AppendUvarint(buf, uint64(len(fe.rels)))
	for _, rel := range fe.rels {
		buf = mdg.AppendString(buf, rel)
	}
	buf = mdg.AppendBool(buf, fe.hasReal)
	names := make([]string, 0, len(fe.functions))
	for name := range fe.functions {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		fn := fe.functions[name]
		buf = mdg.AppendString(buf, name)
		buf = binary.AppendUvarint(buf, uint64(fn.Loc))
		buf = mdg.AppendLocs(buf, fn.Params)
		buf = binary.AppendUvarint(buf, uint64(fn.ThisLoc))
		buf = binary.AppendUvarint(buf, uint64(fn.RetLoc))
		// The build-time export truth, not the possibly fallback-
		// mutated live bit: rehydrate resets from realExported anyway.
		buf = mdg.AppendBool(buf, fe.realExported[name])
	}
	// Cross-package linker side tables, each in sorted key order so
	// equal entries encode identically.
	specs := make([]string, 0, len(fe.externals))
	for spec := range fe.externals {
		specs = append(specs, spec)
	}
	sort.Strings(specs)
	buf = binary.AppendUvarint(buf, uint64(len(specs)))
	for _, spec := range specs {
		buf = mdg.AppendString(buf, spec)
		buf = binary.AppendUvarint(buf, uint64(fe.externals[spec]))
	}
	buf = appendLocTable(buf, fe.calleeLocs)
	buf = appendLocTable(buf, fe.callThis)
	files := make([]string, 0, len(fe.modEnv))
	for file := range fe.modEnv {
		files = append(files, file)
	}
	sort.Strings(files)
	buf = binary.AppendUvarint(buf, uint64(len(files)))
	for _, file := range files {
		me := fe.modEnv[file]
		buf = mdg.AppendString(buf, file)
		buf = binary.AppendUvarint(buf, uint64(me.Module))
		buf = binary.AppendUvarint(buf, uint64(me.Exports))
	}
	return append(buf, mdg.EncodeFragment(fe.frag)...)
}

// appendLocTable encodes a per-call location table in sorted key
// order.
func appendLocTable(buf []byte, m map[mdg.Loc][]mdg.Loc) []byte {
	keys := make([]mdg.Loc, 0, len(m))
	for l := range m {
		keys = append(keys, l)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, l := range keys {
		buf = binary.AppendUvarint(buf, uint64(l))
		buf = mdg.AppendLocs(buf, m[l])
	}
	return buf
}

// readLocTable decodes a per-call location table written by
// appendLocTable (nil for an empty table).
func readLocTable(r *mdg.Reader) map[mdg.Loc][]mdg.Loc {
	n := r.Count(2)
	if n == 0 || r.Err() != nil {
		return nil
	}
	m := make(map[mdg.Loc][]mdg.Loc, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		l := r.Loc()
		vals := r.Locs()
		if r.Err() != nil {
			break
		}
		if _, dup := m[l]; dup {
			r.Fail("duplicate loc-table key")
			break
		}
		m[l] = vals
	}
	return m
}

// decodeFragEntry parses a persisted fragment entry back into the
// in-memory form (Def-less summaries, detect map empty). Every
// summary location is validated against the fragment's node set so a
// corrupt record cannot smuggle dangling references into detection.
func decodeFragEntry(key string, data []byte) (*fragEntry, error) {
	r := mdg.NewReader(data)
	if v := r.Byte(); r.Err() == nil && v != persistVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", errPersistCodec, v, persistVersion)
	}
	fe := &fragEntry{
		key:          key,
		functions:    make(map[string]*analysis.FuncSummary),
		realExported: make(map[string]bool),
		detect:       make(map[detectKey]*detectResult),
	}
	nr := r.Count(1)
	for i := 0; i < nr && r.Err() == nil; i++ {
		fe.rels = append(fe.rels, r.Str())
	}
	fe.hasReal = r.Bool()
	nf := r.Count(4)
	for i := 0; i < nf && r.Err() == nil; i++ {
		name := r.Str()
		fn := &analysis.FuncSummary{}
		fn.Loc = r.Loc()
		fn.Params = r.Locs()
		fn.ThisLoc = r.Loc()
		fn.RetLoc = r.Loc()
		exported := r.Bool()
		if r.Err() != nil {
			break
		}
		if _, dup := fe.functions[name]; dup {
			return nil, fmt.Errorf("%w: duplicate function %q", errPersistCodec, name)
		}
		fn.Exported = exported
		fe.functions[name] = fn
		fe.realExported[name] = exported
	}
	ne := r.Count(2)
	if ne > 0 {
		fe.externals = make(map[string]mdg.Loc, ne)
	}
	for i := 0; i < ne && r.Err() == nil; i++ {
		spec := r.Str()
		l := r.Loc()
		if r.Err() != nil {
			break
		}
		if _, dup := fe.externals[spec]; dup {
			return nil, fmt.Errorf("%w: duplicate external %q", errPersistCodec, spec)
		}
		fe.externals[spec] = l
	}
	fe.calleeLocs = readLocTable(r)
	fe.callThis = readLocTable(r)
	nm := r.Count(3)
	if nm > 0 {
		fe.modEnv = make(map[string]analysis.ModuleLocs, nm)
	}
	for i := 0; i < nm && r.Err() == nil; i++ {
		file := r.Str()
		me := analysis.ModuleLocs{Module: r.Loc(), Exports: r.Loc()}
		if r.Err() != nil {
			break
		}
		if _, dup := fe.modEnv[file]; dup {
			return nil, fmt.Errorf("%w: duplicate module env %q", errPersistCodec, file)
		}
		fe.modEnv[file] = me
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: %w", errPersistCodec, r.Err())
	}
	frag, err := mdg.DecodeFragment(r.Rest())
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errPersistCodec, err)
	}
	fe.frag = frag
	locs := frag.LocSet()
	okLoc := func(l mdg.Loc) bool { return l == mdg.NoLoc || locs[l] }
	for name, fn := range fe.functions {
		if !okLoc(fn.Loc) || !okLoc(fn.ThisLoc) || !okLoc(fn.RetLoc) {
			return nil, fmt.Errorf("%w: function %q references missing node", errPersistCodec, name)
		}
		for _, p := range fn.Params {
			if !okLoc(p) {
				return nil, fmt.Errorf("%w: function %q parameter references missing node", errPersistCodec, name)
			}
		}
	}
	for spec, l := range fe.externals {
		if !okLoc(l) {
			return nil, fmt.Errorf("%w: external %q references missing node", errPersistCodec, spec)
		}
	}
	for _, m := range []map[mdg.Loc][]mdg.Loc{fe.calleeLocs, fe.callThis} {
		for l, vals := range m {
			if !okLoc(l) {
				return nil, fmt.Errorf("%w: call table references missing node", errPersistCodec)
			}
			for _, v := range vals {
				if !okLoc(v) {
					return nil, fmt.Errorf("%w: call table value references missing node", errPersistCodec)
				}
			}
		}
	}
	for file, me := range fe.modEnv {
		if !okLoc(me.Module) || !okLoc(me.Exports) {
			return nil, fmt.Errorf("%w: module env %q references missing node", errPersistCodec, file)
		}
	}
	return fe, nil
}

// ---------------------------------------------------------------------------
// Detection results
// ---------------------------------------------------------------------------

// detectRecord is the persisted (JSON) form of a clean detectResult.
// Findings round-trip exactly: every queries.Finding field is exported
// and JSON-stable, and provenance is recomputed per scan on report
// copies, so cached findings never carry it.
type detectRecord struct {
	V         int               `json:"v"`
	Findings  []queries.Finding `json:"findings,omitempty"`
	Truncated int               `json:"truncated,omitempty"`
}

// encodeDetectResult serializes dr if it is persistable: only clean
// outcomes go to disk (errors are process-local values that cannot
// round-trip, and they are rare enough that recomputing them is the
// simpler correctness argument).
func encodeDetectResult(dr *detectResult) ([]byte, bool) {
	if dr.err != nil || dr.failure != budget.ClassNone {
		return nil, false
	}
	body, err := json.Marshal(detectRecord{
		V:         persistVersion,
		Findings:  dr.findings,
		Truncated: dr.truncated,
	})
	if err != nil {
		return nil, false
	}
	return body, true
}

func decodeDetectResult(data []byte) (*detectResult, error) {
	var rec detectRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%w: %w", errPersistCodec, err)
	}
	if rec.V != persistVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", errPersistCodec, rec.V, persistVersion)
	}
	return &detectResult{
		findings:  rec.Findings,
		truncated: rec.Truncated,
	}, nil
}

// detectStoreKey derives the store key for one detection result:
// component content × engine × package-wide fallback bit × sink
// configuration fingerprint (see configFP).
func detectStoreKey(ckey string, engine Engine, fallback bool, fp string) string {
	return fmt.Sprintf("%s|%s|%t|%s", ckey, engine, fallback, fp)
}

// configFP fingerprints a scan's sink configuration for detection
// store keys. The in-memory detect map keys on the caller's Config
// pointer; the store must key on config *content*, so the config is
// hashed — once per scan, on first use (nil means the canonical
// default).
type configFP struct {
	cfg  *queries.Config
	fp   string
	ok   bool
	done bool
}

// get returns the fingerprint; ok is false for a config that cannot
// be fingerprinted, whose results are then not persisted.
func (c *configFP) get() (fp string, ok bool) {
	if !c.done {
		c.done = true
		c.fp, c.ok = "default", true
		if c.cfg != nil {
			b, err := json.Marshal(c.cfg)
			if err != nil {
				c.fp, c.ok = "", false
			} else {
				sum := sha256.Sum256(b)
				c.fp = hex.EncodeToString(sum[:8])
			}
		}
	}
	return c.fp, c.ok
}

// ---------------------------------------------------------------------------
// Front-end dependency facts
// ---------------------------------------------------------------------------

// encodeFacts serializes one file's dependency facts. Maps are written
// in sorted key order so equal facts encode identically.
func encodeFacts(ff *fileFacts) []byte {
	buf := make([]byte, 0, 128)
	buf = append(buf, persistVersion)
	buf = binary.AppendUvarint(buf, uint64(len(ff.requires)))
	for _, s := range ff.requires {
		buf = mdg.AppendString(buf, s)
	}
	for _, m := range []map[string]bool{ff.freeReads, ff.assigned, ff.mutated, ff.readRoots} {
		keys := make([]string, 0, len(m))
		for k := range m {
			if m[k] {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		buf = binary.AppendUvarint(buf, uint64(len(keys)))
		for _, k := range keys {
			buf = mdg.AppendString(buf, k)
		}
	}
	return buf
}

func decodeFacts(data []byte) (*fileFacts, error) {
	r := mdg.NewReader(data)
	if v := r.Byte(); r.Err() == nil && v != persistVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", errPersistCodec, v, persistVersion)
	}
	ff := &fileFacts{
		freeReads: map[string]bool{},
		assigned:  map[string]bool{},
		mutated:   map[string]bool{},
		readRoots: map[string]bool{},
	}
	nr := r.Count(1)
	for i := 0; i < nr && r.Err() == nil; i++ {
		ff.requires = append(ff.requires, r.Str())
	}
	for _, m := range []map[string]bool{ff.freeReads, ff.assigned, ff.mutated, ff.readRoots} {
		nk := r.Count(1)
		for i := 0; i < nk && r.Err() == nil; i++ {
			m[r.Str()] = true
		}
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("%w: %w", errPersistCodec, err)
	}
	return ff, nil
}

// factsStoreKey is the per-file facts key: the lowered program's key
// (core.Key, which covers the file name) in hex.
func factsStoreKey(key [sha256.Size]byte) string {
	return hex.EncodeToString(key[:])
}

// ---------------------------------------------------------------------------
// IncrementalState read/write-through
// ---------------------------------------------------------------------------

// AttachStore connects st to a persistent store: subsequent scans read
// cache families through it and write fresh clean entries back. Safe
// to call at any time; nil detaches.
func (st *IncrementalState) AttachStore(s *store.Store) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.store = s
}

// load reads one entry of kind through the store and decodes it. No
// store or no record is a miss; a record that fails to decode is
// quarantined and is a miss too (the degrade-to-cold invariant).
// Callers hold st.mu.
func load[T any](st *IncrementalState, kind store.Kind, key string, decode func([]byte) (T, error)) (T, bool) {
	var zero T
	if st.store == nil {
		return zero, false
	}
	body, ok := st.store.Get(kind, key)
	if !ok {
		st.stats.StoreMisses++
		return zero, false
	}
	v, err := decode(body)
	if err != nil {
		st.store.Quarantine(kind, key)
		st.stats.StoreQuarantined++
		return zero, false
	}
	st.stats.StoreHits++
	return v, true
}

// save writes one clean entry through the store. encode runs only when
// a store is attached; a nil body is not persistable and is skipped.
// Write failures (ENOSPC, injected faults) are counted and swallowed:
// the entry stays in memory, the disk just missed a speedup. Callers
// hold st.mu.
func (st *IncrementalState) save(kind store.Kind, key string, encode func() []byte) {
	if st.store == nil {
		return
	}
	body := encode()
	if body == nil {
		return
	}
	if err := st.store.Put(kind, key, body); err != nil {
		st.stats.StoreErrors++
		return
	}
	st.stats.StorePuts++
}
