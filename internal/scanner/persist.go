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
//     engine × fallback bit × sink-config fingerprint. Only clean
//     results (no error, no fallback error, no failure class) are
//     persisted; the rare error-carrying entries recompute on restart,
//     which changes speed, never findings.
//   - KindFrontEnd: per-file dependency facts keyed by the file's
//     front-end content hash (which covers path and source).
//
// Decoders trust nothing. Bytes arrive CRC-clean from the store but
// could still be written by a different build or corrupted at a layer
// the CRC cannot see, so every decode failure is an error the caller
// converts into store.Quarantine + a cold rebuild — the degrade-to-
// cold invariant. FuzzStoreDecode drives all of these decoders over
// corrupted inputs.
//
// Function summaries are persisted without their *core.FuncDef: after
// rehydration, detection consumes only the graph and the summaries'
// location/export fields (the reach gate recomputes the export surface
// from the lowered programs every scan), so Def stays nil on load.

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
		buf = appendPString(buf, rel)
	}
	buf = appendBool(buf, fe.hasReal)
	names := make([]string, 0, len(fe.functions))
	for name := range fe.functions {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		fn := fe.functions[name]
		buf = appendPString(buf, name)
		buf = binary.AppendUvarint(buf, uint64(fn.Loc))
		buf = binary.AppendUvarint(buf, uint64(len(fn.Params)))
		for _, p := range fn.Params {
			buf = binary.AppendUvarint(buf, uint64(p))
		}
		buf = binary.AppendUvarint(buf, uint64(fn.ThisLoc))
		buf = binary.AppendUvarint(buf, uint64(fn.RetLoc))
		// The build-time export truth, not the possibly fallback-
		// mutated live bit: rehydrate resets from realExported anyway.
		buf = appendBool(buf, fe.realExported[name])
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
		buf = appendPString(buf, spec)
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
		buf = appendPString(buf, file)
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
		vals := m[l]
		buf = binary.AppendUvarint(buf, uint64(len(vals)))
		for _, v := range vals {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	return buf
}

// decodeFragEntry parses a persisted fragment entry back into the
// in-memory form (Def-less summaries, detect map empty). Every
// summary location is validated against the fragment's node set so a
// corrupt record cannot smuggle dangling references into detection.
func decodeFragEntry(key string, data []byte) (*fragEntry, error) {
	r := &pReader{b: data}
	if v := r.byte(); r.err == nil && v != persistVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", errPersistCodec, v, persistVersion)
	}
	fe := &fragEntry{
		key:          key,
		functions:    make(map[string]*analysis.FuncSummary),
		realExported: make(map[string]bool),
		detect:       make(map[detectKey]*detectResult),
	}
	nr := r.count(1)
	for i := 0; i < nr && r.err == nil; i++ {
		fe.rels = append(fe.rels, r.string())
	}
	fe.hasReal = r.bool()
	nf := r.count(4)
	for i := 0; i < nf && r.err == nil; i++ {
		name := r.string()
		fn := &analysis.FuncSummary{}
		fn.Loc = mdg.Loc(r.uvarint())
		np := r.count(1)
		for j := 0; j < np && r.err == nil; j++ {
			fn.Params = append(fn.Params, mdg.Loc(r.uvarint()))
		}
		fn.ThisLoc = mdg.Loc(r.uvarint())
		fn.RetLoc = mdg.Loc(r.uvarint())
		exported := r.bool()
		if r.err != nil {
			break
		}
		if _, dup := fe.functions[name]; dup {
			return nil, fmt.Errorf("%w: duplicate function %q", errPersistCodec, name)
		}
		fn.Exported = exported
		fe.functions[name] = fn
		fe.realExported[name] = exported
	}
	ne := r.count(2)
	if ne > 0 {
		fe.externals = make(map[string]mdg.Loc, ne)
	}
	for i := 0; i < ne && r.err == nil; i++ {
		spec := r.string()
		l := mdg.Loc(r.uvarint())
		if r.err != nil {
			break
		}
		if _, dup := fe.externals[spec]; dup {
			return nil, fmt.Errorf("%w: duplicate external %q", errPersistCodec, spec)
		}
		fe.externals[spec] = l
	}
	fe.calleeLocs = r.locTable()
	fe.callThis = r.locTable()
	nm := r.count(3)
	if nm > 0 {
		fe.modEnv = make(map[string]analysis.ModuleLocs, nm)
	}
	for i := 0; i < nm && r.err == nil; i++ {
		file := r.string()
		me := analysis.ModuleLocs{Module: mdg.Loc(r.uvarint()), Exports: mdg.Loc(r.uvarint())}
		if r.err != nil {
			break
		}
		if _, dup := fe.modEnv[file]; dup {
			return nil, fmt.Errorf("%w: duplicate module env %q", errPersistCodec, file)
		}
		fe.modEnv[file] = me
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: %w", errPersistCodec, r.err)
	}
	frag, err := mdg.DecodeFragment(data[r.off:])
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
	FellBack  bool              `json:"fellBack,omitempty"`
}

// encodeDetectResult serializes dr if it is persistable: only clean
// outcomes go to disk (errors are process-local values that cannot
// round-trip, and they are rare enough that recomputing them is the
// simpler correctness argument).
func encodeDetectResult(dr *detectResult) ([]byte, bool) {
	if dr.err != nil || dr.fallbackErr != nil || dr.failure != budget.ClassNone {
		return nil, false
	}
	body, err := json.Marshal(detectRecord{
		V:         persistVersion,
		Findings:  dr.findings,
		Truncated: dr.truncated,
		FellBack:  dr.fellBack,
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
		fellBack:  rec.FellBack,
	}, nil
}

// detectStoreKey derives the store key for one detection result:
// component content × engine × package-wide fallback bit × sink
// configuration. The in-memory detect map keys on the caller's Config
// pointer; the store must key on config *content*, so the config is
// fingerprinted (nil means the canonical default).
func detectStoreKey(ckey string, engine Engine, fallback bool, cfg *queries.Config) (string, bool) {
	fp := "default"
	if cfg != nil {
		b, err := json.Marshal(cfg)
		if err != nil {
			return "", false // unfingerprintable config: skip persistence
		}
		sum := sha256.Sum256(b)
		fp = hex.EncodeToString(sum[:8])
	}
	return fmt.Sprintf("%s|%s|%t|%s", ckey, engine, fallback, fp), true
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
		buf = appendPString(buf, s)
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
			buf = appendPString(buf, k)
		}
	}
	return buf
}

func decodeFacts(data []byte) (*fileFacts, error) {
	r := &pReader{b: data}
	if v := r.byte(); r.err == nil && v != persistVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", errPersistCodec, v, persistVersion)
	}
	ff := &fileFacts{
		freeReads: map[string]bool{},
		assigned:  map[string]bool{},
		mutated:   map[string]bool{},
		readRoots: map[string]bool{},
	}
	nr := r.count(1)
	for i := 0; i < nr && r.err == nil; i++ {
		ff.requires = append(ff.requires, r.string())
	}
	for _, m := range []map[string]bool{ff.freeReads, ff.assigned, ff.mutated, ff.readRoots} {
		nk := r.count(1)
		for i := 0; i < nk && r.err == nil; i++ {
			m[r.string()] = true
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: %w", errPersistCodec, r.err)
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", errPersistCodec, len(r.b)-r.off)
	}
	return ff, nil
}

// factsStoreKey is the per-file facts key: the front-end content hash
// (sha256 over rel + NUL + source) in hex.
func factsStoreKey(hash [sha256.Size]byte) string {
	return hex.EncodeToString(hash[:])
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

// loadFrag reads one fragment entry through the store. Callers hold
// st.mu. A decode failure quarantines the record and reports a miss.
func (st *IncrementalState) loadFrag(key string) (*fragEntry, bool) {
	if st.store == nil {
		return nil, false
	}
	body, ok := st.store.Get(store.KindFragment, key)
	if !ok {
		st.stats.StoreMisses++
		return nil, false
	}
	fe, err := decodeFragEntry(key, body)
	if err != nil {
		st.store.Quarantine(store.KindFragment, key)
		st.stats.StoreQuarantined++
		return nil, false
	}
	st.stats.StoreHits++
	return fe, true
}

// saveFrag writes a clean fragment entry through the store. Write
// failures (ENOSPC, injected faults) are counted and swallowed: the
// entry stays in memory, the disk just missed a speedup.
func (st *IncrementalState) saveFrag(fe *fragEntry) {
	if st.store == nil || fe.frag == nil {
		return
	}
	if err := st.store.Put(store.KindFragment, fe.key, encodeFragEntry(fe)); err != nil {
		st.stats.StoreErrors++
		return
	}
	st.stats.StorePuts++
}

// loadDetect reads one detection result through the store.
func (st *IncrementalState) loadDetect(ckey string, dk detectKey) (*detectResult, bool) {
	if st.store == nil {
		return nil, false
	}
	key, ok := detectStoreKey(ckey, dk.engine, dk.fallback, dk.cfg)
	if !ok {
		return nil, false
	}
	body, ok := st.store.Get(store.KindDetect, key)
	if !ok {
		st.stats.StoreMisses++
		return nil, false
	}
	dr, err := decodeDetectResult(body)
	if err != nil {
		st.store.Quarantine(store.KindDetect, key)
		st.stats.StoreQuarantined++
		return nil, false
	}
	st.stats.StoreHits++
	return dr, true
}

// saveDetect persists a clean detection result.
func (st *IncrementalState) saveDetect(ckey string, dk detectKey, dr *detectResult) {
	if st.store == nil {
		return
	}
	body, ok := encodeDetectResult(dr)
	if !ok {
		return
	}
	key, ok := detectStoreKey(ckey, dk.engine, dk.fallback, dk.cfg)
	if !ok {
		return
	}
	if err := st.store.Put(store.KindDetect, key, body); err != nil {
		st.stats.StoreErrors++
		return
	}
	st.stats.StorePuts++
}

// loadFacts reads one file's dependency facts through the store.
func (st *IncrementalState) loadFacts(hash [sha256.Size]byte) (*fileFacts, bool) {
	if st.store == nil {
		return nil, false
	}
	key := factsStoreKey(hash)
	body, ok := st.store.Get(store.KindFrontEnd, key)
	if !ok {
		st.stats.StoreMisses++
		return nil, false
	}
	ff, err := decodeFacts(body)
	if err != nil {
		st.store.Quarantine(store.KindFrontEnd, key)
		st.stats.StoreQuarantined++
		return nil, false
	}
	st.stats.StoreHits++
	return ff, true
}

// saveFacts persists one file's dependency facts.
func (st *IncrementalState) saveFacts(hash [sha256.Size]byte, ff *fileFacts) {
	if st.store == nil {
		return
	}
	if err := st.store.Put(store.KindFrontEnd, factsStoreKey(hash), encodeFacts(ff)); err != nil {
		st.stats.StoreErrors++
		return
	}
	st.stats.StorePuts++
}

// ---------------------------------------------------------------------------
// Small codec helpers
// ---------------------------------------------------------------------------

func appendPString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// pReader is a bounds-checked sticky-error decoder (same shape as the
// mdg fragment reader): after the first failure every method returns
// zero values and the loop unwinds without plumbing errors per call.
type pReader struct {
	b   []byte
	off int
	err error
}

func (r *pReader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("%s at offset %d", msg, r.off)
	}
}

func (r *pReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *pReader) bool() bool { return r.byte() != 0 }

func (r *pReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// count reads a declared element count, bounded by what the remaining
// bytes could hold so a corrupt count cannot drive a huge allocation.
func (r *pReader) count(minBytes int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.b)-r.off)/uint64(minBytes)+1 {
		r.fail(fmt.Sprintf("implausible count %d", v))
		return 0
	}
	return int(v)
}

// locTable decodes a per-call location table written by
// appendLocTable (nil for an empty table).
func (r *pReader) locTable() map[mdg.Loc][]mdg.Loc {
	n := r.count(2)
	if n == 0 || r.err != nil {
		return nil
	}
	m := make(map[mdg.Loc][]mdg.Loc, n)
	for i := 0; i < n && r.err == nil; i++ {
		l := mdg.Loc(r.uvarint())
		nv := r.count(1)
		vals := make([]mdg.Loc, 0, nv)
		for j := 0; j < nv && r.err == nil; j++ {
			vals = append(vals, mdg.Loc(r.uvarint()))
		}
		if r.err != nil {
			break
		}
		if _, dup := m[l]; dup {
			r.fail("duplicate loc-table key")
			break
		}
		m[l] = vals
	}
	return m
}

func (r *pReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("string overruns input")
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}
