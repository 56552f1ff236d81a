package scanner

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

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
//   - KindFragment: one fragment record — the component's MDG
//     (mdg.AppendGraph) plus the function summaries and linker side
//     tables rehydration and the tree linker read, the very bytes the
//     in-memory fragEntry holds — keyed by the componentKey already
//     used for the in-memory map. Content-addressed keys make invalidation
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

// encodeFragEntry serializes a component built this scan into its
// fragment record: the component's files, its real-export bit, the
// function summaries with their build-time export marks, the cross-
// package linker side tables, and the graph (mdg.AppendGraph). It runs
// before detection can apply the export fallback to res. The record
// is exactly sized: a retained state keeps it for as long as the
// component is current.
func encodeFragEntry(rels []string, res *analysis.Result) []byte {
	bp := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bp)
	buf := append((*bp)[:0], persistVersion)
	buf = binary.AppendUvarint(buf, uint64(len(rels)))
	for _, rel := range rels {
		buf = mdg.AppendString(buf, rel)
	}
	buf = mdg.AppendBool(buf, res.HasRealExports)
	names := make([]string, 0, len(res.Functions))
	for name := range res.Functions {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		fn := res.Functions[name]
		buf = mdg.AppendString(buf, name)
		buf = binary.AppendUvarint(buf, uint64(fn.Loc))
		buf = mdg.AppendLocs(buf, fn.Params)
		buf = binary.AppendUvarint(buf, uint64(fn.ThisLoc))
		buf = binary.AppendUvarint(buf, uint64(fn.RetLoc))
		buf = mdg.AppendBool(buf, fn.Exported)
	}
	// Cross-package linker side tables, each in sorted key order so
	// equal entries encode identically.
	specs := make([]string, 0, len(res.Externals))
	for spec := range res.Externals {
		specs = append(specs, spec)
	}
	sort.Strings(specs)
	buf = binary.AppendUvarint(buf, uint64(len(specs)))
	for _, spec := range specs {
		buf = mdg.AppendString(buf, spec)
		buf = binary.AppendUvarint(buf, uint64(res.Externals[spec]))
	}
	buf = appendLocTable(buf, res.CalleeLocs)
	buf = appendLocTable(buf, res.CallThis)
	files := make([]string, 0, len(res.ModuleEnv))
	for file := range res.ModuleEnv {
		files = append(files, file)
	}
	sort.Strings(files)
	buf = binary.AppendUvarint(buf, uint64(len(files)))
	for _, file := range files {
		me := res.ModuleEnv[file]
		buf = mdg.AppendString(buf, file)
		buf = binary.AppendUvarint(buf, uint64(me.Module))
		buf = binary.AppendUvarint(buf, uint64(me.Exports))
	}
	buf = mdg.AppendGraph(buf, res.Graph)
	*bp = buf
	return bytes.Clone(buf)
}

// encodeBufs recycles encodeFragEntry's scratch buffer.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

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

// fragBody is a fragment record less its graph, decoded: every table
// in the record's sorted order and fragment-local locations. Each
// decode makes its own, so a scan may shift or mark it freely.
type fragBody struct {
	rels    []string
	hasReal bool
	// funcs[i] is the summary of the function names[i].
	names []string
	funcs []analysis.FuncSummary
	// The linker side tables (see analysis.Result).
	externals            []external
	calleeLocs, callThis []locRow
	modEnv               []moduleEnv
}

type external struct {
	spec string
	loc  mdg.Loc
}

type locRow struct {
	loc  mdg.Loc
	vals []mdg.Loc
}

type moduleEnv struct {
	file string
	locs analysis.ModuleLocs
}

// functions returns the summaries by name, as analysis.Result holds
// them.
func (fb *fragBody) functions() map[string]*analysis.FuncSummary {
	m := make(map[string]*analysis.FuncSummary, len(fb.names))
	for i, name := range fb.names {
		m[name] = &fb.funcs[i]
	}
	return m
}

// readFragEntry decodes a fragment record (encodeFragEntry) and
// stitches its graph into g (see mdg.Graph.Stitch), returning the
// record's body and the fragment's stitch offset in g. Strings share
// rec's bytes. Every table must be in strictly increasing key order,
// as encodeFragEntry writes it, and every location it names must be a
// node of the fragment, so a corrupt record cannot smuggle a
// duplicate or a dangling reference into detection; on an error g is
// left partly filled.
func readFragEntry(rec []byte, g *mdg.Graph) (*fragBody, mdg.Loc, error) {
	r := mdg.NewAliasReader(rec)
	if v := r.Byte(); r.Err() == nil && v != persistVersion {
		return nil, 0, fmt.Errorf("%w: version %d (want %d)", errPersistCodec, v, persistVersion)
	}
	fb := &fragBody{}
	nr := r.Count(1)
	fb.rels = make([]string, 0, nr)
	for i := 0; i < nr && r.Err() == nil; i++ {
		fb.rels = append(fb.rels, r.Str())
	}
	fb.hasReal = r.Bool()
	nf := r.Count(4)
	fb.names, fb.funcs = make([]string, nf), make([]analysis.FuncSummary, nf)
	for i := 0; i < nf && r.Err() == nil; i++ {
		fb.names[i] = r.Str()
		fb.funcs[i] = analysis.FuncSummary{Loc: r.Loc(), Params: r.Locs(),
			ThisLoc: r.Loc(), RetLoc: r.Loc(), Exported: r.Bool()}
		if i > 0 && fb.names[i] <= fb.names[i-1] {
			r.Fail("functions out of order")
		}
	}
	if ne := r.Count(2); ne > 0 {
		fb.externals = make([]external, ne)
		for i := 0; i < ne && r.Err() == nil; i++ {
			fb.externals[i] = external{spec: r.Str(), loc: r.Loc()}
			if i > 0 && fb.externals[i].spec <= fb.externals[i-1].spec {
				r.Fail("externals out of order")
			}
		}
	}
	fb.calleeLocs = readLocTable(r)
	fb.callThis = readLocTable(r)
	if nm := r.Count(3); nm > 0 {
		fb.modEnv = make([]moduleEnv, nm)
		for i := 0; i < nm && r.Err() == nil; i++ {
			fb.modEnv[i] = moduleEnv{file: r.Str(), locs: analysis.ModuleLocs{Module: r.Loc(), Exports: r.Loc()}}
			if i > 0 && fb.modEnv[i].file <= fb.modEnv[i-1].file {
				r.Fail("module envs out of order")
			}
		}
	}
	if r.Err() != nil {
		return nil, 0, fmt.Errorf("%w: %w", errPersistCodec, r.Err())
	}
	before := g.NumNodes()
	off, err := g.Stitch(r.Rest())
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %w", errPersistCodec, err)
	}
	if !fb.refsWithin(mdg.Loc(g.NumNodes() - before)) {
		return nil, 0, fmt.Errorf("%w: a summary or side table references a missing node", errPersistCodec)
	}
	return fb, off, nil
}

// readLocTable decodes a per-call location table written by
// appendLocTable.
func readLocTable(r *mdg.Reader) []locRow {
	n := r.Count(2)
	if n == 0 || r.Err() != nil {
		return nil
	}
	rows := make([]locRow, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		rows[i] = locRow{loc: r.Loc(), vals: r.Locs()}
		if i > 0 && rows[i].loc <= rows[i-1].loc {
			r.Fail("loc table out of order")
		}
	}
	return rows
}

// refsWithin reports whether every location the body names is NoLoc
// or one of a fragment's n nodes (locations 1..n).
func (fb *fragBody) refsWithin(n mdg.Loc) bool {
	ok := func(ls ...mdg.Loc) bool {
		for _, l := range ls {
			if l < mdg.NoLoc || l > n {
				return false
			}
		}
		return true
	}
	for i := range fb.funcs {
		fn := &fb.funcs[i]
		if !ok(fn.Loc, fn.ThisLoc, fn.RetLoc) || !ok(fn.Params...) {
			return false
		}
	}
	for _, e := range fb.externals {
		if !ok(e.loc) {
			return false
		}
	}
	for _, rows := range [][]locRow{fb.calleeLocs, fb.callThis} {
		for _, row := range rows {
			if !ok(row.loc) || !ok(row.vals...) {
				return false
			}
		}
	}
	for _, me := range fb.modEnv {
		if !ok(me.locs.Module, me.locs.Exports) {
			return false
		}
	}
	return true
}

// decodeFragEntry validates a stored fragment record in full — its
// graph decoded into a pooled scratch graph — and keeps the record
// itself as the entry (detect map empty), so a corrupt record is
// quarantined at load, not at its first use.
func decodeFragEntry(key string, data []byte) (*fragEntry, error) {
	g := mdg.Acquire()
	defer g.Release()
	fb, _, err := readFragEntry(data, g)
	if err != nil {
		return nil, err
	}
	return newFragEntry(key, data, fb.hasReal, g), nil
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
