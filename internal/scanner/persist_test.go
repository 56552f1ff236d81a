package scanner

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/mdg"
	"repro/internal/queries"
	"repro/internal/store"
)

func openStoreT(t *testing.T, dir string, opts store.Options) *store.Store {
	t.Helper()
	s, err := store.Open(dir, opts)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

var persistFiles = []SourceFile{
	{Rel: "a.js", Src: "function fa(x) { return x; }\nmodule.exports = fa;\n"},
	{Rel: "index.js", Src: gitResetSrc},
}

// A second process (fresh IncrementalState, same store directory) must
// warm-start: no fragment rebuilds, no detection re-runs, findings
// identical to cold.
func TestStoreWarmRestartMatchesCold(t *testing.T) {
	dir := t.TempDir()
	cold := ScanFiles(persistFiles, "pkg", Options{})

	s1 := openStoreT(t, dir, store.Options{})
	st1 := NewIncrementalState()
	st1.AttachStore(s1)
	rep1 := ScanFiles(persistFiles, "pkg", Options{Incremental: st1})
	sameFindings(t, cold, rep1)
	if rep1.IncrStats.StorePuts == 0 {
		t.Fatalf("first scan persisted nothing: %+v", rep1.IncrStats)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new state over a reopened store.
	s2 := openStoreT(t, dir, store.Options{})
	st2 := NewIncrementalState()
	st2.AttachStore(s2)
	rep2 := ScanFiles(persistFiles, "pkg", Options{Incremental: st2})
	sameFindings(t, cold, rep2)
	stats := rep2.IncrStats
	if stats.FragmentMisses != 0 {
		t.Fatalf("warm restart rebuilt fragments: %+v", stats)
	}
	if stats.FragmentHits == 0 || stats.StoreHits == 0 {
		t.Fatalf("warm restart did not use the store: %+v", stats)
	}
	if stats.DetectMisses != 0 {
		t.Fatalf("warm restart re-ran detection: %+v", stats)
	}
}

// Read-only replicas sharing the writer's directory serve the same
// warm state without taking the lock.
func TestStoreReadOnlyReplicaWarmStarts(t *testing.T) {
	dir := t.TempDir()
	w := openStoreT(t, dir, store.Options{})
	stw := NewIncrementalState()
	stw.AttachStore(w)
	rep := ScanFiles(persistFiles, "pkg", Options{Incremental: stw})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	ro := openStoreT(t, dir, store.Options{ReadOnly: true})
	str := NewIncrementalState()
	str.AttachStore(ro)
	rrep := ScanFiles(persistFiles, "pkg", Options{Incremental: str})
	sameFindings(t, rep, rrep)
	stats := rrep.IncrStats
	if stats.FragmentMisses != 0 || stats.StoreHits == 0 {
		t.Fatalf("replica did not warm-start: %+v", stats)
	}
	// The replica cannot write back, and that must be invisible:
	// counters record the attempts as errors, findings are unaffected.
	if stats.StorePuts != 0 {
		t.Fatalf("read-only replica persisted entries: %+v", stats)
	}
}

// Corrupting the store arbitrarily must never change findings — scans
// quarantine what fails to decode and rebuild cold. Every 7th byte of
// the log body is flipped, clobbering essentially every record.
func TestStoreCorruptionDegradesToCold(t *testing.T) {
	dir := t.TempDir()
	cold := ScanFiles(persistFiles, "pkg", Options{})

	s1 := openStoreT(t, dir, store.Options{})
	st1 := NewIncrementalState()
	st1.AttachStore(s1)
	ScanFiles(persistFiles, "pkg", Options{Incremental: st1})
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "store.dat")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 8; i < len(data); i += 7 {
		data[i] ^= 0x55
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStoreT(t, dir, store.Options{})
	st2 := NewIncrementalState()
	st2.AttachStore(s2)
	rep := ScanFiles(persistFiles, "pkg", Options{Incremental: st2})
	sameFindings(t, cold, rep)
	if rep.IncrStats.FragmentMisses == 0 {
		t.Fatalf("corrupted store should have forced cold rebuilds: %+v", rep.IncrStats)
	}
}

// A record whose CRC holds but whose scanner-level encoding is garbage
// (the layer a store CRC cannot see) must be quarantined by the decode
// path, with findings again identical to cold.
func TestStoreUndecodableEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	cold := ScanSource(gitResetSrc, "git_reset.js", Options{})

	s1 := openStoreT(t, dir, store.Options{})
	st1 := NewIncrementalState()
	st1.AttachStore(s1)
	ScanSource(gitResetSrc, "git_reset.js", Options{Incremental: st1})

	// Overwrite every fragment record with CRC-valid garbage bytes.
	// The store serves them happily; decodeFragEntry must not.
	recs, _ := store.DecodeRecords(readStoreLog(t, dir))
	n := 0
	for _, r := range recs {
		if r.Kind == store.KindFragment {
			if err := s1.Put(store.KindFragment, r.Key, []byte("\xff\xfe garbage")); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no fragment records to clobber")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStoreT(t, dir, store.Options{})
	st2 := NewIncrementalState()
	st2.AttachStore(s2)
	rep := ScanSource(gitResetSrc, "git_reset.js", Options{Incremental: st2})
	sameFindings(t, cold, rep)
	if rep.IncrStats.StoreQuarantined == 0 {
		t.Fatalf("undecodable entries were not quarantined: %+v", rep.IncrStats)
	}
	if s2.Stats().Quarantined == 0 {
		t.Fatalf("store-level quarantine count missing: %+v", s2.Stats())
	}
}

// A store written before the fallback engine was removed can hold
// detection records under the "fallback" engine key carrying
// "fellBack":true. Such a store must open cleanly, never serve those
// records (no scan computes that key any more), and scan to the cold
// findings. The records are poisoned with an empty finding list, so a
// served one would show as lost findings.
func TestStoreLegacyFallbackRecordsIgnored(t *testing.T) {
	cold := ScanFiles(persistFiles, "pkg", Options{})
	src := openStoreT(t, t.TempDir(), store.Options{})
	st := NewIncrementalState()
	st.AttachStore(src)
	ScanFiles(persistFiles, "pkg", Options{Incremental: st})

	// Rebuild the store as the pre-removal build could have left it:
	// the same fragments and facts, detection only under "fallback".
	dir := t.TempDir()
	legacy := openStoreT(t, dir, store.Options{})
	legacyBody := fmt.Sprintf(`{"v":%d,"fellBack":true}`, persistVersion)
	if _, err := decodeDetectResult([]byte(legacyBody)); err != nil {
		t.Fatalf("legacy detection record no longer decodes: %v", err)
	}
	n := 0
	for _, kind := range []store.Kind{store.KindFragment, store.KindFrontEnd, store.KindDetect} {
		for _, key := range src.Keys(kind) {
			body, _ := src.Get(kind, key)
			if kind == store.KindDetect {
				key = strings.Replace(key, "|"+string(EngineNative)+"|", "|fallback|", 1)
				body = []byte(legacyBody)
				n++
			}
			if err := legacy.Put(kind, key, body); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n == 0 {
		t.Fatal("no detection records to rewrite")
	}
	if err := legacy.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := openStoreT(t, dir, store.Options{})
	if q := reopened.Stats().Quarantined; q != 0 {
		t.Fatalf("legacy store quarantined %d records on open", q)
	}
	warm := NewIncrementalState()
	warm.AttachStore(reopened)
	rep := ScanFiles(persistFiles, "pkg", Options{Incremental: warm})
	sameFindings(t, cold, rep)
	if s := rep.IncrStats; s.FragmentMisses != 0 || s.DetectHits != 0 || s.DetectMisses == 0 {
		t.Fatalf("want fragments served and detection recomputed: %+v", s)
	}
}

func readStoreLog(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "store.dat"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestStatePoolLRUEviction(t *testing.T) {
	pool := NewStatePool()
	pool.SetLimits(2, 0)
	a := pool.Get("a")
	pool.Get("b")
	pool.Get("c") // evicts a (LRU)
	if pool.Len() != 2 {
		t.Fatalf("Len = %d, want 2", pool.Len())
	}
	if ev, _ := pool.Evictions(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if pool.Get("a") == a {
		t.Fatal("evicted state must be recreated, not resurrected")
	}
	// Recency updates: touching b keeps it alive over c... after the
	// re-creation of a above, the pool holds {c, a}; touching c then
	// adding d must evict a.
	pool.Get("c")
	pool.Get("d")
	if ev, _ := pool.Evictions(); ev != 3 {
		// a's re-creation evicted b (2), d evicted a (3)
		t.Fatalf("evictions = %d, want 3", ev)
	}
}

func TestStatePoolByteCapEvicts(t *testing.T) {
	pool := NewStatePool()
	pool.SetLimits(0, 1) // absurdly small: every populated state exceeds it
	st := pool.Get("pkg")
	ScanSource(gitResetSrc, "git_reset.js", Options{Incremental: st})
	if st.EstimateBytes() == 0 {
		t.Fatal("populated state estimates zero bytes")
	}
	pool.Get("other") // enforcement point: pkg exceeds the byte cap
	if _, bytes := pool.Evictions(); bytes == 0 {
		t.Fatal("byte-cap eviction not counted")
	}
	if pool.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (only the kept state)", pool.Len())
	}
}

func TestStatePoolAttachStoreReachesExistingStates(t *testing.T) {
	dir := t.TempDir()
	s := openStoreT(t, dir, store.Options{})
	pool := NewStatePool()
	st := pool.Get("pkg")
	pool.AttachStore(s)
	ScanSource(gitResetSrc, "git_reset.js", Options{Incremental: st})
	if s.Len() == 0 {
		t.Fatal("scan through pre-attach state did not write through")
	}
	if err := pool.Save(); err != nil {
		t.Fatal(err)
	}
}

func TestDetectResultRoundTrip(t *testing.T) {
	dr := &detectResult{
		findings: []queries.Finding{{
			CWE: queries.CWECommandInjection, SinkName: "exec", SinkLine: 4,
			SinkFile: "a.js", Source: "x",
		}},
		truncated: 2,
	}
	body, ok := encodeDetectResult(dr)
	if !ok {
		t.Fatal("clean result must encode")
	}
	got, err := decodeDetectResult(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := DiffFindings(dr.findings, got.findings); err != nil {
		t.Fatal(err)
	}
	if got.truncated != 2 || got.err != nil {
		t.Fatalf("round trip: %+v", got)
	}
	// Error-carrying results never go to disk.
	if _, ok := encodeDetectResult(&detectResult{err: os.ErrInvalid}); ok {
		t.Fatal("error-carrying result must not encode")
	}
}

func TestFactsRoundTrip(t *testing.T) {
	ff := &fileFacts{
		requires:  []string{"./b", "child_process"},
		freeReads: map[string]bool{"shared": true},
		assigned:  map[string]bool{"shared": true, "x": true},
		mutated:   map[string]bool{"g:shared": true},
		readRoots: map[string]bool{"g:shared": true, "m:./b": true},
	}
	got, err := decodeFacts(encodeFacts(ff))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.requires) != 2 || got.requires[0] != "./b" {
		t.Fatalf("requires: %+v", got.requires)
	}
	for _, pair := range []struct{ a, b map[string]bool }{
		{ff.freeReads, got.freeReads}, {ff.assigned, got.assigned},
		{ff.mutated, got.mutated}, {ff.readRoots, got.readRoots},
	} {
		if len(pair.a) != len(pair.b) {
			t.Fatalf("map diverged: %+v vs %+v", pair.a, pair.b)
		}
		for k := range pair.a {
			if !pair.b[k] {
				t.Fatalf("missing key %q", k)
			}
		}
	}
}

// FuzzStoreDecode drives every persistence decoder — store record
// framing, the mdg fragment codec, and the scanner-level entry
// decoders — over corrupted bytes. The invariant is the quarantine
// contract: corrupt input returns an error, never panics, never an
// inconsistent structure.
func FuzzStoreDecode(f *testing.F) {
	// Seeds: valid encodings of each family, so mutation explores the
	// near-valid space where parsers break.
	g := mdg.New()
	l1 := g.Alloc("o", 1, 0, "", mdg.KindObject, "o", 1)
	l2 := g.Alloc("p", 2, 0, "", mdg.KindParam, "x", 2)
	g.AddDep(l2, l1)
	frag := mdg.SnapshotFragment(g)
	fe := &fragEntry{
		key:          "seed",
		rels:         []string{"a.js"},
		frag:         frag,
		functions:    map[string]*analysis.FuncSummary{},
		realExported: map[string]bool{},
		detect:       map[detectKey]*detectResult{},
	}
	f.Add(encodeFragEntry(fe))
	f.Add(mdg.EncodeFragment(frag))
	f.Add(encodeFacts(&fileFacts{
		requires:  []string{"./b"},
		freeReads: map[string]bool{"a": true},
		assigned:  map[string]bool{},
		mutated:   map[string]bool{},
		readRoots: map[string]bool{},
	}))
	if body, ok := encodeDetectResult(&detectResult{findings: []queries.Finding{{CWE: queries.CWECommandInjection}}}); ok {
		f.Add(body)
	}
	f.Add([]byte("MDGS\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if fr, err := mdg.DecodeFragment(data); err == nil {
			_, _ = mdg.Stitch(fr) // an accepted fragment must be stitchable
		}
		if fe, err := decodeFragEntry("k", data); err == nil {
			// and rehydratable (with the export fallback) without panicking
			analysis.ApplyExportFallback(rehydrate(fe))
		}
		_, _ = decodeFacts(data)
		_, _ = decodeDetectResult(data)
		recs, diag := store.DecodeRecords(data)
		if diag.Tail > int64(len(data)) {
			t.Fatalf("tail %d beyond input %d", diag.Tail, len(data))
		}
		for _, r := range recs {
			_, _, _ = r.Kind, r.Key, r.Body
		}
	})
}
