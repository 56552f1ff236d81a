package server

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

func openServerStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestCacheDirWarmRestart simulates a daemon restart: scan through one
// server backed by a cache dir, tear it down, start a second server on
// the same dir, and check the same scan comes back store-warm (no
// fragment rebuilds) with identical findings.
func TestCacheDirWarmRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	req := ScanRequest{Name: "restartpkg", Source: "module.exports = function(c){ require('child_process').exec(c) }\n"}

	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Options{Workers: 2, Store: st1})
	first := decodeResp[ScanResponse](t, postJSON(t, ts1.URL+"/v1/scan", req), http.StatusOK)
	if first.Incremental == nil || first.Incremental.StorePuts == 0 {
		t.Fatalf("first scan wrote nothing to the store: %+v", first.Incremental)
	}
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openServerStore(t, dir)
	_, ts2 := newTestServer(t, Options{Workers: 2, Store: st2})
	second := decodeResp[ScanResponse](t, postJSON(t, ts2.URL+"/v1/scan", req), http.StatusOK)
	if second.Incremental == nil {
		t.Fatal("restarted scan reported no incremental stats")
	}
	if second.Incremental.StoreHits == 0 || second.Incremental.FragmentRebuilds != 0 {
		t.Fatalf("restart was not store-warm: %+v", second.Incremental)
	}
	if len(second.Findings) != len(first.Findings) {
		t.Fatalf("store-warm restart changed findings: %d vs %d",
			len(second.Findings), len(first.Findings))
	}

	// The status snapshot must surface the store and its traffic.
	status := decodeResp[StatusResponse](t, getURL(t, ts2.URL+"/v1/status"), http.StatusOK)
	if status.Store == nil {
		t.Fatal("status omitted the store block despite -cache-dir")
	}
	if status.Store.Entries == 0 || status.Store.Hits == 0 {
		t.Fatalf("status store counters empty: %+v", status.Store)
	}
	// The metrics' statePool block carries the store counters too.
	m := decodeResp[MetricsResponse](t, getURL(t, ts2.URL+"/v1/metrics"), http.StatusOK)
	if m.StatePool != *second.Incremental {
		t.Fatalf("metrics statePool = %+v, want the one scan's counters %+v", m.StatePool, *second.Incremental)
	}
}

// TestCorruptCacheDirDegradesToCold flips bytes across the second
// server's store log: findings must match the cache-free scan exactly,
// with the damage visible only as quarantine counters.
func TestCorruptCacheDirDegradesToCold(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	req := ScanRequest{Name: "rotpkg", Source: "module.exports = function(c){ eval(c) }\n"}

	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Options{Workers: 2, Store: st1})
	baseline := decodeResp[ScanResponse](t, postJSON(t, ts1.URL+"/v1/scan", req), http.StatusOK)
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Rot the log body (header left intact so the file is recognized).
	path := filepath.Join(dir, "store.dat")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 8; i < len(data); i += 11 {
		data[i] ^= 0x5A
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openServerStore(t, dir)
	_, ts2 := newTestServer(t, Options{Workers: 2, Store: st2})
	got := decodeResp[ScanResponse](t, postJSON(t, ts2.URL+"/v1/scan", req), http.StatusOK)
	if len(got.Findings) != len(baseline.Findings) {
		t.Fatalf("corrupted store changed findings: %d vs %d", len(got.Findings), len(baseline.Findings))
	}
	if gb, bb := string(encodeReport(got.ReportJSON)), string(encodeReport(baseline.ReportJSON)); gb != bb {
		t.Fatalf("report diverged under corruption:\n%s\nvs\n%s", gb, bb)
	}
}

// TestStatePoolEvictionCounters bounds the pool at one package and
// checks /v1/status reports the LRU evictions.
func TestStatePoolEvictionCounters(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, StateMaxEntries: 1})
	src := "module.exports = function(x){ return x }\n"
	for _, name := range []string{"pkg-a", "pkg-b", "pkg-c"} {
		resp := postJSON(t, ts.URL+"/v1/scan", ScanRequest{Name: name, Source: src})
		decodeResp[ScanResponse](t, resp, http.StatusOK)
	}
	status := decodeResp[StatusResponse](t, getURL(t, ts.URL+"/v1/status"), http.StatusOK)
	if status.StatePackages != 1 {
		t.Fatalf("pool holds %d packages, want 1 (cap)", status.StatePackages)
	}
	if status.StateEvictedStates != 2 {
		t.Fatalf("evicted %d states, want 2", status.StateEvictedStates)
	}
}

// TestSweepCompactJournalValidation: the compactJournal field is gone
// (every journal is compacted after its sweep). decodeBody rejects
// unknown fields, so an old client that still sends it gets a 400
// instead of a silently ignored knob.
func TestSweepCompactJournalValidation(t *testing.T) {
	corpus := t.TempDir()
	if err := os.WriteFile(filepath.Join(corpus, "a.js"),
		[]byte("module.exports = 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 1})
	resp := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"path": corpus, "journal": filepath.Join(t.TempDir(), "journal"), "compactJournal": true})
	e := decodeResp[ErrorJSON](t, resp, http.StatusBadRequest)
	if !strings.Contains(e.Error.Message, "compactJournal") {
		t.Errorf("error %q does not name the rejected field", e.Error.Message)
	}
}

// TestSweepCompactJournalThroughStore: a journal is a store directory
// compacted after every sweep, so re-sweeping the same targets keeps
// one record per target, and a fresh daemon resumes every target from
// it.
func TestSweepCompactJournalThroughStore(t *testing.T) {
	corpus := t.TempDir()
	vuln := "module.exports = function(c){ require('child_process').exec(c) }\n"
	for _, name := range []string{"a.js", "b.js"} {
		if err := os.WriteFile(filepath.Join(corpus, name), []byte(vuln), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	journal := filepath.Join(t.TempDir(), "sweep-journal")

	_, ts1 := newTestServer(t, Options{Workers: 2})
	for i := 0; i < 2; i++ {
		sweep := decodeResp[SweepResponse](t, postJSON(t, ts1.URL+"/v1/sweep", SweepRequest{
			Path: corpus, Journal: journal,
		}), http.StatusOK)
		if sweep.Completed != 2 {
			t.Fatalf("sweep %d completed %d targets, want 2", i, sweep.Completed)
		}
		data, err := os.ReadFile(filepath.Join(journal, "store.dat"))
		if err != nil {
			t.Fatal(err)
		}
		if recs, _ := store.DecodeRecords(data); len(recs) != 2 {
			t.Fatalf("after sweep %d the journal log holds %d records, want 2 (compacted)", i, len(recs))
		}
	}
	ts1.Close()

	_, ts2 := newTestServer(t, Options{Workers: 2})
	resumed := decodeResp[SweepResponse](t, postJSON(t, ts2.URL+"/v1/sweep", SweepRequest{
		Path: corpus, Journal: journal, Resume: true,
	}), http.StatusOK)
	if resumed.Resumed != 2 {
		t.Fatalf("resumed %d targets from the compacted journal, want 2", resumed.Resumed)
	}
}

// TestSweepUnopenableJournalIsBadRequest: a journal the daemon cannot
// open is the client's error — 400 bad_request naming the path, not a
// 500.
func TestSweepUnopenableJournalIsBadRequest(t *testing.T) {
	corpus := t.TempDir()
	if err := os.WriteFile(filepath.Join(corpus, "a.js"),
		[]byte("module.exports = 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	requireBadRequest := func(t *testing.T, ts string, journal string) {
		t.Helper()
		resp := postJSON(t, ts+"/v1/sweep", SweepRequest{Path: corpus, Journal: journal})
		e := decodeResp[ErrorJSON](t, resp, http.StatusBadRequest)
		if e.Error.Code != CodeBadRequest || !strings.Contains(e.Error.Message, journal) {
			t.Errorf("error %s %q, want %s naming %s", e.Error.Code, e.Error.Message, CodeBadRequest, journal)
		}
	}

	t.Run("held-by-concurrent-sweep", func(t *testing.T) {
		journal := filepath.Join(t.TempDir(), "journal")
		openServerStore(t, journal) // the other sweep's writer lock
		_, ts := newTestServer(t, Options{Workers: 1})
		requireBadRequest(t, ts.URL, journal)
	})
	t.Run("daemon-cache-dir", func(t *testing.T) {
		cacheDir := filepath.Join(t.TempDir(), "cache")
		_, ts := newTestServer(t, Options{Workers: 1, Store: openServerStore(t, cacheDir)})
		requireBadRequest(t, ts.URL, cacheDir)
	})
	t.Run("regular-file", func(t *testing.T) {
		journal := filepath.Join(t.TempDir(), "sweep.jsonl")
		if err := os.WriteFile(journal, []byte(`{"pkg":"a.js"}`+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, ts := newTestServer(t, Options{Workers: 1})
		requireBadRequest(t, ts.URL, journal)
	})
}

func getURL(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp
}
