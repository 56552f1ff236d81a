package sweepjournal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
)

// Load opens the journal directory read-only and returns its entries.
// torn reports that the log ended in a partial record, the state a
// kill mid-append leaves behind. A missing directory loads as an empty
// journal; a path that is not a directory (such as a journal file from
// an older format) is an error naming it.
func Load(dir string) (entries map[string]Entry, torn bool, err error) {
	s, err := store.Open(dir, store.Options{ReadOnly: true})
	if err != nil {
		return nil, false, fmt.Errorf("sweepjournal: %s: %w", dir, err)
	}
	entries = Entries(s)
	torn = s.Stats().TruncatedBytes > 0
	if err := s.Close(); err != nil {
		return nil, false, fmt.Errorf("sweepjournal: %s: %w", dir, err)
	}
	return entries, torn, nil
}

func entry(pkg, hash, opts, state string) Entry {
	return Entry{
		Package: pkg, Hash: hash, Opts: opts, State: state, Rung: "full",
		Findings: []Finding{{CWE: "CWE-94", SinkLine: 3, Source: "input"}},
		Attempts: []Attempt{{Rung: "full", Engine: "query", Findings: 1}},
	}
}

// openJournal opens a journal directory for writing, as a supervised
// sweep does, and closes it at test end.
func openJournal(t *testing.T, dir string, opts store.Options) *store.Store {
	t.Helper()
	s, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// writeJournal puts one complete entry per package name and closes the
// journal.
func writeJournal(t *testing.T, dir string, pkgs ...string) {
	t.Helper()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		if err := Put(s, entry(pkg, "h", "o", StateComplete)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// lastRecord frames a journal's log and returns its bytes plus the
// offset and payload length of the final record.
func lastRecord(t *testing.T, dir string) (data []byte, off int64, n int) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "store.dat"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := store.DecodeRecords(data)
	if len(recs) == 0 {
		t.Fatal("journal log holds no records")
	}
	last := recs[len(recs)-1]
	return data, last.Offset, last.PayloadLen
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openJournal(t, dir, store.Options{})
	want := map[string]Entry{}
	for i := 0; i < 5; i++ {
		e := entry(fmt.Sprintf("pkg-%d", i), "h", "o", StateComplete)
		if err := Put(s, e); err != nil {
			t.Fatal(err)
		}
		want[e.Package] = e
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Error("clean journal reported torn")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("entries did not round-trip:\n%+v\nwant\n%+v", got, want)
	}
}

// TestLastEntryWins: a re-scan puts a new record for the package;
// reading the journal must keep the newest one.
func TestLastEntryWins(t *testing.T) {
	dir := t.TempDir()
	s := openJournal(t, dir, store.Options{})
	if err := Put(s, entry("pkg", "h1", "o", StateQuarantined)); err != nil {
		t.Fatal(err)
	}
	if err := Put(s, entry("pkg", "h2", "o", StateComplete)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if e := got["pkg"]; e.Hash != "h2" || e.State != StateComplete {
		t.Errorf("last entry did not win: %+v", e)
	}
}

// TestTornFinalLine: a journal whose final record was cut mid-write
// (the SIGKILL signature) must load every whole record and report the
// tear instead of erroring. A cut exactly at a record boundary leaves
// nothing to report.
func TestTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, "pkg-0", "pkg-1", "pkg-2", "pkg-3")
	data, off, n := lastRecord(t, dir)
	// Cut inside the length prefix, inside the payload, inside the CRC,
	// and at the start of the final record (a clean cut).
	for _, keep := range []int64{off + 2, off + 4 + int64(n)/2, off + 4 + int64(n) + 2, off} {
		tdir := filepath.Join(t.TempDir(), "torn")
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tdir, "store.dat"), data[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		got, isTorn, err := Load(tdir)
		if err != nil {
			t.Fatalf("keep=%d: %v", keep, err)
		}
		if len(got) != 3 {
			t.Errorf("keep=%d: %d entries survived, want 3", keep, len(got))
		}
		if isTorn != (keep != off) {
			t.Errorf("keep=%d: torn=%v, want %v", keep, isTorn, keep != off)
		}
		for i := 0; i < 3; i++ {
			if _, ok := got[fmt.Sprintf("pkg-%d", i)]; !ok {
				t.Errorf("keep=%d: whole entry pkg-%d lost", keep, i)
			}
		}
	}
}

// TestCorruptMiddleRecordQuarantined: a record in the middle of the
// journal that fails its CRC is quarantined; the records around it
// still load, so only that package re-scans.
func TestCorruptMiddleRecordQuarantined(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, "a", "b", "c")
	path := filepath.Join(dir, "store.dat")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := store.DecodeRecords(data)
	if len(recs) != 3 {
		t.Fatalf("framed %d records, want 3", len(recs))
	}
	data[recs[1].Offset+4+int64(recs[1].PayloadLen)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, torn, err := Load(dir)
	if err != nil {
		t.Fatalf("corrupt middle record failed the load: %v", err)
	}
	if torn {
		t.Error("a corrupt middle record is not a torn tail")
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d entries, want 2", len(got))
	}
	if _, ok := got[recs[1].Key]; ok {
		t.Errorf("corrupt record %s trusted", recs[1].Key)
	}
	s := openJournal(t, dir, store.Options{})
	if q := s.Stats().Quarantined; q != 1 {
		t.Errorf("quarantined %d records, want 1", q)
	}
}

func TestMissingFileLoadsEmpty(t *testing.T) {
	got, torn, err := Load(filepath.Join(t.TempDir(), "nope"))
	if err != nil || torn || len(got) != 0 {
		t.Errorf("missing journal: entries=%d torn=%v err=%v, want empty/false/nil", len(got), torn, err)
	}
}

// TestLoadRejectsJournalFile: a journal is a directory. A regular file
// in its place (a JSONL journal from an older format) is an error that
// names the path, not an empty journal.
func TestLoadRejectsJournalFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	if err := os.WriteFile(path, []byte(`{"pkg":"a"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("loading a journal file: err=%v, want an error naming %s", err, path)
	}
}

// TestConcurrentWriters: entries put from many goroutines (the sweep
// pool's workers) must each survive as an intact record; run under
// -race this also checks the store's locking. A second writer on the
// same journal, such as a concurrent sweep, is refused.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s := openJournal(t, dir, store.Options{})
	if _, err := store.Open(dir, store.Options{}); !errors.Is(err, store.ErrLocked) {
		t.Fatalf("second writer on a journal: got %v, want store.ErrLocked", err)
	}
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := Put(s, entry(fmt.Sprintf("pkg-%d-%d", g, i), "h", "o", StateComplete)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn, err := Load(dir)
	if err != nil || torn {
		t.Fatalf("load: torn=%v err=%v", torn, err)
	}
	if len(got) != workers*per {
		t.Fatalf("loaded %d entries, want %d", len(got), workers*per)
	}
}

func TestMatches(t *testing.T) {
	e := entry("pkg", "h1", "o1", StateComplete)
	if !e.Matches("h1", "o1") {
		t.Error("matching hash+opts rejected")
	}
	if e.Matches("h2", "o1") {
		t.Error("content-hash mismatch accepted")
	}
	if e.Matches("h1", "o2") {
		t.Error("options-fingerprint mismatch accepted")
	}
}

// TestCreateRepairsTornTail: opening a journal for writing after a
// kill (what every sweep does first) must not let the next entry land
// after the torn bytes. A partial record is truncated away; a whole
// final record followed by the first bytes of an unfinished append is
// kept.
func TestCreateRepairsTornTail(t *testing.T) {
	reopenAndPut := func(t *testing.T, dir string, torn []byte) map[string]Entry {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, "store.dat"), torn, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Stats().TruncatedBytes == 0 {
			t.Error("reopen did not notice the torn tail")
		}
		if err := Put(s, entry("pkg-2", "h", "o", StateComplete)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		got, tornLoad, err := Load(dir)
		if err != nil {
			t.Fatalf("put-after-tear journal: %v", err)
		}
		if tornLoad {
			t.Error("repaired journal still reports torn")
		}
		if _, ok := got["pkg-2"]; !ok {
			t.Error("post-repair put lost")
		}
		return got
	}

	t.Run("garbage-tail-truncated", func(t *testing.T) {
		dir := t.TempDir()
		writeJournal(t, dir, "pkg-0", "pkg-1")
		data, off, n := lastRecord(t, dir)
		got := reopenAndPut(t, dir, data[:off+4+int64(n)/2])
		if _, ok := got["pkg-1"]; ok {
			t.Error("torn entry resurrected")
		}
		if len(got) != 2 {
			t.Errorf("loaded %d entries, want 2", len(got))
		}
	})

	t.Run("whole-final-record-kept", func(t *testing.T) {
		dir := t.TempDir()
		writeJournal(t, dir, "pkg-0", "pkg-1")
		data, _, _ := lastRecord(t, dir)
		torn := append(append([]byte(nil), data...), 0x2a, 0x00, 0x00) // half a length prefix
		if got := reopenAndPut(t, dir, torn); len(got) != 3 {
			t.Fatalf("loaded %d entries, want 3 (whole final entry kept)", len(got))
		}
	})
}

// requireVisibleAfterPut checks that every acknowledged Put is already
// in the log: a read-only Load, taken while the writer is still open,
// sees it. That is what lets a SIGKILL lose at most unacknowledged
// entries.
func requireVisibleAfterPut(t *testing.T, opts store.Options) {
	t.Helper()
	dir := t.TempDir()
	s := openJournal(t, dir, opts)
	for i, pkg := range []string{"a", "b", "c"} {
		if err := Put(s, entry(pkg, "h", "o", StateComplete)); err != nil {
			t.Fatal(err)
		}
		got, torn, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if torn {
			t.Fatal("journal reported torn while its writer is open")
		}
		if len(got) != i+1 {
			t.Fatalf("after put %d: loaded %d entries, want %d", i+1, len(got), i+1)
		}
		if _, ok := got[pkg]; !ok {
			t.Fatalf("entry %q not visible after Put returned", pkg)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendIsDurablePerEntry: with fsync on (the default), an
// acknowledged entry is in the journal before the next one is put.
func TestAppendIsDurablePerEntry(t *testing.T) {
	requireVisibleAfterPut(t, store.Options{})
}

// TestNoFsyncStillFlushes: NoFsync skips the fsync but never the write,
// so a concurrent reader still sees every acknowledged entry.
func TestNoFsyncStillFlushes(t *testing.T) {
	requireVisibleAfterPut(t, store.Options{NoFsync: true})
}

// TestCompactRoundTrip: compacting a journal drops superseded records
// and keeps exactly the entries a reader saw before.
func TestCompactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openJournal(t, dir, store.Options{})
	for _, e := range []Entry{
		entry("pkg-a", "h1", "o", StateDegraded), // superseded below
		entry("pkg-a", "h2", "o", StateComplete),
		entry("pkg-b", "h3", "o", StateComplete),
	} {
		if err := Put(s, e); err != nil {
			t.Fatal(err)
		}
	}
	before := Entries(s)
	size := s.Stats().Bytes
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != 2 || st.Bytes >= size {
		t.Errorf("compaction kept %d records in %d bytes (was %d bytes), want 2 records in fewer",
			st.Entries, st.Bytes, size)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after, torn, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Error("compacted journal reported torn")
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("compaction changed the journal:\n%+v\nwant\n%+v", after, before)
	}
}

// TestLoadWithStoreQuarantinesBadRecord: a journal record holding
// undecodable or mis-keyed JSON is quarantined and skipped — the
// package simply re-scans cold.
func TestLoadWithStoreQuarantinesBadRecord(t *testing.T) {
	s := openJournal(t, t.TempDir(), store.Options{})
	if err := s.Put(store.KindJournal, "pkg-bad", []byte("not json")); err != nil {
		t.Fatal(err)
	}
	mismatched, err := json.Marshal(entry("other-pkg", "h", "o", StateComplete))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(store.KindJournal, "pkg-mismatch", mismatched); err != nil {
		t.Fatal(err)
	}
	if err := Put(s, entry("pkg-good", "h", "o", StateComplete)); err != nil {
		t.Fatal(err)
	}
	got := Entries(s)
	if len(got) != 1 {
		t.Fatalf("loaded %d entries, want only the good one", len(got))
	}
	if _, ok := got["pkg-good"]; !ok {
		t.Fatal("good entry lost")
	}
	if q := s.Stats().Quarantined; q != 2 {
		t.Errorf("quarantined %d records, want 2", q)
	}
}

// TestLoadWithStoreNilStore: a sweep without a journal passes a nil
// store, and putting an entry is a no-op.
func TestLoadWithStoreNilStore(t *testing.T) {
	if err := Put(nil, entry("pkg", "h", "o", StateComplete)); err != nil {
		t.Fatalf("Put on a nil journal: %v", err)
	}
}
