package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/budget"
)

func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.Put(KindFragment, "k1", []byte("body-one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindDetect, "k1", []byte("other-family")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindFragment, "empty-body", nil); err != nil {
		t.Fatal(err)
	}

	got, ok := s.Get(KindFragment, "k1")
	if !ok || string(got) != "body-one" {
		t.Fatalf("Get fragment k1 = %q, %v", got, ok)
	}
	got, ok = s.Get(KindDetect, "k1")
	if !ok || string(got) != "other-family" {
		t.Fatalf("kinds must not collide on key: %q, %v", got, ok)
	}
	if got, ok = s.Get(KindFragment, "empty-body"); !ok || len(got) != 0 {
		t.Fatalf("empty body round-trip: %q, %v", got, ok)
	}
	if _, ok = s.Get(KindFragment, "missing"); ok {
		t.Fatal("miss expected")
	}
	st := s.Stats()
	if st.Entries != 3 || st.Puts != 3 || st.Hits != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestReopenRestoresIndex(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 20; i++ {
		if err := s.Put(KindFragment, fmt.Sprintf("key-%02d", i), []byte(fmt.Sprintf("body-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite: later records win.
	if err := s.Put(KindFragment, "key-07", []byte("updated")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{})
	if s2.Len() != 20 {
		t.Fatalf("Len after reopen = %d, want 20", s2.Len())
	}
	got, ok := s2.Get(KindFragment, "key-07")
	if !ok || string(got) != "updated" {
		t.Fatalf("last write must win after reopen: %q, %v", got, ok)
	}
}

func TestTornTailRepairedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.Put(KindFragment, "whole", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: append half a record, the shape SIGKILL mid-append
	// leaves behind.
	path := filepath.Join(dir, dataFile)
	rec := encodeRecord(KindFragment, "torn", []byte("never completed"))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tornSize := fileSize(t, path)

	s2 := openT(t, dir, Options{})
	if _, ok := s2.Get(KindFragment, "whole"); !ok {
		t.Fatal("whole record must survive tail repair")
	}
	if _, ok := s2.Get(KindFragment, "torn"); ok {
		t.Fatal("torn record must not be indexed")
	}
	if st := s2.Stats(); st.TruncatedBytes == 0 {
		t.Fatalf("tail repair must be counted: %+v", st)
	}
	if got := fileSize(t, path); got >= tornSize {
		t.Fatalf("tail not physically truncated: %d >= %d", got, tornSize)
	}
	// The repaired log accepts appends on the clean boundary.
	if err := s2.Put(KindFragment, "after-repair", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openT(t, dir, Options{})
	if _, ok := s3.Get(KindFragment, "after-repair"); !ok {
		t.Fatal("post-repair append lost")
	}
}

func TestBitFlipQuarantinesRecord(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.Put(KindFragment, "victim", bytes.Repeat([]byte("v"), 256)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindFragment, "bystander", []byte("intact")); err != nil {
		t.Fatal(err)
	}
	victimOff := s.index[recKey{KindFragment, "victim"}].off
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one bit inside the victim's body.
	path := filepath.Join(dir, dataFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[victimOff+40] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{})
	if _, ok := s2.Get(KindFragment, "victim"); ok {
		t.Fatal("bit-flipped record must be quarantined, not served")
	}
	if _, ok := s2.Get(KindFragment, "bystander"); !ok {
		t.Fatal("records after a quarantined one must still be served")
	}
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantine must be counted once: %+v", st)
	}
}

func TestGetReverifiesCRCAfterOpen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.Put(KindFragment, "rots-later", bytes.Repeat([]byte("r"), 128)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the record on disk *after* the index was built, bypassing
	// the store's own handle: Get must still catch it.
	sl := s.index[recKey{KindFragment, "rots-later"}]
	raw, err := os.OpenFile(filepath.Join(dir, dataFile), os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.WriteAt([]byte{0xFF}, sl.off+20); err != nil {
		t.Fatal(err)
	}
	if err := raw.Close(); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(KindFragment, "rots-later"); ok {
		t.Fatal("Get must re-verify the CRC and miss on post-open rot")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("post-open rot must be quarantined: %+v", st)
	}
	// And never trusted again, even though the index once had it.
	if _, ok := s.Get(KindFragment, "rots-later"); ok {
		t.Fatal("quarantined record served on second Get")
	}
}

func TestGarbageHeaderQuarantinesWholeLog(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, dataFile), []byte("not a store at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir, Options{})
	if s.Len() != 0 {
		t.Fatalf("unrecognizable log must yield an empty store, got %d entries", s.Len())
	}
	if st := s.Stats(); st.Quarantined == 0 {
		t.Fatalf("whole-log quarantine must be counted: %+v", st)
	}
	// The bad log is preserved aside for inspection, and the fresh one works.
	if _, err := os.Stat(filepath.Join(dir, corruptFile)); err != nil {
		t.Fatalf("corrupt log not preserved: %v", err)
	}
	if err := s.Put(KindFragment, "fresh", []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestCompactDropsDeadRecords(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if err := s.Put(KindFragment, "hot", []byte(fmt.Sprintf("version-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(KindDetect, "keep", []byte("live")); err != nil {
		t.Fatal(err)
	}
	before := fileSize(t, filepath.Join(dir, dataFile))

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := fileSize(t, filepath.Join(dir, dataFile))
	if after >= before {
		t.Fatalf("compaction must shrink the log: %d >= %d", after, before)
	}
	got, ok := s.Get(KindFragment, "hot")
	if !ok || string(got) != "version-9" {
		t.Fatalf("latest version must survive compaction: %q, %v", got, ok)
	}
	if _, ok := s.Get(KindDetect, "keep"); !ok {
		t.Fatal("live record lost in compaction")
	}
	// The store stays writable after the swap, and a reopen sees
	// everything.
	if err := s.Put(KindFragment, "post-compact", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, Options{})
	for _, k := range []string{"hot", "post-compact"} {
		if _, ok := s2.Get(KindFragment, k); !ok {
			t.Fatalf("%s lost across compact+reopen", k)
		}
	}
}

func TestCrashMidCompactionLeavesOldLogIntact(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := s.Put(KindFragment, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate SIGKILL after the temp file is fully written but before
	// the rename: the hook aborts compaction at the worst moment.
	testHookCompact = func(string) error { return errors.New("sigkill") }
	defer func() { testHookCompact = nil }()
	if err := s.Compact(); err == nil {
		t.Fatal("hooked compaction must fail")
	}
	// The aborted temp file must not survive into the next open.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, Options{})
	if s2.Len() != 5 {
		t.Fatalf("old log must be intact after crashed compaction: %d entries", s2.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, tmpFile)); !os.IsNotExist(err) {
		t.Fatalf("stale compaction temp must be removed at open: %v", err)
	}
	// And compaction succeeds once the fault is gone.
	testHookCompact = nil
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 5 {
		t.Fatalf("entries lost by real compaction: %d", s2.Len())
	}
}

func TestWriterLockExcludesSecondWriter(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second writer must be excluded, got %v", err)
	}
	// Read-only replicas are always admitted.
	ro := openT(t, dir, Options{ReadOnly: true})
	if err := ro.Put(KindFragment, "x", nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Put must fail with ErrReadOnly, got %v", err)
	}
	// Closing the writer releases the lock.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after release: %v", err)
	}
	s2.Close()
}

func TestReadOnlySnapshotSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{})
	if err := w.Put(KindFragment, "shared", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	ro := openT(t, dir, Options{ReadOnly: true})
	if got, ok := ro.Get(KindFragment, "shared"); !ok || string(got) != "v1" {
		t.Fatalf("replica read: %q, %v", got, ok)
	}
	// Writer rewrites the log out from under the replica; the replica's
	// fd pins the old inode, so its snapshot stays coherent.
	if err := w.Put(KindFragment, "shared", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	if got, ok := ro.Get(KindFragment, "shared"); !ok || string(got) != "v1" {
		t.Fatalf("replica snapshot must stay coherent across writer compaction: %q, %v", got, ok)
	}
	// A fresh replica open sees the new state.
	ro2 := openT(t, dir, Options{ReadOnly: true})
	if got, ok := ro2.Get(KindFragment, "shared"); !ok || string(got) != "v2" {
		t.Fatalf("fresh replica: %q, %v", got, ok)
	}
}

func TestReadOnlyToleratesTornTailWithoutRepair(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.Put(KindFragment, "whole", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, dataFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	size := fileSize(t, path)

	ro := openT(t, dir, Options{ReadOnly: true})
	if _, ok := ro.Get(KindFragment, "whole"); !ok {
		t.Fatal("whole record must be readable past a torn tail")
	}
	if got := fileSize(t, path); got != size {
		t.Fatalf("read-only open must not modify the file: %d != %d", got, size)
	}
}

func TestInjectedDiskFaultsRollBackAndCount(t *testing.T) {
	for _, mode := range []string{"short-write", "enospc"} {
		t.Run(mode, func(t *testing.T) {
			// Find a seed whose deterministic draw yields this mode at
			// write ordinal 1 for our label.
			label := "store-test-" + mode
			var seed int64
			found := false
			for seed = 0; seed < 10000 && !found; seed++ {
				budget.SetFaultPlan(&budget.FaultPlan{Seed: seed, DiskProb: 1, Spread: 1})
				f := budget.DiskFaultAt(label, 1)
				found = (mode == "short-write" && f == budget.DiskShortWrite) ||
					(mode == "enospc" && f == budget.DiskENOSPC)
				budget.SetFaultPlan(nil)
			}
			if !found {
				t.Fatal("no seed found for mode")
			}
			seed--

			dir := t.TempDir()
			s := openT(t, dir, Options{FaultLabel: label})
			if err := s.Put(KindFragment, "before", []byte("durable")); err != nil {
				t.Fatal(err)
			}
			sizeBefore := fileSize(t, filepath.Join(dir, dataFile))

			budget.SetFaultPlan(&budget.FaultPlan{Seed: seed, DiskProb: 1, Spread: 1})
			// This store session already used ordinal 1; reopen so the
			// faulting write is the first of a session.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := openT(t, dir, Options{FaultLabel: label})
			err := s2.Put(KindFragment, "faulted", []byte("must not land"))
			budget.SetFaultPlan(nil)
			if err == nil {
				t.Fatal("injected fault must surface as a Put error")
			}
			if _, ok := s2.Get(KindFragment, "faulted"); ok {
				t.Fatal("faulted record must not be indexed")
			}
			if _, ok := s2.Get(KindFragment, "before"); !ok {
				t.Fatal("earlier record must survive the fault")
			}
			if st := s2.Stats(); st.WriteErrors != 1 {
				t.Fatalf("write error must be counted: %+v", st)
			}
			// Rollback restored the boundary: the next append works and
			// the file holds no torn garbage.
			if got := fileSize(t, filepath.Join(dir, dataFile)); got != sizeBefore {
				t.Fatalf("rollback must restore the log size: %d != %d", got, sizeBefore)
			}
			if err := s2.Put(KindFragment, "after", []byte("clean")); err != nil {
				t.Fatal(err)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3 := openT(t, dir, Options{FaultLabel: label})
			for _, k := range []string{"before", "after"} {
				if _, ok := s3.Get(KindFragment, k); !ok {
					t.Fatalf("%s lost after fault + reopen", k)
				}
			}
			if _, ok := s3.Get(KindFragment, "faulted"); ok {
				t.Fatal("faulted record resurrected by reopen")
			}
		})
	}
}

func TestConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{NoFsync: true})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("g%d-i%d", g, i)
				if err := s.Put(KindFragment, key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(KindFragment, key); !ok || string(got) != key {
					t.Errorf("read-own-write %s: %q, %v", key, got, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 400 {
		t.Fatalf("Len = %d, want 400", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, Options{})
	if s2.Len() != 400 {
		t.Fatalf("reopen Len = %d, want 400", s2.Len())
	}
}

func TestDecodeRecordsNeverPanics(t *testing.T) {
	// Exhaustive small-input sanity; FuzzStoreDecode in internal/scanner
	// drives the full decode stack.
	inputs := [][]byte{
		nil,
		{},
		[]byte("MDGS"),
		header,
		append(append([]byte{}, header...), 0xFF, 0xFF, 0xFF, 0xFF),
		append(append([]byte{}, header...), 0, 0, 0, 0, 0, 0, 0, 0),
	}
	rec := encodeRecord(KindFragment, "k", []byte("v"))
	full := append(append([]byte{}, header...), rec...)
	inputs = append(inputs, full, full[:len(full)-1], full[:len(header)+3])
	// A record claiming a huge length must not allocate or overrun.
	huge := append([]byte{}, header...)
	huge = binary.LittleEndian.AppendUint32(huge, uint32(maxRecord))
	inputs = append(inputs, huge)

	for i, in := range inputs {
		recs, diag := DecodeRecords(in)
		if diag.Tail > int64(len(in)) {
			t.Fatalf("input %d: tail %d beyond %d bytes", i, diag.Tail, len(in))
		}
		for _, r := range recs {
			_ = r.Body
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestAckedPutVisibleToReadOnlyOpen: a Put that has returned is
// already in the log, so a read-only Open of the same directory sees
// it before the writer closes. A process killed right after the Put
// therefore keeps the record. NoFsync skips the fsync (a machine crash
// may lose the record) but never the write itself.
func TestAckedPutVisibleToReadOnlyOpen(t *testing.T) {
	for _, noFsync := range []bool{false, true} {
		t.Run(fmt.Sprintf("noFsync=%v", noFsync), func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, dir, Options{NoFsync: noFsync})
			for i := 0; i < 3; i++ {
				key, body := fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("body-%d", i))
				if err := s.Put(KindJournal, key, body); err != nil {
					t.Fatal(err)
				}
				ro, err := Open(dir, Options{ReadOnly: true})
				if err != nil {
					t.Fatal(err)
				}
				got, ok := ro.Get(KindJournal, key)
				n := ro.Len()
				if err := ro.Close(); err != nil {
					t.Fatal(err)
				}
				if !ok || !bytes.Equal(got, body) {
					t.Fatalf("acked Put %s not visible to a read-only open: %q, %v", key, got, ok)
				}
				if n != i+1 {
					t.Fatalf("read-only open after %d puts sees %d records", i+1, n)
				}
			}
		})
	}
}
