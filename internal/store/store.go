// Package store implements the on-disk, content-addressed analysis
// store: a crash-safe record log that persists MDG fragments, front-end
// dependency facts, detection results and sweep-journal entries (a
// sweep journal is a store directory) across process restarts, so a
// graphjsd replica warm-starts
// near warm-sweep speed instead of re-deriving every multiversion
// dependency graph.
//
// Robustness is the design center, not a footnote. The failure model is
// that anything on disk can be wrong — a torn append after SIGKILL, a
// bit flip, an ENOSPC mid-record, a crash mid-compaction — and none of
// it may ever change scan findings or crash the daemon. Corruption can
// change speed, never results:
//
//   - Every record carries a format version and a CRC-32C over its
//     payload; the CRC is verified both when the log is replayed at
//     Open and again on every Get, so post-open bit rot is caught too.
//   - A record that fails its CRC (or that a caller reports as
//     undecodable via Quarantine) is quarantined: dropped from the
//     index, counted, and never trusted again. The caller observes a
//     cache miss and degrades to a cold computation.
//   - A torn tail — the signature of a kill mid-append — is detected at
//     Open and physically truncated back to the last whole record
//     before any new append, exactly like the sweep journal's tail
//     repair.
//   - Appends go through a group-commit fsync (concurrently completing
//     writers share one Sync), so an acknowledged Put is durable;
//     Options.NoFsync is the benchmarking escape hatch.
//   - Compaction commits atomically: live records are rewritten to a
//     temp file, fsynced, renamed over the log, and the directory is
//     fsynced. A crash mid-compaction leaves the original log intact
//     and a stale temp file that the next Open removes.
//   - A write that fails partway (real ENOSPC, or an injected
//     budget.DiskFault) is rolled back by truncating to the pre-write
//     offset; if even the rollback fails the store goes read-only for
//     the rest of the process instead of corrupting the log.
//
// One writer owns a store directory at a time (an flock on store.lock,
// held for the Open→Close session). Read-only opens take no lock and
// never modify the file: the log is append-only and compaction replaces
// it atomically, so any prefix a reader sees is a valid snapshot.
//
// The store is content-addressed and schema-agnostic: keys are the
// caller's content hashes (component keys, file hashes), bodies are
// opaque bytes. The scanner-level encodings live next to their types
// (internal/mdg codec, internal/scanner persist) so this package stays
// a pure durability layer.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"repro/internal/budget"
)

// Kind tags a record's schema so one log can hold every record family.
type Kind byte

// Record kinds. The store does not interpret bodies; these exist so
// unrelated families cannot collide on a key.
const (
	// KindFragment: one MDG require-component fragment plus its
	// function summaries (internal/scanner persist encoding).
	KindFragment Kind = 1
	// KindDetect: one cached detection result for a fragment × engine ×
	// fallback × sink-config combination.
	KindDetect Kind = 2
	// KindFrontEnd: per-file front-end dependency facts keyed by the
	// file's content hash.
	KindFrontEnd Kind = 3
	// KindJournal: one sweep-journal entry (JSON body) of a journal
	// store directory.
	KindJournal Kind = 4
)

const (
	// dataFile is the record log inside a store directory.
	dataFile = "store.dat"
	// tmpFile is the compaction scratch file (removed at Open if a
	// crash left it behind).
	tmpFile = "store.dat.tmp"
	// lockFile serializes writers on the directory.
	lockFile = "store.lock"
	// corruptFile is where an unrecognizable log is moved aside.
	corruptFile = "store.dat.corrupt"

	// recVersion is the current record format version. Decoders skip
	// (quarantine) records from future versions instead of guessing.
	recVersion = 1

	// maxRecord bounds one record's payload; anything larger in a
	// length prefix is treated as frame corruption, not an allocation
	// request.
	maxRecord = 1 << 27 // 128 MiB
)

// header is the log preamble: magic plus the container format version.
var header = []byte{'M', 'D', 'G', 'S', 1}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrReadOnly is returned by mutating calls on a read-only store.
var ErrReadOnly = errors.New("store: read-only")

// ErrLocked is returned when another process holds the writer lock.
var ErrLocked = errors.New("store: directory locked by another process")

// errInjected wraps a deterministic budget.DiskFault.
var errInjected = errors.New("store: injected disk fault")

// Options configures Open.
type Options struct {
	// ReadOnly opens the store without the writer lock and never
	// mutates the file: no tail repair, no appends, no compaction.
	// Replicas sharing a warm directory open it read-only while one
	// writer owns the lock.
	ReadOnly bool
	// NoFsync skips the group-commit fsync on appends (benchmarks and
	// tests; production keeps the default durable path).
	NoFsync bool
	// FaultLabel is the label store writes present to the deterministic
	// disk-fault plan (budget.DiskFaultAt). Empty means "store".
	FaultLabel string
}

// Stats is a snapshot of a store's lifetime counters.
type Stats struct {
	// Entries is the number of live (indexed, trusted) records;
	// Bytes the log's current size on disk.
	Entries int
	Bytes   int64
	// Puts/Gets/Hits count traffic since Open.
	Puts, Gets, Hits int64
	// Quarantined counts records dropped for failing their CRC or
	// being reported undecodable; TruncatedBytes counts torn-tail and
	// rollback bytes discarded. Both are corruption made visible:
	// every unit here was a potential wrong finding turned into a
	// cache miss.
	Quarantined    int64
	TruncatedBytes int64
	// WriteErrors counts failed appends (ENOSPC, injected faults);
	// Compactions counts successful Compact commits.
	WriteErrors int64
	Compactions int64
}

type recKey struct {
	kind Kind
	key  string
}

// slot locates a record's payload inside the log.
type slot struct {
	off int64 // offset of the 4-byte length prefix
	n   int   // payload length
}

// Store is an open store directory. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File
	lockF  *os.File
	size   int64 // committed log size (next append offset)
	index  map[recKey]slot
	broken bool // rollback failed: writes disabled for this session
	closed bool

	writes  int // disk-fault checkpoint ordinal
	written int64
	synced  int64
	syncMu  sync.Mutex

	stats Stats
}

// testHookCompact, when non-nil, runs after compaction has written
// (but not committed) the temp file; returning an error simulates a
// crash mid-compaction. Test-only.
var testHookCompact func(tmpPath string) error

// Open opens (creating if needed) the store in dir. In read-write mode
// it takes the writer flock, removes a stale compaction temp file, and
// repairs a torn tail; read-only mode does none of that and tolerates
// the tail in memory. Corrupt records are quarantined (counted, never
// trusted) either way.
func Open(dir string, opts Options) (*Store, error) {
	if opts.FaultLabel == "" {
		opts.FaultLabel = "store"
	}
	s := &Store{dir: dir, opts: opts, index: make(map[recKey]slot)}
	if !opts.ReadOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := s.lock(); err != nil {
			return nil, err
		}
		// A crash mid-compaction leaves a temp file; the rename never
		// happened, so the original log is the truth and the temp is
		// garbage.
		if err := os.Remove(filepath.Join(dir, tmpFile)); err != nil && !os.IsNotExist(err) {
			s.unlock()
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	if err := s.load(); err != nil {
		s.unlock()
		return nil, err
	}
	return s, nil
}

// load reads the log, builds the index, quarantines corrupt records,
// and (read-write only) repairs the tail and opens the append handle.
func (s *Store) load() error {
	path := filepath.Join(s.dir, dataFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if s.opts.ReadOnly {
			s.size = int64(len(header))
			return nil // empty store: every Get misses
		}
		data = nil
	} else if err != nil {
		return fmt.Errorf("store: %w", err)
	}

	if len(data) > 0 && !validHeader(data) {
		// The preamble itself is unrecognizable: nothing in the file
		// can be framed. Quarantine the whole log (move it aside so an
		// operator can inspect it) and start fresh.
		s.stats.Quarantined++
		s.stats.TruncatedBytes += int64(len(data))
		if !s.opts.ReadOnly {
			if err := os.Rename(path, filepath.Join(s.dir, corruptFile)); err != nil {
				return fmt.Errorf("store: quarantine log: %w", err)
			}
		}
		data = nil
	}

	recs, diag := DecodeRecords(data)
	for _, r := range recs {
		s.index[recKey{r.Kind, r.Key}] = slot{off: r.Offset, n: r.PayloadLen}
	}
	s.stats.Quarantined += int64(diag.Quarantined)
	s.stats.TruncatedBytes += int64(len(data)) - diag.Tail

	if s.opts.ReadOnly {
		s.size = diag.Tail
		if len(data) > 0 {
			f, err := os.Open(path)
			if err != nil {
				return fmt.Errorf("store: %w", err)
			}
			s.f = f
		}
		return nil
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	repair := func() error {
		if len(data) == 0 {
			if _, err := f.WriteAt(header, 0); err != nil {
				return fmt.Errorf("store: write header: %w", err)
			}
			if err := f.Truncate(int64(len(header))); err != nil {
				return fmt.Errorf("store: %w", err)
			}
			if err := f.Sync(); err != nil {
				return fmt.Errorf("store: %w", err)
			}
			diag.Tail = int64(len(header))
			return nil
		}
		if diag.Tail < int64(len(data)) {
			// Torn tail (or unreachable bytes after frame corruption):
			// truncate back to the last whole record so the next append
			// starts on a clean boundary.
			if err := f.Truncate(diag.Tail); err != nil {
				return fmt.Errorf("store: repair tail: %w", err)
			}
			if err := f.Sync(); err != nil {
				return fmt.Errorf("store: %w", err)
			}
		}
		return nil
	}
	if err := repair(); err != nil {
		//lint:allow syncclose -- open is failing with the repair error; nothing was acked
		f.Close()
		return err
	}
	s.f = f
	s.size = diag.Tail
	return nil
}

func validHeader(data []byte) bool {
	return len(data) >= len(header) && string(data[:len(header)]) == string(header)
}

// Record is one framed log record as seen by DecodeRecords.
type Record struct {
	Kind Kind
	Key  string
	Body []byte
	// Offset/PayloadLen frame the record inside the log (Offset points
	// at the length prefix).
	Offset     int64
	PayloadLen int
}

// DecodeDiag reports what DecodeRecords had to discard.
type DecodeDiag struct {
	// Quarantined counts records skipped for CRC or payload-shape
	// failures.
	Quarantined int
	// Tail is the offset of the first byte that could not be framed as
	// a whole record — the truncation point for tail repair. Equal to
	// len(data) when the log ends cleanly.
	Tail int64
}

// DecodeRecords frames every whole record in data (which must start
// with the log header when non-empty; callers strip nothing). It never
// panics on corrupt input: a record whose CRC fails is skipped and
// counted; an implausible length prefix or a short tail ends framing
// at that offset. Later records win on key collisions, which is what
// makes the log an append-only map.
func DecodeRecords(data []byte) ([]Record, DecodeDiag) {
	var out []Record
	diag := DecodeDiag{Tail: int64(len(data))}
	if len(data) == 0 {
		diag.Tail = 0
		return nil, diag
	}
	if !validHeader(data) {
		diag.Tail = 0
		return nil, diag
	}
	off := int64(len(header))
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return out, diag
		}
		if len(rest) < 8 { // not even length + CRC
			diag.Tail = off
			return out, diag
		}
		n := int(binary.LittleEndian.Uint32(rest))
		if n <= 0 || n > maxRecord || int64(n)+8 > int64(len(rest)) {
			// Implausible or overrunning length: frame corruption (a
			// flipped length bit or a torn append). Nothing past here
			// can be trusted to start on a boundary.
			diag.Tail = off
			return out, diag
		}
		payload := rest[4 : 4+n]
		crc := binary.LittleEndian.Uint32(rest[4+n:])
		recEnd := off + int64(n) + 8
		if crc32.Checksum(payload, castagnoli) != crc {
			diag.Quarantined++
			off = recEnd
			continue
		}
		kind, key, body, ok := splitPayload(payload)
		if !ok {
			diag.Quarantined++
			off = recEnd
			continue
		}
		out = append(out, Record{Kind: kind, Key: key, Body: body, Offset: off, PayloadLen: n})
		off = recEnd
	}
}

// splitPayload parses a CRC-verified payload: version, kind, key
// length, key, body. Records from a future format version are not
// trusted (the caller counts them quarantined).
func splitPayload(p []byte) (Kind, string, []byte, bool) {
	if len(p) < 2 || p[0] != recVersion {
		return 0, "", nil, false
	}
	kind := Kind(p[1])
	klen, m := binary.Uvarint(p[2:])
	if m <= 0 || klen > uint64(len(p)-2-m) {
		return 0, "", nil, false
	}
	keyStart := 2 + m
	key := string(p[keyStart : keyStart+int(klen)])
	return kind, key, p[keyStart+int(klen):], true
}

// encodeRecord frames one record: length prefix, payload, CRC.
func encodeRecord(kind Kind, key string, body []byte) []byte {
	payload := make([]byte, 0, 2+binary.MaxVarintLen64+len(key)+len(body))
	payload = append(payload, recVersion, byte(kind))
	payload = binary.AppendUvarint(payload, uint64(len(key)))
	payload = append(payload, key...)
	payload = append(payload, body...)

	rec := make([]byte, 0, len(payload)+8)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(payload, castagnoli))
	return rec
}

// Get returns the body of the record (kind, key), or false on a miss.
// The payload CRC is re-verified on every read, so a bit flip that
// lands after Open is still caught; a failing record is quarantined
// and reported as a miss — the caller degrades to cold.
func (s *Store) Get(kind Kind, key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Gets++
	sl, ok := s.index[recKey{kind, key}]
	if !ok || s.f == nil || s.closed {
		return nil, false
	}
	buf := make([]byte, sl.n+4)
	if _, err := s.f.ReadAt(buf, sl.off+4); err != nil {
		s.quarantineLocked(kind, key)
		return nil, false
	}
	payload := buf[:sl.n]
	crc := binary.LittleEndian.Uint32(buf[sl.n:])
	if crc32.Checksum(payload, castagnoli) != crc {
		s.quarantineLocked(kind, key)
		return nil, false
	}
	k, ky, body, ok := splitPayload(payload)
	if !ok || k != kind || ky != key {
		s.quarantineLocked(kind, key)
		return nil, false
	}
	s.stats.Hits++
	return append([]byte(nil), body...), true
}

// Quarantine drops (kind, key) from the index and counts it. Callers
// use it when a CRC-clean body fails their own decoder — the record is
// structurally corrupt at a layer the store cannot see.
func (s *Store) Quarantine(kind Kind, key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quarantineLocked(kind, key)
}

func (s *Store) quarantineLocked(kind Kind, key string) {
	if _, ok := s.index[recKey{kind, key}]; ok {
		delete(s.index, recKey{kind, key})
		s.stats.Quarantined++
	}
}

// Put appends one record and group-commits it. A failed write is
// rolled back (the log truncated to its pre-write size) and reported;
// the entry is simply not cached, which costs speed, never findings.
func (s *Store) Put(kind Kind, key string, body []byte) error {
	if len(key) == 0 {
		return errors.New("store: empty key")
	}
	rec := encodeRecord(kind, key, body)
	if len(rec) > maxRecord {
		return fmt.Errorf("store: record %d bytes exceeds the %d cap", len(rec), maxRecord)
	}

	s.mu.Lock()
	if s.opts.ReadOnly {
		s.mu.Unlock()
		return ErrReadOnly
	}
	if s.closed || s.broken || s.f == nil {
		s.stats.WriteErrors++
		s.mu.Unlock()
		return errors.New("store: not writable")
	}
	s.stats.Puts++
	off := s.size
	if err := s.writeRecord(rec, off); err != nil {
		s.stats.WriteErrors++
		s.mu.Unlock()
		return err
	}
	s.size = off + int64(len(rec))
	s.index[recKey{kind, key}] = slot{off: off, n: len(rec) - 8}
	s.written++
	seq := s.written
	s.mu.Unlock()

	if s.opts.NoFsync {
		return nil
	}
	return s.syncTo(seq)
}

// writeRecord appends rec at off, injecting deterministic disk faults
// when a fault plan arms this store's label, and rolls a partial write
// back by truncating to off. If the rollback itself fails the store is
// marked broken: reads keep serving, writes stop.
func (s *Store) writeRecord(rec []byte, off int64) error {
	s.writes++
	var n int
	var werr error
	switch budget.DiskFaultAt(s.opts.FaultLabel, s.writes) {
	case budget.DiskShortWrite:
		n, _ = s.f.WriteAt(rec[:len(rec)/2], off)
		werr = fmt.Errorf("%w: short write (%d of %d bytes)", errInjected, len(rec)/2, len(rec))
	case budget.DiskENOSPC:
		werr = fmt.Errorf("%w: %w", errInjected, syscall.ENOSPC)
	default:
		n, werr = s.f.WriteAt(rec, off)
		if werr == nil && n < len(rec) {
			werr = fmt.Errorf("store: short write (%d of %d bytes)", n, len(rec))
		}
	}
	if werr == nil {
		return nil
	}
	if n > 0 {
		s.stats.TruncatedBytes += int64(n)
	}
	if terr := s.f.Truncate(off); terr != nil {
		// Cannot restore the boundary; appending again would corrupt
		// the frame stream. Fail writes for the rest of the session —
		// the next Open repairs the tail.
		s.broken = true
		return fmt.Errorf("store: append failed (%v) and rollback failed: %w", werr, terr)
	}
	return fmt.Errorf("store: append: %w", werr)
}

// syncTo is the group commit: the caller needs everything up to its
// own append durable, and whoever acquires the sync lock first covers
// every append written before it.
func (s *Store) syncTo(seq int64) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.synced >= seq {
		return nil
	}
	s.mu.Lock()
	target := s.written
	f := s.f
	s.mu.Unlock()
	if f == nil {
		return errors.New("store: closed")
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	s.synced = target
	return nil
}

// Sync forces everything appended so far to disk.
func (s *Store) Sync() error {
	s.mu.Lock()
	seq := s.written
	ro := s.opts.ReadOnly || s.f == nil
	s.mu.Unlock()
	if ro {
		return nil
	}
	return s.syncTo(seq)
}

// Compact rewrites the live records into a fresh log and commits it
// atomically (temp, fsync, rename, directory fsync): quarantined and
// superseded records are dropped, and a crash at any point leaves
// either the old log or the new one, never a mix. Output order is
// deterministic (sorted by kind then key).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.ReadOnly {
		return ErrReadOnly
	}
	if s.closed || s.f == nil {
		return errors.New("store: closed")
	}

	keys := make([]recKey, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].key < keys[j].key
	})

	tmpPath := filepath.Join(s.dir, tmpFile)
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	commit := func() error {
		if _, err := tmp.Write(header); err != nil {
			return err
		}
		newIndex := make(map[recKey]slot, len(keys))
		off := int64(len(header))
		for _, k := range keys {
			sl := s.index[k]
			buf := make([]byte, sl.n+4)
			if _, err := s.f.ReadAt(buf, sl.off+4); err != nil {
				return err
			}
			payload := buf[:sl.n]
			if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[sl.n:]) {
				// Rotted since indexing: quarantine instead of copying
				// corruption forward.
				delete(s.index, k)
				s.stats.Quarantined++
				continue
			}
			var lenBuf [4]byte
			binary.LittleEndian.PutUint32(lenBuf[:], uint32(sl.n))
			if _, err := tmp.Write(lenBuf[:]); err != nil {
				return err
			}
			if _, err := tmp.Write(buf); err != nil {
				return err
			}
			newIndex[k] = slot{off: off, n: sl.n}
			off += int64(sl.n) + 8
		}
		if testHookCompact != nil {
			if err := testHookCompact(tmpPath); err != nil {
				return err
			}
		}
		if err := tmp.Sync(); err != nil {
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		tmp = nil
		if err := os.Rename(tmpPath, filepath.Join(s.dir, dataFile)); err != nil {
			return err
		}
		if err := syncDir(s.dir); err != nil {
			return err
		}
		f, err := os.OpenFile(filepath.Join(s.dir, dataFile), os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		old := s.f
		s.f = f
		old.Close() //lint:allow syncclose -- read handle to the replaced (renamed-away) log; nothing buffered
		s.index = newIndex
		s.size = off
		s.broken = false
		s.stats.Compactions++
		return nil
	}
	if err := commit(); err != nil {
		if tmp != nil {
			tmp.Close() //lint:allow syncclose -- abandoned temp file, removed on the next line
			os.Remove(tmpPath)
		}
		return fmt.Errorf("store: compact: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// Keys returns the live keys of one record kind in sorted order.
func (s *Store) Keys(kind Kind) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for k := range s.index {
		if k.kind == kind {
			out = append(out, k.key)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// ReadOnly reports whether the store was opened read-only.
func (s *Store) ReadOnly() bool { return s.opts.ReadOnly }

// Stats returns a snapshot of the lifetime counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.index)
	st.Bytes = s.size
	return st
}

// Close syncs (read-write mode) and releases the file and the writer
// lock. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	f := s.f
	s.f = nil
	s.mu.Unlock()

	var first error
	if f != nil {
		if !s.opts.ReadOnly && !s.opts.NoFsync {
			if err := f.Sync(); err != nil {
				first = fmt.Errorf("store: close sync: %w", err)
			}
		}
		if err := f.Close(); err != nil && first == nil {
			first = fmt.Errorf("store: close: %w", err)
		}
	}
	if err := s.unlock(); err != nil && first == nil {
		first = err
	}
	return first
}
