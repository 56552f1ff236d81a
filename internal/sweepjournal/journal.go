// Package sweepjournal defines the per-package sweep journal, the
// crash-safety substrate for resumable corpus sweeps: each worker puts
// one terminal Entry as it finishes a package, so a sweep that is
// SIGKILLed mid-corpus loses at most the packages still in flight.
// Re-running with resume enabled reads the journal, skips every
// package whose entry matches the current content hash and
// analysis-options fingerprint, and re-scans the rest.
//
// A journal is a store directory (internal/store): one KindJournal
// record per package, keyed by package name, with a JSON body. The
// store supplies the durability story (CRC'd records, group-commit
// fsync, torn-tail repair, quarantine, atomic compaction, one writer
// per directory); this package only owns the record schema, the
// options fingerprint and the Entry codec (content hashes are
// scanner.ContentHash). When a package is re-scanned the newest record
// wins. Entries carry no wall-clock timestamps, so a journal is a
// deterministic function of (corpus, options, fault plan) and two
// journals can be compared entry for entry in the chaos harness.
package sweepjournal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/store"
)

// Terminal states of a supervised package. Every package a supervised
// sweep touches ends in exactly one of these.
const (
	// StateComplete: the full-fidelity rung produced a clean (or
	// deterministically classified, e.g. parse-error) result.
	StateComplete = "complete"
	// StateDegraded: a lower ladder rung produced the result — either a
	// clean run under reduced caps or the reach-gate-only triage floor.
	// Rung records which.
	StateDegraded = "degraded"
	// StateQuarantined: every rung failed; later sweeps skip the
	// package by default (requarantine overrides).
	StateQuarantined = "quarantined"
	// StateCanceled: the sweep's request context was canceled (client
	// disconnect, server shutdown) before the package finished. Unlike
	// the three states above it says nothing about the package, so a
	// canceled entry is always retryable: resume re-scans it even when
	// hash and fingerprint match.
	StateCanceled = "canceled"
)

// Finding is the journal's flat rendering of one queries.Finding
// (witness paths are graph-node IDs, meaningless across runs, and are
// not persisted).
type Finding struct {
	CWE      string `json:"cwe"`
	SinkName string `json:"sink,omitempty"`
	SinkLine int    `json:"line"`
	SinkFile string `json:"file,omitempty"`
	Source   string `json:"source,omitempty"`
}

// Attempt is one row of a package's attempt history: which ladder rung
// ran, on which engine, and how it ended.
type Attempt struct {
	Rung     string `json:"rung"`
	Engine   string `json:"engine,omitempty"`
	Class    string `json:"class,omitempty"` // failure class ("" = clean)
	Err      string `json:"err,omitempty"`
	Findings int    `json:"findings"`
}

// Entry is one package's terminal journal row.
type Entry struct {
	Package string `json:"pkg"`
	// Hash is the package's content hash; Opts fingerprints the
	// analysis options (base scan options + ladder). Resume skips a
	// package only when both match.
	Hash string `json:"hash"`
	Opts string `json:"opts"`
	// State is the terminal state (StateComplete/Degraded/Quarantined);
	// Rung names the ladder rung that produced the result.
	State string `json:"state"`
	Rung  string `json:"rung"`
	// Class is the final failure class ("" for a clean result) and
	// Incomplete marks best-effort findings subsets.
	Class      string    `json:"class,omitempty"`
	Incomplete bool      `json:"incomplete,omitempty"`
	Findings   []Finding `json:"findings"`
	Attempts   []Attempt `json:"attempts"`
}

// Key is the journal map key for an entry (the package name: a corpus
// never contains two packages with the same name).
func (e *Entry) Key() string { return e.Package }

// Matches reports whether the entry can stand in for a fresh scan of a
// package with the given content hash and options fingerprint.
func (e *Entry) Matches(hash, opts string) bool {
	return e.Hash == hash && e.Opts == opts
}

// Put journals one terminal entry as a KindJournal record keyed by
// package name; a later Put for the same package supersedes it. A nil
// store (no journal configured) makes Put a no-op.
func Put(s *store.Store, e Entry) error {
	if s == nil {
		return nil
	}
	body, err := json.Marshal(&e)
	if err != nil {
		return fmt.Errorf("sweepjournal: marshal %s: %w", e.Package, err)
	}
	if err := s.Put(store.KindJournal, e.Key(), body); err != nil {
		return fmt.Errorf("sweepjournal: put %s: %w", e.Package, err)
	}
	return nil
}

// Entries reads every journal record in s into a per-package map. A
// record whose CRC-clean body does not decode to an Entry for its key
// is quarantined and skipped: that package re-scans, findings
// unchanged.
func Entries(s *store.Store) map[string]Entry {
	entries := map[string]Entry{}
	for _, k := range s.Keys(store.KindJournal) {
		body, ok := s.Get(store.KindJournal, k)
		if !ok {
			continue // CRC failure: already quarantined by the store
		}
		var e Entry
		if err := json.Unmarshal(body, &e); err != nil || e.Key() != k {
			s.Quarantine(store.KindJournal, k)
			continue
		}
		entries[k] = e
	}
	return entries
}

// Fingerprint hashes an arbitrary JSON-serializable options value into
// a short stable string. Callers must pass a deterministic value
// (structs and slices, not maps with elided ordering).
func Fingerprint(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Options values are plain structs; a marshal failure is a
		// programming error worth failing loudly over.
		panic("sweepjournal: fingerprint: " + err.Error()) //lint:allow nakedpanic -- marshal of plain option structs cannot fail; programming error
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}
