package server

import (
	"sync"
	"time"

	"repro/internal/budget"
)

// Circuit breakers: the daemon's memory of repeat offenders.
//
// The offender ledger is content-addressed: every scan request is
// hashed over its exact file set, and hashes whose scans keep dying
// (engine panics, full-allowance timeouts) are quarantined — served a
// cached `quarantined` verdict with Retry-After instead of burning a
// run slot on input the server already knows wedges it. After the
// cooldown a single half-open probe is admitted; a clean probe clears
// the hash, a failed one re-opens it for another cooldown.

// offenderEntry tracks one content hash's recent behavior.
type offenderEntry struct {
	strikes   int
	lastSeen  time.Time
	lastClass budget.Class
	// open marks the hash quarantined until openUntil; probing marks
	// the single half-open probe currently in flight.
	open      bool
	openUntil time.Time
	probing   bool
}

// offenderLedger is the per-content-hash circuit breaker. A nil ledger
// (breakers disabled) admits everything.
type offenderLedger struct {
	mu         sync.Mutex
	threshold  int           // strikes before the hash trips
	cooldown   time.Duration // quarantine duration / Retry-After hint
	maxEntries int           // bound on tracked hashes (LRU evicted)
	now        func() time.Time

	entries map[string]*offenderEntry

	trips     int64 // lifetime quarantine transitions
	shed      int64 // requests answered with the cached verdict
	recovered int64 // hashes cleared by a clean half-open probe
}

func newOffenderLedger(threshold int, cooldown time.Duration) *offenderLedger {
	if threshold < 0 {
		return nil
	}
	if threshold == 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 30 * time.Second
	}
	return &offenderLedger{
		threshold:  threshold,
		cooldown:   cooldown,
		maxEntries: 4096,
		now:        time.Now,
		entries:    map[string]*offenderEntry{},
	}
}

// offenderDecision is the ledger's admission verdict for one hash.
type offenderDecision struct {
	quarantined bool
	retryAfter  time.Duration
	probe       bool // this request is the half-open probe
	lastClass   budget.Class
}

// admit decides whether a request for this content hash may run.
func (l *offenderLedger) admit(hash string) offenderDecision {
	if l == nil {
		return offenderDecision{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entries[hash]
	if e == nil || !e.open {
		return offenderDecision{}
	}
	now := l.now()
	e.lastSeen = now
	if now.Before(e.openUntil) || e.probing {
		l.shed++
		ra := e.openUntil.Sub(now)
		if ra <= 0 {
			ra = l.cooldown // a probe is already in flight; come back later
		}
		return offenderDecision{quarantined: true, retryAfter: ra, lastClass: e.lastClass}
	}
	// Cooldown elapsed and no probe in flight: let exactly one request
	// through half-open.
	e.probing = true
	return offenderDecision{probe: true, lastClass: e.lastClass}
}

// strikeClass reports whether a failure class counts as an offense:
// engine panics and wall-clock timeouts are the classes a hostile or
// pathological input reproduces across requests. Cancellation says the
// client died, not the scan; parse/resolve errors are deterministic
// content verdicts the scan *completed* with; budget caps are the
// client's own knobs.
func strikeClass(c budget.Class) bool {
	return c == budget.ClassPanic || c == budget.ClassTimeout
}

// record folds one terminal scan outcome for the hash into the ledger.
// strikeEligible gates timeout strikes: a request that asked for a
// below-default timeout can time out on innocent content, so only
// full-allowance failures count.
func (l *offenderLedger) record(hash string, class budget.Class, strikeEligible bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entries[hash]
	now := l.now()

	if class == budget.ClassCanceled {
		// No verdict either way; a consumed probe slot reopens so the
		// next request can probe instead.
		if e != nil && e.probing {
			e.probing = false
		}
		return
	}
	if strikeClass(class) && strikeEligible {
		if e == nil {
			e = &offenderEntry{}
			l.insertLocked(hash, e)
		}
		e.strikes++
		e.lastSeen = now
		e.lastClass = class
		if e.probing {
			// Failed probe: straight back to quarantine.
			e.probing = false
			e.openUntil = now.Add(l.cooldown)
			l.trips++
		} else if !e.open && e.strikes >= l.threshold {
			e.open = true
			e.openUntil = now.Add(l.cooldown)
			l.trips++
		}
		return
	}
	// Any completed non-offense outcome resets the hash: strikes count
	// consecutive offenses, and a clean half-open probe recovers a
	// quarantined hash entirely.
	if e != nil {
		if e.open {
			l.recovered++
		}
		delete(l.entries, hash)
	}
}

// insertLocked adds a new entry, evicting the least-recently-seen one
// when the ledger is full (the ledger is a bounded memory of recent
// offenders, not an unbounded map a hostile client can balloon).
func (l *offenderLedger) insertLocked(hash string, e *offenderEntry) {
	if len(l.entries) >= l.maxEntries {
		oldest, oldestT := "", time.Time{}
		for k, v := range l.entries {
			if oldest == "" || v.lastSeen.Before(oldestT) {
				oldest, oldestT = k, v.lastSeen
			}
		}
		delete(l.entries, oldest)
	}
	l.entries[hash] = e
}

// snapshot fills the ledger's slice of the metrics response.
func (l *offenderLedger) snapshot(out *BreakersJSON) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out.OffenderTracked = len(l.entries)
	for _, e := range l.entries {
		if e.open {
			out.OffenderOpen++
		}
	}
	out.OffenderTrips = l.trips
	out.OffenderShed = l.shed
	out.OffenderRecovered = l.recovered
}
