package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/budget"
)

// fakeClock is an injectable time source for breaker cooldown tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func TestOffenderLedgerLifecycle(t *testing.T) {
	clk := newFakeClock()
	l := newOffenderLedger(2, time.Minute)
	l.now = clk.now

	// First strike: tracked but admitted.
	l.record("h", budget.ClassPanic, true)
	if d := l.admit("h"); d.quarantined {
		t.Fatal("one strike below threshold quarantined the hash")
	}
	// Second strike trips the breaker.
	l.record("h", budget.ClassPanic, true)
	d := l.admit("h")
	if !d.quarantined || d.retryAfter <= 0 {
		t.Fatalf("tripped hash admitted: %+v", d)
	}
	// Cooldown elapsed: exactly one half-open probe goes through, a
	// concurrent request is still shed.
	clk.advance(61 * time.Second)
	if d := l.admit("h"); !d.probe {
		t.Fatalf("post-cooldown request is not the probe: %+v", d)
	}
	if d := l.admit("h"); !d.quarantined {
		t.Fatalf("second request during probe admitted: %+v", d)
	}
	// Failed probe re-opens for another full cooldown.
	l.record("h", budget.ClassPanic, true)
	if d := l.admit("h"); !d.quarantined {
		t.Fatalf("failed probe did not re-open: %+v", d)
	}
	// Next probe succeeds: the hash is forgiven entirely.
	clk.advance(61 * time.Second)
	if d := l.admit("h"); !d.probe {
		t.Fatal("no probe after second cooldown")
	}
	l.record("h", budget.ClassNone, true)
	if d := l.admit("h"); d.quarantined || d.probe {
		t.Fatalf("recovered hash still restricted: %+v", d)
	}
	var bj BreakersJSON
	l.snapshot(&bj)
	if bj.OffenderRecovered != 1 || bj.OffenderTrips != 2 || bj.OffenderShed < 2 {
		t.Fatalf("counters = %+v", bj)
	}
}

func TestOffenderLedgerStrikeEligibility(t *testing.T) {
	l := newOffenderLedger(1, time.Minute)
	l.now = newFakeClock().now

	// A timeout under a client-shortened allowance is not an offense.
	l.record("h", budget.ClassTimeout, false)
	if d := l.admit("h"); d.quarantined {
		t.Fatal("ineligible timeout struck the ledger")
	}
	// Deterministic verdicts (parse errors etc.) never strike — and a
	// clean outcome wipes prior strikes.
	l.record("h", budget.ClassParse, true)
	if d := l.admit("h"); d.quarantined {
		t.Fatal("parse failure struck the ledger")
	}
	// Cancellation is the client's death, not the content's fault.
	l.record("h", budget.ClassCanceled, true)
	if d := l.admit("h"); d.quarantined {
		t.Fatal("cancellation struck the ledger")
	}
	// A full-allowance timeout does strike (threshold 1 → quarantined).
	l.record("h", budget.ClassTimeout, true)
	if d := l.admit("h"); !d.quarantined {
		t.Fatal("eligible timeout did not strike")
	}
}

func TestOffenderLedgerBounded(t *testing.T) {
	clk := newFakeClock()
	l := newOffenderLedger(3, time.Minute)
	l.now = clk.now
	l.maxEntries = 8
	for i := 0; i < 50; i++ {
		clk.advance(time.Second)
		l.record(fmt.Sprintf("h%d", i), budget.ClassPanic, true)
	}
	if len(l.entries) > 8 {
		t.Fatalf("ledger grew to %d entries, bound is 8", len(l.entries))
	}
	// The most recent offenders survive eviction.
	if l.entries["h49"] == nil {
		t.Fatal("newest entry was evicted instead of the oldest")
	}
}

// End-to-end offender flow over HTTP: repeated engine panics on the
// same content quarantine its hash (429 + Retry-After + quarantined
// code), a half-open probe after the cooldown recovers it, and the
// whole journey is visible in /v1/metrics.
func TestOffenderQuarantineHTTP(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, BreakerStrikes: 2, BreakerCooldown: time.Hour})
	clk := newFakeClock()
	s.offenders.now = clk.now

	budget.SetFaultPlan(&budget.FaultPlan{
		Seed: 7, PanicProb: 1, Spread: 1,
		Arm: func(label string) bool { return label == "bomb" },
	})
	defer budget.SetFaultPlan(nil)

	req := ScanRequest{Name: "bomb", Source: "module.exports = function (x) { return x; };"}
	for i := 0; i < 2; i++ {
		resp := decodeResp[ScanResponse](t, postJSON(t, ts.URL+"/v1/scan", req), http.StatusOK)
		if resp.Failure != string(budget.ClassPanic) {
			t.Fatalf("strike %d: failure %q, want panic", i, resp.Failure)
		}
	}

	// Third request: quarantined without burning a slot.
	raw := postJSON(t, ts.URL+"/v1/scan", req)
	if raw.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quarantined status %d, want 429", raw.StatusCode)
	}
	if raw.Header.Get("Retry-After") == "" {
		t.Fatal("quarantined response missing Retry-After")
	}
	var e ErrorJSON
	if err := json.NewDecoder(raw.Body).Decode(&e); err != nil {
		t.Fatalf("decode 429: %v", err)
	}
	raw.Body.Close()
	if e.Error.Code != CodeQuarantined {
		t.Fatalf("code %q, want %q", e.Error.Code, CodeQuarantined)
	}

	// Different content is unaffected by the quarantine.
	other := decodeResp[ScanResponse](t, postJSON(t, ts.URL+"/v1/scan",
		ScanRequest{Name: "innocent", Source: "module.exports = 1;"}), http.StatusOK)
	if other.Failure != "" {
		t.Fatalf("innocent content failed: %q", other.Failure)
	}

	// Cooldown over and the content "fixed": the probe recovers it.
	clk.advance(time.Hour + time.Minute)
	budget.SetFaultPlan(nil)
	probe := decodeResp[ScanResponse](t, postJSON(t, ts.URL+"/v1/scan", req), http.StatusOK)
	if probe.Failure != "" {
		t.Fatalf("probe failed: %q", probe.Failure)
	}
	after := decodeResp[ScanResponse](t, postJSON(t, ts.URL+"/v1/scan", req), http.StatusOK)
	if after.Failure != "" {
		t.Fatalf("post-recovery scan failed: %q", after.Failure)
	}

	m := decodeResp[MetricsResponse](t, getURL(t, ts.URL+"/v1/metrics"), http.StatusOK)
	if m.Breakers.OffenderTrips < 1 || m.Breakers.OffenderShed < 1 || m.Breakers.OffenderRecovered != 1 {
		t.Fatalf("breaker metrics = %+v", m.Breakers)
	}
}
