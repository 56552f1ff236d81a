package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/queries"
	"repro/internal/scanner"
	"repro/internal/store"
	"repro/internal/sweepjournal"
)

// loadJournal opens the sweep journal directory read-only and returns
// its entries; torn reports that the log ended in a partial record,
// the state a kill mid-append leaves behind.
func loadJournal(dir string) (entries map[string]sweepjournal.Entry, torn bool, err error) {
	s, err := store.Open(dir, store.Options{ReadOnly: true})
	if err != nil {
		return nil, false, err
	}
	entries = sweepjournal.Entries(s)
	torn = s.Stats().TruncatedBytes > 0
	return entries, torn, s.Close()
}

// newTestServer builds a Server and an httptest listener around it.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeResp[T any](t *testing.T, resp *http.Response, want int) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if resp.StatusCode != want {
		var e ErrorJSON
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("status %d, want %d (error %q: %s)", resp.StatusCode, want, e.Error.Code, e.Error.Message)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

// packageRequest renders a dataset package as the scan request the
// daemon's clients would send: single-file packages as inline source,
// multi-file ones as a file-set upload.
func packageRequest(p *dataset.Package) ScanRequest {
	if len(p.Extra) == 0 {
		return ScanRequest{Name: p.Name, Source: p.Source}
	}
	req := ScanRequest{Name: p.Name, Files: []SourceFileJSON{{Rel: "index.js", Src: p.Source}}}
	for rel, src := range p.Extra {
		req.Files = append(req.Files, SourceFileJSON{Rel: rel, Src: src})
	}
	return req
}

// encodeReport renders a report the way the graphjs CLI -json path
// does, so the comparison below is byte-for-byte against CLI output.
func encodeReport(rj ReportJSON) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rj)
	return buf.Bytes()
}

// TestConcurrentScanMatchesSequential drives the full ground-truth
// corpus through the daemon concurrently and checks every response's
// report rendering is byte-identical to a sequential direct scan
// rendered by the same encoder the CLI uses.
func TestConcurrentScanMatchesSequential(t *testing.T) {
	vulcan, secbench := dataset.GroundTruth(7)
	pkgs := append(append([]*dataset.Package{}, vulcan.Packages...), secbench.Packages...)
	if testing.Short() {
		short := pkgs[:0]
		for i := 0; i < len(pkgs); i += 10 {
			short = append(short, pkgs[i])
		}
		pkgs = short
	}

	_, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 2 * len(pkgs)})

	// Sequential reference: the exact scan the server performs, cold,
	// rendered with the CLI's encoder.
	seqOpts := scanner.Options{
		Config:  queries.DefaultConfig(),
		Engine:  scanner.EngineQuery,
		Timeout: 5 * time.Minute,
	}
	want := make([][]byte, len(pkgs))
	for i, p := range pkgs {
		req := packageRequest(p)
		files, name, errMsg := req.files()
		if errMsg != "" {
			t.Fatalf("%s: %s", p.Name, errMsg)
		}
		want[i] = encodeReport(ReportToJSON(scanner.ScanFiles(files, name, seqOpts)))
	}

	got := make([][]byte, len(pkgs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for i, p := range pkgs {
		wg.Add(1)
		go func(i int, p *dataset.Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			resp := postJSON(t, ts.URL+"/v1/scan", packageRequest(p))
			sr := decodeResp[ScanResponse](t, resp, http.StatusOK)
			got[i] = encodeReport(sr.ReportJSON)
		}(i, p)
	}
	wg.Wait()

	mismatches := 0
	for i := range pkgs {
		if !bytes.Equal(got[i], want[i]) {
			mismatches++
			if mismatches <= 3 {
				t.Errorf("%s: server response diverged from sequential CLI rendering\nserver: %s\ncli:    %s",
					pkgs[i].Name, got[i], want[i])
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d packages diverged", mismatches, len(pkgs))
	}
}

// TestAdmissionShedding saturates a Workers=1, zero-queue server and
// checks the next request is shed with 429 + Retry-After and the
// overloaded error code, then admitted again once the slot frees.
func TestAdmissionShedding(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: -1, RetryAfter: 3 * time.Second})

	started := make(chan string, 1)
	release := make(chan struct{})
	testHookScanning = func(name string, _ context.Context) {
		started <- name
		<-release
	}
	defer func() { testHookScanning = nil }()

	req := ScanRequest{Name: "pinned", Source: "module.exports = function(x){ return x }\n"}
	firstDone := make(chan *http.Response, 1)
	go func() {
		firstDone <- postJSON(t, ts.URL+"/v1/scan", req)
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first scan never started")
	}
	// Worker pinned: the pool (1 slot, 0 queue) is saturated.
	testHookScanning = nil
	resp := postJSON(t, ts.URL+"/v1/scan", ScanRequest{Source: "1\n"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated scan: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	var e ErrorJSON
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error.Code != CodeOverloaded {
		t.Fatalf("error envelope = %+v (err %v), want code %q", e, err, CodeOverloaded)
	}
	resp.Body.Close()

	close(release)
	first := <-firstDone
	if first.StatusCode != http.StatusOK {
		t.Fatalf("pinned scan: status %d, want 200", first.StatusCode)
	}
	first.Body.Close()

	// The freed slot admits again, and /v1/status counted the shed.
	resp = postJSON(t, ts.URL+"/v1/scan", ScanRequest{Source: "1\n"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release scan: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	st, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	status := decodeResp[StatusResponse](t, st, http.StatusOK)
	if status.Rejected != 1 || status.Scans != 2 {
		t.Fatalf("status = %+v, want Rejected=1 Scans=2", status)
	}
}

// TestWarmResubmit re-submits an edited package under the same name and
// checks the second scan draws from the warm fragment cache.
func TestWarmResubmit(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	// index.js and lib.js are independent require-components, so an
	// edit to index must rebuild only index's fragment and reuse lib's.
	lib := "module.exports = function run(cmd){ require('child_process').exec(cmd) }\n"
	mk := func(index string) ScanRequest {
		return ScanRequest{Name: "warmpkg", Files: []SourceFileJSON{
			{Rel: "index.js", Src: index},
			{Rel: "lib.js", Src: lib},
		}}
	}

	first := decodeResp[ScanResponse](t,
		postJSON(t, ts.URL+"/v1/scan", mk("module.exports.id = function(x){ return x }\n")), http.StatusOK)
	if !first.Effective.Warm {
		t.Fatal("first scan not warm — StatePool disabled?")
	}
	if first.Incremental == nil || first.Incremental.FragmentHits != 0 {
		t.Fatalf("first scan incremental = %+v, want zero fragment hits", first.Incremental)
	}

	// Edit only index.js: lib.js's fragment must come from the cache
	// (the counters are cumulative over the package's warm state).
	second := decodeResp[ScanResponse](t,
		postJSON(t, ts.URL+"/v1/scan", mk("module.exports.id = function(x){ return x + 1 }\n")), http.StatusOK)
	if second.Incremental == nil {
		t.Fatal("second scan reported no incremental stats")
	}
	if second.Incremental.FrontEndHits == 0 || second.Incremental.FragmentHits == 0 {
		t.Fatalf("warm resubmit missed the cache: %+v", second.Incremental)
	}
	if len(second.Findings) != len(first.Findings) {
		t.Fatalf("warm resubmit changed findings: %d vs %d", len(second.Findings), len(first.Findings))
	}

	// cold=true must bypass the pool entirely.
	cold := decodeResp[ScanResponse](t,
		postJSON(t, ts.URL+"/v1/scan", func() ScanRequest { r := mk("module.exports.id = function(x){ return x }\n"); r.Cold = true; return r }()), http.StatusOK)
	if cold.Effective.Warm || cold.Incremental != nil {
		t.Fatalf("cold scan still warm: warm=%v incr=%+v", cold.Effective.Warm, cold.Incremental)
	}
}

// TestDrainLeavesReplayableJournal sweeps a small corpus with a
// journal, drains the server, and checks (a) post-drain requests get
// 503, (b) the journal replays cleanly, and (c) a fresh server resumes
// every target from it without re-scanning.
func TestDrainLeavesReplayableJournal(t *testing.T) {
	corpus := t.TempDir()
	vuln := "module.exports = function(c){ require('child_process').exec(c) }\n"
	for _, f := range []string{"a.js", "b.js"} {
		if err := os.WriteFile(filepath.Join(corpus, f), []byte(vuln), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(corpus, "pkg"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corpus, "pkg", "index.js"), []byte(vuln), 0o644); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "sweep-journal")

	opts := Options{Workers: 2}
	srv, ts := newTestServer(t, opts)
	sweepReq := SweepRequest{Path: corpus, Journal: journal}
	sw := decodeResp[SweepResponse](t, postJSON(t, ts.URL+"/v1/sweep", sweepReq), http.StatusOK)
	if sw.Targets != 3 || sw.Completed != 3 || sw.Findings == 0 {
		t.Fatalf("sweep = %+v, want 3 targets completed with findings", sw)
	}

	srv.Drain()
	if !srv.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	resp := postJSON(t, ts.URL+"/v1/scan", ScanRequest{Source: "1\n"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain scan: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	entries, torn, err := loadJournal(journal)
	if err != nil {
		t.Fatalf("replay journal: %v", err)
	}
	if torn || len(entries) != 3 {
		t.Fatalf("journal torn=%v entries=%d, want clean 3", torn, len(entries))
	}
	for name, e := range entries {
		if e.State != sweepjournal.StateComplete {
			t.Fatalf("journal entry %s state %q, want complete", name, e.State)
		}
	}

	// A fresh daemon (same config) resumes every target.
	_, ts2 := newTestServer(t, opts)
	sweepReq.Resume = true
	sw2 := decodeResp[SweepResponse](t, postJSON(t, ts2.URL+"/v1/sweep", sweepReq), http.StatusOK)
	if sw2.Resumed != 3 {
		t.Fatalf("resumed sweep = %+v, want all 3 resumed", sw2)
	}
}

// TestDrainWaitsForInflight pins a scan mid-flight, drains
// concurrently, and checks Drain blocks until the scan finishes while
// new arrivals get 503.
func TestDrainWaitsForInflight(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})

	started := make(chan string, 1)
	release := make(chan struct{})
	testHookScanning = func(name string, _ context.Context) {
		started <- name
		<-release
	}
	defer func() { testHookScanning = nil }()

	scanDone := make(chan *http.Response, 1)
	go func() {
		scanDone <- postJSON(t, ts.URL+"/v1/scan", ScanRequest{Source: "module.exports = 1\n"})
	}()
	<-started
	testHookScanning = nil

	drained := make(chan struct{})
	go func() { srv.Drain(); close(drained) }()
	// Draining flips promptly even with the scan still pinned.
	deadline := time.After(10 * time.Second)
	for !srv.Draining() {
		select {
		case <-deadline:
			t.Fatal("Draining never became true")
		case <-time.After(time.Millisecond):
		}
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while a scan was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	resp := postJSON(t, ts.URL+"/v1/scan", ScanRequest{Source: "1\n"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-drain scan: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	close(release)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned after the scan finished")
	}
	first := <-scanDone
	if first.StatusCode != http.StatusOK {
		t.Fatalf("in-flight scan: status %d, want 200", first.StatusCode)
	}
	first.Body.Close()
}

// TestRequestValidation covers the 400/404/405 surfaces of the API.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	cases := []struct {
		name string
		req  func() *http.Response
		code string
		want int
	}{
		{"empty body", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/scan", ScanRequest{})
		}, CodeBadRequest, 400},
		{"source and files", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/scan", ScanRequest{Source: "1", Files: []SourceFileJSON{{Rel: "a.js"}}})
		}, CodeBadRequest, 400},
		{"duplicate rel", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/scan", ScanRequest{Files: []SourceFileJSON{{Rel: "a.js"}, {Rel: "a.js"}}})
		}, CodeBadRequest, 400},
		{"unknown engine", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/scan", ScanRequest{Source: "1", Engine: "nope"})
		}, CodeBadRequest, 400},
		{"removed fallback engine", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/scan", ScanRequest{Source: "1", Engine: "fallback"})
		}, CodeBadRequest, 400},
		{"unknown field", func() *http.Response {
			resp, err := http.Post(ts.URL+"/v1/scan", "application/json",
				bytes.NewReader([]byte(`{"source":"1","bogus":true}`)))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, CodeBadRequest, 400},
		{"scan via GET", func() *http.Response {
			resp, err := http.Get(ts.URL + "/v1/scan")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, CodeMethod, 405},
		{"sweep without path", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/sweep", SweepRequest{})
		}, CodeBadRequest, 400},
		{"resume without journal", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Path: ".", Resume: true})
		}, CodeBadRequest, 400},
		{"unknown route", func() *http.Response {
			resp, err := http.Get(ts.URL + "/v1/nope")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, CodeNotFound, 404},
		{"unknown route via POST", func() *http.Response {
			return postJSON(t, ts.URL+"/v2/scan", ScanRequest{Source: "1"})
		}, CodeNotFound, 404},
	}
	for _, tc := range cases {
		resp := tc.req()
		var e ErrorJSON
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: decode error envelope: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want || e.Error.Code != tc.code {
			t.Errorf("%s: got %d/%q, want %d/%q (%s)",
				tc.name, resp.StatusCode, e.Error.Code, tc.want, tc.code, e.Error.Message)
		}
	}
}

// TestResponsesAreCompact: the daemon writes every JSON body on one
// line, success and error envelope alike.
func TestResponsesAreCompact(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, resp := range []*http.Response{
		postJSON(t, ts.URL+"/v1/scan", ScanRequest{Name: "compact", Source: "module.exports = function (c) { require('child_process').exec(c); };"}),
		postJSON(t, ts.URL+"/v1/scan", ScanRequest{}),
	} {
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(body) || bytes.Count(body, []byte("\n")) != 1 || !bytes.HasSuffix(body, []byte("\n")) {
			t.Errorf("status %d: body is not one compact JSON line:\n%s", resp.StatusCode, body)
		}
	}
}

// TestBudgetClamping checks per-request knobs are honored below the
// ceilings and clamped above them.
func TestBudgetClamping(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers:        1,
		DefaultTimeout: 2 * time.Second,
		MaxTimeout:     10 * time.Second,
		MaxSteps:       50000,
		MaxNodes:       40000,
	})

	src := "module.exports = function(x){ return x }\n"
	within := decodeResp[ScanResponse](t,
		postJSON(t, ts.URL+"/v1/scan", ScanRequest{Source: src, TimeoutMs: 5000, MaxSteps: 1000}), http.StatusOK)
	if within.Effective.TimeoutMs != 5000 || within.Effective.MaxSteps != 1000 {
		t.Fatalf("within-ceiling effective = %+v, want timeout 5000ms steps 1000", within.Effective)
	}
	if within.Effective.MaxNodes != 40000 {
		t.Fatalf("unset node cap should default to ceiling, got %d", within.Effective.MaxNodes)
	}

	above := decodeResp[ScanResponse](t,
		postJSON(t, ts.URL+"/v1/scan", ScanRequest{Source: src, TimeoutMs: 60000, MaxSteps: 999999999}), http.StatusOK)
	if above.Effective.TimeoutMs != 10000 || above.Effective.MaxSteps != 50000 {
		t.Fatalf("above-ceiling effective = %+v, want clamped to 10000ms/50000 steps", above.Effective)
	}

	def := decodeResp[ScanResponse](t,
		postJSON(t, ts.URL+"/v1/scan", ScanRequest{Source: src}), http.StatusOK)
	if def.Effective.TimeoutMs != 2000 || def.Effective.Engine != string(scanner.EngineNative) {
		t.Fatalf("default effective = %+v, want 2000ms on the native engine", def.Effective)
	}
}

// TestPanicFence checks a handler-level panic comes back as a
// structured 500 and the daemon keeps serving.
func TestPanicFence(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	testHookScanning = func(name string, _ context.Context) {
		if name == "boom" {
			panic(fmt.Sprintf("injected fault in %s", name))
		}
	}
	defer func() { testHookScanning = nil }()

	resp := postJSON(t, ts.URL+"/v1/scan", ScanRequest{Name: "boom", Source: "1\n"})
	var e ErrorJSON
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode 500 envelope: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || e.Error.Code != CodeInternal {
		t.Fatalf("panicking scan: got %d/%q, want 500/internal", resp.StatusCode, e.Error.Code)
	}

	ok := postJSON(t, ts.URL+"/v1/scan", ScanRequest{Name: "fine", Source: "module.exports = 1\n"})
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("daemon died after panic: status %d", ok.StatusCode)
	}
	ok.Body.Close()
}

// TestWarmScanReportsPhases: a warm (pooled) scan carries the phase
// rows and names the phase a tiny node cap exhausted, exactly like a
// cold one — both run the same pipeline.
func TestWarmScanReportsPhases(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	vuln := "module.exports = function(c){ require('child_process').exec(c) }\n"
	for _, cold := range []bool{false, true} {
		req := ScanRequest{Name: "capped", Source: vuln, MaxNodes: 5, Cold: cold}
		resp := decodeResp[ScanResponse](t, postJSON(t, ts.URL+"/v1/scan", req), http.StatusOK)
		if resp.Effective.Warm == cold {
			t.Fatalf("cold=%v: effective warm=%v", cold, resp.Effective.Warm)
		}
		if len(resp.Phases) == 0 {
			t.Errorf("cold=%v: response carries no phases", cold)
		}
		if resp.ExhaustedPhase != "analysis" {
			t.Errorf("cold=%v: exhaustedPhase %q, want analysis", cold, resp.ExhaustedPhase)
		}
		if resp.Stats.GraphMs <= 0 {
			t.Errorf("cold=%v: graphMs %v not derived from the phase rows", cold, resp.Stats.GraphMs)
		}
	}
}

// TestTimedOutDerivedFromClass: the wire timedOut is failure ==
// "timeout". A cap that tripped first keeps the scan budget-exceeded
// even when the deadline then expires in the grace detection pass, so
// such a report is not timedOut.
func TestTimedOutDerivedFromClass(t *testing.T) {
	for class, want := range map[budget.Class]bool{
		budget.ClassNone: false, budget.ClassTimeout: true,
		budget.ClassBudget: false, budget.ClassCanceled: false,
	} {
		got := ReportToJSON(&scanner.Report{Failure: class, Incomplete: class != budget.ClassNone})
		if got.TimedOut != want {
			t.Errorf("failure %q: timedOut %v, want %v", class, got.TimedOut, want)
		}
	}
}

// TestTimeoutInFrontEndIsIncompleteOnTheWire: a scan whose deadline
// runs out before detection sends incomplete, like one whose deadline
// runs out in detection.
func TestTimeoutInFrontEndIsIncompleteOnTheWire(t *testing.T) {
	src := "module.exports = function(c){ require('child_process').exec(c) }\n"
	got := ReportToJSON(scanner.ScanSource(src, "t.js", scanner.Options{Timeout: time.Nanosecond}))
	if got.Failure != string(budget.ClassTimeout) || !got.TimedOut || !got.Incomplete {
		t.Fatalf("failure %q, timedOut %v, incomplete %v; want timeout, timedOut, incomplete", got.Failure, got.TimedOut, got.Incomplete)
	}
}

// TestAnonymousScanIsOneShot: a scan without a name keeps no warm
// state, so two anonymous clients never share (or wait on) one.
func TestAnonymousScanIsOneShot(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	src := "module.exports = function(c){ require('child_process').exec(c) }\n"
	for i := 0; i < 2; i++ {
		resp := decodeResp[ScanResponse](t, postJSON(t, ts.URL+"/v1/scan", ScanRequest{Source: src}), http.StatusOK)
		if resp.Effective.Warm || resp.Incremental != nil {
			t.Fatalf("anonymous scan %d: warm=%v incremental=%+v, want a one-shot cold scan", i, resp.Effective.Warm, resp.Incremental)
		}
		if len(resp.Findings) == 0 {
			t.Fatalf("anonymous scan %d: no findings", i)
		}
	}
	if n := srv.pool.Len(); n != 0 {
		t.Fatalf("state pool holds %d states after anonymous scans, want 0", n)
	}
}

// TestSweepScansPackageNamedTest: the walker's test-directory skip
// applies inside a package, never to the package directory itself.
func TestSweepScansPackageNamedTest(t *testing.T) {
	corpus := t.TempDir()
	vuln := "module.exports = function(c){ require('child_process').exec(c) }\n"
	for _, rel := range []string{"test/index.js", "pkg/index.js"} {
		path := filepath.Join(corpus, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(vuln), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := newTestServer(t, Options{Workers: 2})
	sw := decodeResp[SweepResponse](t, postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Path: corpus}), http.StatusOK)
	if sw.Targets != 2 {
		t.Fatalf("sweep = %+v, want 2 targets", sw)
	}
	for _, e := range sw.Entries {
		if len(e.Findings) != 1 {
			t.Errorf("target %s: %d findings, want 1", e.Package, len(e.Findings))
		}
	}
}
