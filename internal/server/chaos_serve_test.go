package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/store"
	"repro/internal/sweepjournal"
)

// startHardenedServer serves s through the production transport path
// (Server.NewHTTPServer on a real listener) so chaos tests exercise the
// same timeouts cmd/graphjsd ships with. The returned stop function is
// an abrupt close — listener and live connections die immediately, no
// drain — which is exactly what a SIGKILL looks like from the handler's
// point of view.
func startHardenedServer(t *testing.T, s *Server, h HTTPOptions) (base string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := s.NewHTTPServer(ln.Addr().String(), h)
	go hs.Serve(ln)
	closed := false
	stop = func() {
		if !closed {
			closed = true
			hs.Close()
		}
	}
	t.Cleanup(stop)
	return "http://" + ln.Addr().String(), stop
}

// A slowloris connection — headers dribbling in forever — must be cut
// by ReadHeaderTimeout instead of pinning a goroutine, and must not
// starve well-behaved clients on the same listener.
func TestSlowlorisClosedByHeaderTimeout(t *testing.T) {
	s := New(Options{Workers: 1})
	base, _ := startHardenedServer(t, s, HTTPOptions{ReadHeaderTimeout: 300 * time.Millisecond})

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request: the header section never terminates.
	if _, err := conn.Write([]byte("POST /v1/scan HTTP/1.1\r\nHost: chaos\r\nX-Slow: ")); err != nil {
		t.Fatal(err)
	}

	// A healthy client is served while the slowloris clock runs.
	h := decodeResp[HealthResponse](t, getURL(t, base+"/healthz"), http.StatusOK)
	if h.Status != "ok" {
		t.Fatalf("healthz during slowloris = %+v", h)
	}

	// The server hangs up on the dribbler within the header timeout
	// (generous deadline; the point is it happens at all, not when).
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a request whose headers never finished")
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("slowloris connection still open after 10s; ReadHeaderTimeout not enforced")
	}
}

// chaosCorpus writes a small sweep corpus: vulnerable files, package
// directories, and a clean file, so journals carry a mix of finding
// shapes worth diffing.
func chaosCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"exec.js":       "module.exports = function(c){ require('child_process').exec(c) }\n",
		"evil.js":       "module.exports = function(c){ eval(c) }\n",
		"clean.js":      "module.exports = function(x){ return x + 1 }\n",
		"pkg/index.js":  "var run = require('./lib');\nmodule.exports = function(c){ run(c) }\n",
		"pkg/lib.js":    "const { execSync } = require('child_process');\nmodule.exports = function(c){ execSync(c) }\n",
		"deep/index.js": "module.exports = function(c){ new Function(c)() }\n",
	}
	for rel, src := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// canonicalFindings renders a journal entry's findings in a stable
// order so two sweeps can be compared as sets.
func canonicalFindings(e sweepjournal.Entry) []string {
	out := make([]string, 0, len(e.Findings))
	for _, f := range e.Findings {
		out = append(out, fmt.Sprintf("%s|%s|%s:%d|%s", f.CWE, f.SinkName, f.SinkFile, f.SinkLine, f.Source))
	}
	sort.Strings(out)
	return out
}

// TestChaosServe is the resilience invariant end to end: a daemon under
// hostile traffic — slowloris, mid-body disconnects, oversized uploads,
// abandoned scans, panic bombs, an injected disk fault — may change its
// latency and status codes, but it must never change findings, and
// after an abrupt kill a restart on the same cache dir must sweep to a
// journal finding-equivalent to the pre-chaos baseline.
func TestChaosServe(t *testing.T) {
	corpus := chaosCorpus(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	jBase := filepath.Join(t.TempDir(), "base-journal")
	jPost := filepath.Join(t.TempDir(), "post-journal")

	opts := Options{Workers: 4, QueueDepth: 32, DegradedCooldown: time.Hour}

	// ---- Baseline: sweep the corpus on a calm daemon. ----
	stBase, err := store.Open(cacheDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, tsBase := newTestServer(t, func() Options { o := opts; o.Store = stBase; return o }())
	sw := decodeResp[SweepResponse](t, postJSON(t, tsBase.URL+"/v1/sweep",
		SweepRequest{Path: corpus, Journal: jBase}), http.StatusOK)
	if sw.Completed != sw.Targets || sw.Findings == 0 {
		t.Fatalf("baseline sweep = %+v, want all targets completed with findings", sw)
	}
	baseline, torn, err := sweepjournal.Load(jBase)
	if err != nil || torn {
		t.Fatalf("baseline journal: torn=%v err=%v", torn, err)
	}

	// Expected per-source findings for the healthy clients' invariant.
	healthySrc := "module.exports = function(c){ require('child_process').exec(c) }\n"
	want := decodeResp[ScanResponse](t, postJSON(t, tsBase.URL+"/v1/scan",
		ScanRequest{Name: "calm", Source: healthySrc}), http.StatusOK)
	if len(want.Findings) == 0 {
		t.Fatal("calm scan found nothing; the invariant below would be vacuous")
	}
	tsBase.Close()
	if err := stBase.Close(); err != nil {
		t.Fatal(err)
	}

	// ---- The chaos daemon: fresh store session on the same cache dir,
	// served through the production hardened transport. A fresh session
	// matters: disk-fault ordinals count per session, so the injected
	// fault below deterministically hits this daemon's FIRST store
	// write, mid-storm. ----
	st1, err := store.Open(cacheDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srvA := New(func() Options { o := opts; o.Store = st1; return o }())
	base, kill := startHardenedServer(t, srvA, HTTPOptions{
		ReadHeaderTimeout: 500 * time.Millisecond,
		ReadTimeout:       10 * time.Second,
	})

	// ---- Chaos: hostile and healthy traffic interleaved. ----
	// "bomb" scans panic at their first budget checkpoint; the store's
	// first write during chaos hits a simulated disk fault (degrading
	// the daemon mid-storm).
	budget.SetFaultPlan(&budget.FaultPlan{
		Seed: 41, PanicProb: 1, DiskProb: 1, Spread: 1,
		Arm: func(label string) bool { return label == "bomb" || label == "store" },
	})
	defer budget.SetFaultPlan(nil)

	// Ghost scans hold their slot until the server observes the client's
	// disconnect (propagation is asynchronous; without this the scan can
	// finish clean before the transport notices), so the canceled
	// counter below is deterministic. The started channel lets each
	// ghost client cancel only once its request is actually in a
	// handler, never while still dialing.
	ghostStarted := make(chan struct{}, 8)
	testHookScanning = func(name string, ctx context.Context) {
		if strings.HasPrefix(name, "ghost") {
			select {
			case ghostStarted <- struct{}{}:
			default:
			}
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Second):
			}
		}
	}

	var mu sync.Mutex
	var violations []string
	violate := func(format string, args ...any) {
		mu.Lock()
		violations = append(violations, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	var wg sync.WaitGroup
	hostile := func(f func(i int)) {
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(i int) { defer wg.Done(); f(i) }(i)
		}
	}

	// Slowloris: dribbling headers, cut by the transport.
	hostile(func(i int) {
		conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write([]byte("GET /v1/status HTTP/1.1\r\nHost: chaos\r\n"))
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		buf := make([]byte, 64)
		if _, err := conn.Read(buf); errors.Is(err, os.ErrDeadlineExceeded) {
			violate("slowloris %d: connection survived 10s", i)
		}
	})
	// Mid-body disconnect: valid JSON start, then the client dies.
	hostile(func(i int) {
		pr, pw := io.Pipe()
		go func() {
			pw.Write([]byte(`{"name":"half","source":"module.`))
			time.Sleep(20 * time.Millisecond)
			pw.CloseWithError(errors.New("client died mid-body"))
		}()
		resp, err := http.Post(base+"/v1/scan", "application/json", pr)
		if err == nil {
			resp.Body.Close()
		}
	})
	// Oversized upload: must be a structured 413, never an accepted scan.
	var big bytes.Buffer
	big.WriteString(`{"name":"big","source":"`)
	big.Write(bytes.Repeat([]byte("a"), maxBodyBytes+1024))
	big.WriteString(`"}`)
	hostile(func(i int) {
		resp, err := http.Post(base+"/v1/scan", "application/json", bytes.NewReader(big.Bytes()))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			violate("oversized upload %d was accepted", i)
		}
	})
	// Abandoned scans: clients that cancel mid-flight.
	hostile(func(i int) {
		ctx, cancel := context.WithCancel(context.Background())
		done := cancelableScan(t, ctx, base, ScanRequest{Name: fmt.Sprintf("ghost%d", i), Source: heavySource()})
		select {
		case <-ghostStarted:
		case <-time.After(10 * time.Second):
		}
		cancel()
		<-done
	})
	// Panic bombs: content that kills its scan every time. The fences
	// classify the panic (200 + failure, or 429 once quarantined); a
	// clean verdict would mean a fence lost the panic.
	hostile(func(i int) {
		resp := postJSON(t, base+"/v1/scan", ScanRequest{Name: "bomb", Source: "module.exports = 0;\n"})
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return
		}
		got := decodeResp[ScanResponse](t, resp, http.StatusOK)
		if got.Failure == "" {
			violate("panic bomb %d reported a clean scan", i)
		}
	})
	// Healthy clients riding through the storm: every response must be
	// a 200 with exactly the calm-daemon findings.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				name := fmt.Sprintf("healthy-%d-%d", c, i)
				// The salt comment changes nothing about the analysis but
				// makes every upload unique content, so each scan exercises
				// fresh store writes (where the disk fault is waiting).
				src := fmt.Sprintf("// %s\n%s", name, healthySrc)
				resp := postJSON(t, base+"/v1/scan", ScanRequest{Name: name, Source: src})
				if resp.StatusCode != http.StatusOK {
					violate("healthy scan %s: status %d", name, resp.StatusCode)
					resp.Body.Close()
					continue
				}
				got := decodeResp[ScanResponse](t, resp, http.StatusOK)
				if len(got.Findings) != len(want.Findings) {
					violate("healthy scan %s: %d findings, want %d", name, len(got.Findings), len(want.Findings))
				}
			}
		}(c)
	}
	wg.Wait()
	// Handlers can outlive their clients (a canceled Do returns while
	// the server-side scan is still unwinding); wait for the pool to
	// empty before touching the shared test hook again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := decodeResp[StatusResponse](t, getURL(t, base+"/v1/status"), http.StatusOK)
		if st.Running == 0 && st.Queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never drained after chaos: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	testHookScanning = nil
	if len(violations) > 0 {
		t.Fatalf("chaos invariant violated:\n  %s", strings.Join(violations, "\n  "))
	}

	// The storm left its marks in the right places: canceled clients
	// counted, the disk fault degraded the daemon, and /readyz still
	// advertises readiness (degraded serves, draining doesn't).
	m := decodeResp[MetricsResponse](t, getURL(t, base+"/v1/metrics"), http.StatusOK)
	if m.Canceled == 0 {
		t.Fatal("no canceled requests recorded despite abandoned clients")
	}
	if m.HealthTransitions["healthy->degraded"] == 0 {
		t.Fatalf("disk fault never degraded the daemon: transitions=%+v store=%+v", m.HealthTransitions, m.Store)
	}
	r := decodeResp[ReadyResponse](t, getURL(t, base+"/readyz"), http.StatusOK)
	if !r.Ready {
		t.Fatalf("daemon unready after chaos: %+v", r)
	}

	// ---- Abrupt kill and restart on the same cache dir. ----
	budget.SetFaultPlan(nil)
	kill() // listener and connections die; no Drain, no store sync
	// The handlers' slots drain on their own (their clients are gone);
	// wait so closing the store below cannot race an in-flight write.
	deadline = time.Now().Add(10 * time.Second)
	for len(srvA.slots) > 0 || len(srvA.queue) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("run slots never drained after kill")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := st1.Close(); err != nil {
		t.Fatalf("close store after kill: %v", err)
	}

	st2 := openServerStore(t, cacheDir)
	_, ts2 := newTestServer(t, func() Options { o := opts; o.Store = st2; return o }())
	sw2 := decodeResp[SweepResponse](t, postJSON(t, ts2.URL+"/v1/sweep",
		SweepRequest{Path: corpus, Journal: jPost}), http.StatusOK)
	if sw2.Completed != sw2.Targets {
		t.Fatalf("post-chaos sweep = %+v, want all targets completed", sw2)
	}
	post, torn, err := sweepjournal.Load(jPost)
	if err != nil || torn {
		t.Fatalf("post-chaos journal: torn=%v err=%v", torn, err)
	}

	// The invariant: chaos and a kill changed nothing about what the
	// analysis reports.
	if len(post) != len(baseline) {
		t.Fatalf("post-chaos journal has %d entries, baseline %d", len(post), len(baseline))
	}
	for name, b := range baseline {
		p, ok := post[name]
		if !ok {
			t.Fatalf("target %s missing from post-chaos journal", name)
		}
		if p.State != b.State {
			t.Fatalf("target %s state %q, baseline %q", name, p.State, b.State)
		}
		bf, pf := canonicalFindings(b), canonicalFindings(p)
		if strings.Join(bf, "\n") != strings.Join(pf, "\n") {
			t.Fatalf("target %s findings diverged after chaos+restart:\nbaseline: %v\npost:     %v", name, bf, pf)
		}
	}
}
