package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// BenchmarkServeScan measures the daemon path end-to-end: an edited
// package is re-submitted to a live graphjsd server cold (stateless)
// and warm (same name, hitting the process-wide StatePool's fragment
// cache), then a burst of concurrent warm re-submissions measures
// p50/p95 latency under load. It reports cold-ms, warm-ms, p50-ms and
// p95-ms and asserts the warm speedup ≥2×, the StatePool's acceptance
// bar.
func BenchmarkServeScan(b *testing.B) {
	srv := server.New(server.Options{Workers: 4, QueueDepth: 4096})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The package shape mirrors a real library: a small entry pair
	// carrying the vulnerable flow, several analysis-heavy untouched
	// modules (nested loops drive the abstract-interpretation fixpoint;
	// the warm re-scan serves them from the fragment cache), and one
	// small file that gets edited per submission.
	var heavy bytes.Buffer
	for i := 0; i < 2; i++ {
		fmt.Fprintf(&heavy, "function helper%d(v) { var o = {}; for (var i = 0; i < 6; i++) { for (var j = 0; j < 6; j++) { var t = {}; t.a = v; t.b = o; o.x = t; o = t; } } return o; }\n", i)
	}
	heavy.WriteString("module.exports = helper0;\n")
	files := []server.SourceFileJSON{
		{Rel: "index.js", Src: "var run = require('./runner');\nfunction entry(x) { run('git ' + x); }\nmodule.exports = entry;\n"},
		{Rel: "runner.js", Src: "const { exec } = require('child_process');\nfunction r(c) { exec(c); }\nmodule.exports = r;\n"},
	}
	for i := 0; i < 4; i++ {
		files = append(files, server.SourceFileJSON{Rel: fmt.Sprintf("lib%d.js", i), Src: heavy.String()})
	}
	req := func(name string, rev int, cold bool) []byte {
		r := server.ScanRequest{
			Name: name,
			Cold: cold,
			Files: append(files[:len(files):len(files)], server.SourceFileJSON{
				Rel: "util.js",
				Src: fmt.Sprintf("function id(v) { return v; }\nvar rev = %d;\nmodule.exports = id;\n", rev),
			}),
		}
		data, err := json.Marshal(r)
		if err != nil {
			b.Fatal(err)
		}
		return data
	}
	post := func(body []byte) (time.Duration, int) {
		t0 := time.Now()
		resp, err := http.Post(ts.URL+"/v1/scan", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var sr server.ScanResponse
		if derr := json.NewDecoder(resp.Body).Decode(&sr); derr != nil {
			b.Fatal(derr)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("scan status %d", resp.StatusCode)
		}
		return time.Since(t0), len(sr.Findings)
	}

	post(req("pkg", -1, false)) // seed the warm state

	var coldT, warmT time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dc, nc := post(req("pkg", i, true))
		dw, nw := post(req("pkg", i, false))
		if nc == 0 || nc != nw {
			b.Fatalf("finding mismatch: cold %d, warm %d", nc, nw)
		}
		coldT += dc
		warmT += dw
	}
	b.StopTimer()

	// Concurrent load: 8 clients re-submitting warm packages; the
	// percentiles capture queueing behind the 4-slot worker pool.
	const requests, clients = 64, 8
	for p := 0; p < clients; p++ {
		post(req(fmt.Sprintf("pkg-%d", p), 0, false)) // seed each name
	}
	lat := make([]time.Duration, requests)
	var wg sync.WaitGroup
	idx := make(chan int)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range idx {
				d, _ := post(req(fmt.Sprintf("pkg-%d", i%clients), 0, false))
				lat[i] = d
			}
		}(c)
	}
	for i := 0; i < requests; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[requests/2].Microseconds())/1000, "p50-ms")
	b.ReportMetric(float64(lat[requests*95/100].Microseconds())/1000, "p95-ms")
	speedupBar.check(b, perIter(b, coldT), perIter(b, warmT))
}
