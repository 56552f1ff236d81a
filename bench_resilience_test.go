package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// BenchmarkServeResilience measures what hostile traffic costs honest
// clients. Two fixed-size phases run against a live daemon served
// through the production hardened transport: first 8 healthy clients
// alone, then the same request load from 6 healthy clients while 2
// hostile clients (25% of the fleet) loop slowloris connections,
// oversized uploads, and mid-scan disconnects. It reports
// healthy-p95-ms (all-healthy baseline) and hostile-p95-ms (healthy
// requests during the storm) and asserts their degradation ratio ≤2×,
// the daemon-resilience acceptance bar.
func BenchmarkServeResilience(b *testing.B) {
	srv := server.New(server.Options{Workers: 4, QueueDepth: 4096})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := srv.NewHTTPServer(ln.Addr().String(), server.HTTPOptions{
		ReadHeaderTimeout: 250 * time.Millisecond,
	})
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	// The healthy request: a vulnerable flow plus enough analysis work
	// that queueing behind the 4-slot pool is measurable.
	var heavy bytes.Buffer
	for i := 0; i < 2; i++ {
		fmt.Fprintf(&heavy, "function helper%d(v) { var o = {}; for (var i = 0; i < 6; i++) { for (var j = 0; j < 6; j++) { var t = {}; t.a = v; t.b = o; o.x = t; o = t; } } return o; }\n", i)
	}
	heavy.WriteString("module.exports = helper0;\n")
	mkReq := func(name string) []byte {
		r := server.ScanRequest{Name: name, Files: []server.SourceFileJSON{
			{Rel: "index.js", Src: "var run = require('./runner');\nmodule.exports = function(x){ run('git ' + x) };\n"},
			{Rel: "runner.js", Src: "const { exec } = require('child_process');\nmodule.exports = function(c){ exec(c) };\n"},
			{Rel: "lib.js", Src: heavy.String()},
		}}
		data, err := json.Marshal(r)
		if err != nil {
			b.Fatal(err)
		}
		return data
	}
	post := func(body []byte) (time.Duration, int) {
		t0 := time.Now()
		resp, err := http.Post(base+"/v1/scan", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var sr server.ScanResponse
		if derr := json.NewDecoder(resp.Body).Decode(&sr); derr != nil {
			b.Fatal(derr)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("healthy scan status %d", resp.StatusCode)
		}
		return time.Since(t0), len(sr.Findings)
	}

	wantFindings := func() int {
		_, n := post(mkReq("probe"))
		if n == 0 {
			b.Fatal("probe scan found nothing; latency of empty scans is not the measurement")
		}
		return n
	}()

	// One hostile client: rotate the three attack shapes forever.
	var oversized []byte
	{
		var big bytes.Buffer
		big.WriteString(`{"name":"big","source":"`)
		big.Write(bytes.Repeat([]byte("a"), 17<<20))
		big.WriteString(`"}`)
		oversized = big.Bytes()
	}
	hostileLoop := func(stop <-chan struct{}) {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0: // slowloris: dribble headers until the transport hangs up
				conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
				if err != nil {
					continue
				}
				conn.Write([]byte("POST /v1/scan HTTP/1.1\r\nHost: x\r\n"))
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				conn.Read(make([]byte, 1))
				conn.Close()
			case 1: // oversized upload
				if resp, err := http.Post(base+"/v1/scan", "application/json", bytes.NewReader(oversized)); err == nil {
					resp.Body.Close()
				}
			case 2: // mid-scan disconnect
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/scan",
					bytes.NewReader(mkReq("ghost")))
				req.Header.Set("Content-Type", "application/json")
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
				cancel()
			}
		}
	}

	// phase runs `requests` healthy scans across `healthy` clients
	// (optionally alongside `hostileN` attackers) and returns the p95
	// healthy latency.
	const requests = 64
	phase := func(healthy, hostileN int) time.Duration {
		stop := make(chan struct{})
		var hwg sync.WaitGroup
		for h := 0; h < hostileN; h++ {
			hwg.Add(1)
			go func() { defer hwg.Done(); hostileLoop(stop) }()
		}
		lat := make([]time.Duration, requests)
		idx := make(chan int)
		var wg sync.WaitGroup
		for c := 0; c < healthy; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := range idx {
					d, n := post(mkReq(fmt.Sprintf("pkg-%d", i%8)))
					if n != wantFindings {
						b.Errorf("healthy scan under load: %d findings, want %d", n, wantFindings)
					}
					lat[i] = d
				}
			}(c)
		}
		for i := 0; i < requests; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
		close(stop)
		hwg.Wait()
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[requests*95/100]
	}

	// Pre-warm every name both phases use, so the baseline and storm
	// phases measure the same (warm) work and the ratio is honest.
	for i := 0; i < 8; i++ {
		post(mkReq(fmt.Sprintf("pkg-%d", i)))
	}

	// The timed loop keeps ns/op meaningful: one warm healthy scan.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(mkReq("pkg-0"))
	}
	b.StopTimer()

	healthyP95 := phase(8, 0)
	hostileP95 := phase(6, 2)
	degradationBar.check(b, healthyP95, hostileP95)
}
