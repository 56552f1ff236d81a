package repro_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/scanner"
	"repro/internal/store"
)

// BenchmarkStoreRestart measures the persistent store's warm-restart
// path: the same package set is scanned by a cold process (fresh
// incremental state, no cache directory) and by a freshly "restarted"
// process — a new StatePool attached to a just-reopened populated
// store, including the store-open cost in the timing. It reports
// cold-ms and warm-ms and asserts their speedup ≥2×, the store's
// acceptance bar.
func BenchmarkStoreRestart(b *testing.B) {
	// Analysis-heavy modules (nested loops drive the abstract
	// interpreter) around one real vulnerable flow, mirroring the serve
	// benchmark's package shape: the warm restart serves every
	// fragment, fact set, and detection result from disk.
	var heavy bytes.Buffer
	for i := 0; i < 2; i++ {
		fmt.Fprintf(&heavy, "function helper%d(v) { var o = {}; for (var i = 0; i < 6; i++) { for (var j = 0; j < 6; j++) { var t = {}; t.a = v; t.b = o; o.x = t; o = t; } } return o; }\n", i)
	}
	heavy.WriteString("module.exports = helper0;\n")
	files := []scanner.SourceFile{
		{Rel: "index.js", Src: "var run = require('./runner');\nfunction entry(x) { run('git ' + x); }\nmodule.exports = entry;\n"},
		{Rel: "runner.js", Src: "const { exec } = require('child_process');\nfunction r(c) { exec(c); }\nmodule.exports = r;\n"},
	}
	for i := 0; i < 4; i++ {
		files = append(files, scanner.SourceFile{Rel: fmt.Sprintf("lib%d.js", i), Src: heavy.String()})
	}
	opts := scanner.Options{Timeout: time.Minute}

	// Populate the cache directory once — the "previous process".
	dir := filepath.Join(b.TempDir(), "cache")
	seed, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pool := scanner.NewStatePool()
	pool.AttachStore(seed)
	so := opts
	so.Incremental = pool.Get("pkg")
	rep := scanner.ScanFiles(files, "pkg", so)
	if rep.Err != nil || len(rep.Findings) == 0 {
		b.Fatalf("seed scan: err=%v findings=%d", rep.Err, len(rep.Findings))
	}
	if err := seed.Close(); err != nil {
		b.Fatal(err)
	}

	var coldT, warmT time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co := opts
		co.Incremental = scanner.NewIncrementalState()
		t0 := time.Now()
		rc := scanner.ScanFiles(files, "pkg", co)
		coldT += time.Since(t0)

		// Warm restart: everything a new process pays — opening the
		// store, a fresh StatePool, the scan — is inside the timer.
		t1 := time.Now()
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		wp := scanner.NewStatePool()
		wp.AttachStore(s)
		wo := opts
		wo.Incremental = wp.Get("pkg")
		rw := scanner.ScanFiles(files, "pkg", wo)
		warmT += time.Since(t1)

		if rc.Err != nil || rw.Err != nil {
			b.Fatalf("scan errors: cold=%v warm=%v", rc.Err, rw.Err)
		}
		if len(rc.Findings) == 0 || len(rc.Findings) != len(rw.Findings) {
			b.Fatalf("finding mismatch: cold %d, warm %d", len(rc.Findings), len(rw.Findings))
		}
		if st := wo.Incremental.Stats(); st.StoreHits == 0 {
			b.Fatalf("warm restart never hit the store: %+v", st)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	speedupBar.check(b, perIter(b, coldT), perIter(b, warmT))
}
