package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/deptree"
	"repro/internal/queries"
	"repro/internal/scanner"
	"repro/internal/server"
	"repro/internal/store"
)

// stateMaxEntries bounds the daemon's warm StatePool, as a long-lived
// graphjsd would run (-state-max-entries). It is far above the warm
// working set (clients × (warmPerClient + trees)), so only one-shot
// first-seen packages are evicted, and memory stays flat however many
// ops a run completes.
const stateMaxEntries = 128

// daemon is one in-process graphjsd: a store in a fresh directory, the
// scan server, and a real loopback listener.
type daemon struct {
	dir     string
	store   *store.Store
	srv     *server.Server
	http    *http.Server
	served  chan error
	url     string
	client  *http.Client
	handler *timedHandler // non-nil when traced
	stopped bool
}

// timedHandler wraps the daemon's handler and sums the time spent in
// it, so a client round trip splits into handler time and wire time.
type timedHandler struct {
	h     http.Handler
	on    atomic.Bool
	ns    atomic.Int64
	calls atomic.Int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.h.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	t.ns.Add(int64(time.Since(t0)))
	t.calls.Add(1)
}

// startDaemon opens a store under tmp and serves a new scan server on
// 127.0.0.1 with default scanner options (query engine, reach gate on).
func startDaemon(tmp string, workers int, traced bool) (*daemon, error) {
	dir, err := os.MkdirTemp(tmp, "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{NoFsync: true})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := server.New(server.Options{Workers: workers, Store: st, StateMaxEntries: stateMaxEntries})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{dir: dir, store: st, srv: srv, served: make(chan error, 1),
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: workers + 1, DisableCompression: true}}}
	d.http = srv.NewHTTPServer("", server.HTTPOptions{})
	if traced {
		d.handler = &timedHandler{h: d.http.Handler}
		d.http.Handler = d.handler
	}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// stop shuts the listener, drains the server, closes the store and
// removes its directory; keep leaves the directory for a reopen. Only
// the first call does anything, so error paths can defer a stop.
func (d *daemon) stop(keep bool) error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Drain()
	d.client.CloseIdleConnections()
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	if !keep {
		os.RemoveAll(d.dir)
	}
	return err
}

// scan posts one op and decodes the response.
func (d *daemon) scan(body []byte) (int, *server.ScanResponse, error) {
	resp, err := d.client.Post(d.url+"/v1/scan", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, nil
	}
	var sr server.ScanResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, &sr, nil
}

// metrics reads GET /v1/metrics.
func (d *daemon) metrics() (*server.MetricsResponse, error) {
	resp, err := d.client.Get(d.url + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m server.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// findingsOf converts a response's findings back to queries.Finding
// identities.
func findingsOf(sr *server.ScanResponse) []queries.Finding {
	fs := make([]queries.Finding, len(sr.Findings))
	for i, f := range sr.Findings {
		fs[i] = queries.Finding{CWE: queries.CWE(f.CWE), SinkName: f.Sink, SinkFile: f.File, SinkLine: f.Line, Source: f.Source}
	}
	return fs
}

// checkOp judges one response against the op's annotations.
func checkOp(op serveOp, status int, sr *server.ScanResponse, err error) ([]queries.Finding, error) {
	if err != nil {
		return nil, fmt.Errorf("%s: %v", op.name, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", op.name, status)
	}
	if sr.Failure != "" || sr.ScanError != "" {
		return nil, fmt.Errorf("%s: scan failed (%s): %s", op.name, sr.Failure, sr.ScanError)
	}
	fs := findingsOf(sr)
	if op.tree != nil {
		return fs, checkTree(op.tree, fs)
	}
	return fs, checkModules(op, fs)
}

// serveSession is one measured stretch of client traffic.
type serveSession struct {
	d       *daemon
	streams []*serveStream
	stats   *opStats
	mu      sync.Mutex // guards acc and cache
	acc     accuracy
	cache   server.IncrStatsJSON // Σ per-op deltas of the responses' counters
	counted int                  // ops whose deltas cache holds
	dig     *digest
	seqs    []int                             // ops sent per client
	last    []map[string]server.IncrStatsJSON // per client: each package's last counters
}

// digestOpsPerClient is how many leading ops of each client's stream
// the finding digest covers.
const digestOpsPerClient = 8

func newServeSession(d *daemon, streams []*serveStream, stats *opStats) *serveSession {
	s := &serveSession{d: d, streams: streams, stats: stats,
		dig: newDigest(len(streams) * digestOpsPerClient), seqs: make([]int, len(streams))}
	for range streams {
		s.last = append(s.last, map[string]server.IncrStatsJSON{})
	}
	return s
}

// countCache adds one response's warm-state counter delta. A response
// carries its package state's cumulative counters, and each package is
// submitted by one client only, so the previous response for the same
// name is the baseline. A package's first response in the session only
// sets the baseline, unless it is first-seen (its state starts at zero).
func (s *serveSession) countCache(c int, op serveOp, cur server.IncrStatsJSON) {
	prev, seen := s.last[c][op.name]
	s.last[c][op.name] = cur
	if !seen && op.kind != "cold" {
		return
	}
	if cur.FrontEndHits+cur.FrontEndMisses < prev.FrontEndHits+prev.FrontEndMisses {
		prev = server.IncrStatsJSON{} // the state was evicted and started over
	}
	s.mu.Lock()
	s.cache.FrontEndHits += cur.FrontEndHits - prev.FrontEndHits
	s.cache.FrontEndMisses += cur.FrontEndMisses - prev.FrontEndMisses
	s.cache.FragmentHits += cur.FragmentHits - prev.FragmentHits
	s.cache.FragmentRebuilds += cur.FragmentRebuilds - prev.FragmentRebuilds
	s.cache.DetectHits += cur.DetectHits - prev.DetectHits
	s.cache.DetectMisses += cur.DetectMisses - prev.DetectMisses
	s.counted++
	s.mu.Unlock()
}

// op sends client c's next request and judges the response; it returns
// the op and its round-trip time.
func (s *serveSession) op(c int) (serveOp, time.Duration) {
	op := s.streams[c].next()
	body, err := json.Marshal(op.req)
	if err != nil {
		panic(err) // the request types always marshal
	}
	t0 := time.Now()
	status, sr, err := s.d.scan(body)
	d := time.Since(t0)
	fs, cerr := checkOp(op, status, sr, err)
	s.stats.record(d, cerr)
	if cerr == nil {
		s.mu.Lock()
		if op.tree != nil {
			s.acc.add(treePackage(op.tree), fs)
		} else {
			in := byFile(fs)
			for i, f := range op.req.Files {
				s.acc.add(op.mods[i], in[f.Rel])
			}
		}
		s.mu.Unlock()
		if sr.Incremental != nil {
			s.countCache(c, op, *sr.Incremental)
		}
	}
	if seq := s.seqs[c]; seq < digestOpsPerClient {
		s.dig.put(c*digestOpsPerClient+seq, op.name, fs)
	}
	s.seqs[c]++
	return op, d
}

// serveSetup generates every client's inputs, starts a daemon and
// seeds every client's packages, so the measured ops start warm. It
// returns the set-up's time in seconds.
func serveSetup(cfg runConfig) (*daemon, []*serveStream, float64, error) {
	t0 := time.Now()
	streams := serveInputs(cfg.seed, cfg.workers, cfg.tiny)
	d, err := startDaemon(cfg.tmp, cfg.workers, cfg.traced)
	if err != nil {
		return nil, nil, 0, err
	}
	errs := make(chan error, len(streams))
	for _, s := range streams {
		go func(s *serveStream) {
			for _, op := range s.warmups() {
				body, _ := json.Marshal(op.req) // the request types always marshal
				status, sr, err := d.scan(body)
				if _, cerr := checkOp(op, status, sr, err); cerr != nil {
					errs <- fmt.Errorf("warm-up: %w", cerr)
					return
				}
			}
			errs <- nil
		}(s)
	}
	for range streams {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		d.stop(false)
		return nil, nil, 0, err
	}
	return d, streams, time.Since(t0).Seconds(), nil
}

// runServe measures serve-edit: clients closed-loop against a live
// in-process graphjsd. Untraced, the run is cfg.rounds rounds, each a
// fresh set-up (new inputs, daemon and store) followed by its share of
// the measured time, so the set-ups sample the machine across the run
// as the measured ops do. Traced, after one set-up, the first third is
// the same client loop (runtime figures, the untraced rate, and the
// daemon's cache counters), and the rest is one client whose every op
// is also replayed outside the daemon: a direct ScanFiles on the
// benchmark's own StatePool, deptree.Build for tree requests, and the
// layer-by-layer replay.
func runServe(cfg runConfig, rec *Record) error {
	rec.Meta.Clients = cfg.workers
	rec.Meta.Workers = cfg.workers
	if !cfg.traced {
		stats := newOpStats(cfg.seed)
		var acc accuracy
		var setup []float64
		var wall time.Duration
		mon := &monitor{}
		for r := 0; r < cfg.rounds; r++ {
			d, streams, secs, err := serveSetup(cfg)
			if err != nil {
				return err
			}
			setup = append(setup, secs)
			if r == 0 {
				mon.setupDone()
			}
			s := newServeSession(d, streams, stats)
			mon.start(rssWindow)
			wall += closedLoop(cfg.workers, cfg.duration/time.Duration(cfg.rounds), func(c int) { s.op(c) })
			mon.stop()
			acc.merge(s.acc)
			if r == 0 {
				s.noteDigest(rec)
			}
			if err := d.stop(false); err != nil {
				return err
			}
		}
		rec.set("setup_s", median(setup))
		rec.note("setup_runs_s", setup)
		mon.report(rec)
		stats.latency(rec, wall)
		finishOps(rec, stats)
		acc.report(rec)
		return nil
	}

	d, streams, secs, err := serveSetup(cfg)
	if err != nil {
		return err
	}
	defer d.stop(false) // on error paths; the run's own stop comes first
	rec.set("setup_s", secs)
	before, err := d.metrics()
	if err != nil {
		return err
	}
	pool := newServeSession(d, streams, newOpStats(cfg.seed))
	m0 := readMem()
	wallA := closedLoop(cfg.workers, cfg.duration/3, func(c int) { pool.op(c) })
	m1 := readMem()
	opsA := pool.stats.attempted.Load()
	setRuntime(rec, m0, m1, opsA)
	rec.set("trace.untraced_ops_per_s", float64(opsA)/wallA.Seconds())
	pool.noteDigest(rec)

	traced := newServeSession(d, streams[:1], newOpStats(cfg.seed))
	ly := newLayers()
	own := scanner.NewStatePool()
	own.SetLimits(stateMaxEntries, 0)
	// Warm the benchmark's own pool with the client's packages as they
	// stand, so the replayed scans are as warm as the daemon's.
	for _, op := range streams[0].warmups() {
		scanner.ScanFiles(sourceFiles(op), op.name, scanner.Options{Tree: op.req.Tree, Incremental: own.Get(op.name)})
	}
	var scanNs, rttNs, treeNs time.Duration
	var treeOps int
	var replayErr error
	d.handler.on.Store(true)
	wallB := closedLoop(1, cfg.duration-wallA, func(int) {
		op, rtt := traced.op(0)
		rttNs += rtt
		files := sourceFiles(op)
		opts := scanner.Options{Tree: op.req.Tree, Incremental: own.Get(op.name)}
		t0 := time.Now()
		scanner.ScanFiles(files, op.name, opts)
		scanNs += time.Since(t0)
		flat := files
		if op.tree != nil {
			fmap := make(map[string]string, len(files))
			for _, f := range files {
				fmap[f.Rel] = f.Src
			}
			t1 := time.Now()
			deptree.Build(fmap)
			treeNs += time.Since(t1)
			treeOps++
			flat = flattened(op.tree, files)
		}
		if err := ly.replay(op.name, flat, false); err != nil && replayErr == nil {
			replayErr = err
		}
	})
	d.handler.on.Store(false)
	if replayErr != nil {
		return replayErr
	}
	opsB := traced.stats.attempted.Load()
	nB := float64(max(opsB, 1))
	ly.report(rec)
	handlerMs := float64(d.handler.ns.Load()) / 1e6 / float64(max(d.handler.calls.Load(), 1))
	scanMs := float64(scanNs) / 1e6 / nB
	rec.set("scanner.scan_ms", scanMs)
	rec.set("server.handler_ms", handlerMs)
	rec.set("server.overhead_ms", handlerMs-scanMs)
	rec.set("server.wire_ms", float64(rttNs)/1e6/nB-handlerMs)
	rec.set("deptree.ms", float64(treeNs)/1e6/float64(max(treeOps, 1)))
	rec.set("trace.ops_per_s", float64(opsB)/wallB.Seconds())
	rec.set("pool.utilization", 0) // the daemon serves scans without the metrics sweep pool

	after, err := d.metrics()
	if err != nil {
		return err
	}
	ops := float64(opsA + opsB)
	var cc server.IncrStatsJSON
	for _, s := range []*serveSession{pool, traced} {
		cc.FrontEndHits += s.cache.FrontEndHits
		cc.FrontEndMisses += s.cache.FrontEndMisses
		cc.FragmentHits += s.cache.FragmentHits
		cc.FragmentRebuilds += s.cache.FragmentRebuilds
		cc.DetectHits += s.cache.DetectHits
		cc.DetectMisses += s.cache.DetectMisses
	}
	hit := func(h, m int) float64 { return ratio(float64(h), float64(h+m)) }
	rec.set("scanner.frontend_hit_ratio", hit(cc.FrontEndHits, cc.FrontEndMisses))
	rec.set("scanner.fragment_hit_ratio", hit(cc.FragmentHits, cc.FragmentRebuilds))
	rec.set("scanner.detect_hit_ratio", hit(cc.DetectHits, cc.DetectMisses))
	rec.set("scanner.rebuilds_per_op", ratio(float64(cc.FragmentRebuilds), float64(pool.counted+traced.counted)))
	rec.note("cache_counted_ops", pool.counted+traced.counted)
	rec.set("server.rejected", float64(after.Rejected-before.Rejected))
	if before.Store != nil && after.Store != nil {
		bs, as := before.Store, after.Store
		rec.set("store.hit_ratio", ratio(float64(as.Hits-bs.Hits), float64(as.Gets-bs.Gets)))
		rec.set("store.puts_per_op", float64(as.Puts-bs.Puts)/ops)
		rec.set("store.log_kb", float64(as.Bytes-bs.Bytes)/1024/ops)
	}

	// Reopen the grown store, as a restarted daemon would.
	if err := d.stop(true); err != nil {
		return err
	}
	defer os.RemoveAll(d.dir)
	var opens []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		st, err := store.Open(d.dir, store.Options{NoFsync: true})
		if err != nil {
			return err
		}
		opens = append(opens, float64(time.Since(t0))/1e6)
		if err := st.Close(); err != nil {
			return err
		}
	}
	rec.set("store.open_ms", median(opens))

	finishOps(rec, pool.stats, traced.stats)
	pool.acc.merge(traced.acc)
	pool.acc.report(rec)
	return nil
}

// sourceFiles is a request's file set in the scanner's form.
func sourceFiles(op serveOp) []scanner.SourceFile {
	files := make([]scanner.SourceFile, len(op.req.Files))
	for i, f := range op.req.Files {
		files[i] = scanner.SourceFile{Rel: f.Rel, Src: f.Src}
	}
	return files
}

// flattened rewrites a tree request into the equivalent flat package
// (dataset.FlattenTree), which the layer replay can run.
func flattened(tc *dataset.TreeCase, files []scanner.SourceFile) []scanner.SourceFile {
	c := dataset.TreeCase{Name: tc.Name}
	for _, f := range files {
		c.Files = append(c.Files, dataset.TreeFile{Rel: f.Rel, Src: f.Src})
	}
	flat := dataset.FlattenTree(c)
	out := make([]scanner.SourceFile, len(flat))
	for i, f := range flat {
		out[i] = scanner.SourceFile{Rel: f.Rel, Src: f.Src}
	}
	return out
}

func (s *serveSession) noteDigest(rec *Record) {
	sum, n := s.dig.sum()
	rec.note("findings_digest", sum)
	rec.note("findings_digest_ops", n)
}
