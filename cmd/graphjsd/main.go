// Command graphjsd runs the MDG vulnerability scanner as a long-lived
// HTTP/JSON service: concurrent scans from one static binary, with
// admission control, warm incremental state shared across requests,
// and journal-backed resumable corpus sweeps (a sweep's journal is a
// store directory the request names; it must not be -cache-dir).
//
// See docs/API.md for the endpoint reference and docs/OPERATIONS.md
// for deployment and tuning guidance.
//
// Usage:
//
//	graphjsd [flags]
//
// Flags:
//
//	-addr string      listen address (default "127.0.0.1:8044")
//	-workers int      concurrent scan slots (default GOMAXPROCS)
//	-queue int        admitted requests that may wait for a slot
//	                  (default 2×workers; negative = shed immediately)
//	-retry-after dur  Retry-After hint on 429 responses (default 1s)
//	-engine string    default detection engine (default "native")
//	-timeout dur      default per-request scan timeout (default 5m)
//	-max-timeout dur  ceiling a request may raise its timeout to
//	-steps/-nodes/-edges int          default per-request budget caps
//	-max-steps/-max-nodes/-max-edges  ceilings requests are clamped to
//	-no-warm-state    disable the process-wide incremental StatePool
//	-state-max-entries int  LRU-evict warm state beyond this many packages
//	-state-max-bytes int    LRU-evict warm state beyond this estimated size
//	-cache-dir string       persistent analysis store directory: warm state
//	                        survives restarts; replicas may share it
//	                        read-only (see docs/OPERATIONS.md)
//	-cache-read-only        open -cache-dir as a lock-free read-only replica
//	-no-fsync               skip journal/store fsyncs (benchmarks only)
//
// Transport hardening (negative duration / size disables; see
// docs/OPERATIONS.md for tuning):
//
//	-read-header-timeout dur  close clients that dribble headers
//	                          (slowloris defense; default 10s)
//	-read-timeout dur         full-request read bound (default 2m)
//	-write-timeout dur        response write bound (default
//	                          max-timeout+30s; sweeps exempt themselves)
//	-idle-timeout dur         keep-alive idle bound (default 2m)
//	-max-header-bytes int     request header cap (default 64 KiB)
//
// Resilience (see docs/OPERATIONS.md for the runbook):
//
//	-breaker-strikes int    panic/timeout strikes before a content hash
//	                        is quarantined (default 3; negative disables)
//	-breaker-cooldown dur   quarantine window before a half-open probe
//	                        (default 30s)
//	-degraded-cooldown dur  how long degraded mode lingers after the
//	                        last substrate fault (default 30s)
//
// SIGINT/SIGTERM stop the listener, drain in-flight scans (new
// requests get 503), close sweep journals, sync and close the store,
// and exit 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/scanner"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8044", "listen address")
		workers    = flag.Int("workers", 0, "concurrent scan slots (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "admission queue depth (0 = 2x workers, negative = none)")
		retryAfter = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		engine     = flag.String("engine", "native", "default engine: native, query, differential")
		timeout    = flag.Duration("timeout", 5*time.Minute, "default per-request scan timeout")
		maxTimeout = flag.Duration("max-timeout", 0, "ceiling for per-request timeouts (0 = default timeout)")
		steps      = flag.Int("steps", 0, "default per-request abstract-interpretation step cap (0 = unlimited)")
		nodes      = flag.Int("nodes", 0, "default per-request MDG node cap (0 = unlimited)")
		edges      = flag.Int("edges", 0, "default per-request MDG edge cap (0 = unlimited)")
		maxSteps   = flag.Int("max-steps", 0, "ceiling for per-request step caps (0 = unlimited)")
		maxNodes   = flag.Int("max-nodes", 0, "ceiling for per-request node caps (0 = unlimited)")
		maxEdges   = flag.Int("max-edges", 0, "ceiling for per-request edge caps (0 = unlimited)")
		noWarm     = flag.Bool("no-warm-state", false, "disable the process-wide incremental StatePool")
		stateMax   = flag.Int("state-max-entries", 0, "LRU cap on warm StatePool packages (0 = unbounded)")
		stateBytes = flag.Int64("state-max-bytes", 0, "LRU cap on estimated warm StatePool bytes (0 = unbounded)")
		cacheDir   = flag.String("cache-dir", "", "persistent analysis store directory (empty = memory-only)")
		cacheRO    = flag.Bool("cache-read-only", false, "open -cache-dir as a read-only replica (no writer lock)")
		noFsync    = flag.Bool("no-fsync", false, "skip journal/store fsyncs (benchmarks only; crash may lose cache entries)")

		readHeaderTimeout = flag.Duration("read-header-timeout", 0, "bound on reading request headers (0 = 10s; negative disables)")
		readTimeout       = flag.Duration("read-timeout", 0, "bound on reading the full request (0 = 2m; negative disables)")
		writeTimeout      = flag.Duration("write-timeout", 0, "bound on writing the response (0 = max-timeout+30s; negative disables)")
		idleTimeout       = flag.Duration("idle-timeout", 0, "bound on idle keep-alive connections (0 = 2m; negative disables)")
		maxHeaderBytes    = flag.Int("max-header-bytes", 0, "request header size cap (0 = 64 KiB; negative = stdlib default)")

		breakerStrikes   = flag.Int("breaker-strikes", 0, "panic/timeout strikes before content is quarantined (0 = 3; negative disables)")
		breakerCooldown  = flag.Duration("breaker-cooldown", 0, "quarantine window before a half-open probe (0 = 30s)")
		degradedCooldown = flag.Duration("degraded-cooldown", 0, "degraded-mode linger after the last substrate fault (0 = 30s)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "graphjsd: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	eng, err := scanner.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphjsd: %v\n", err)
		os.Exit(2)
	}
	var st *store.Store
	if *cacheDir != "" {
		st, err = store.Open(*cacheDir, store.Options{ReadOnly: *cacheRO, NoFsync: *noFsync})
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphjsd: open cache %s: %v\n", *cacheDir, err)
			os.Exit(2)
		}
		ss := st.Stats()
		log.Printf("graphjsd: cache %s: %d entries, %d bytes (read-only=%v)",
			*cacheDir, ss.Entries, ss.Bytes, *cacheRO)
	}

	srv := server.New(server.Options{
		Workers:         *workers,
		QueueDepth:      *queue,
		RetryAfter:      *retryAfter,
		Engine:          eng,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		DefaultSteps:    *steps,
		DefaultNodes:    *nodes,
		DefaultEdges:    *edges,
		MaxSteps:        *maxSteps,
		MaxNodes:        *maxNodes,
		MaxEdges:        *maxEdges,
		NoWarmState:     *noWarm,
		StateMaxEntries: *stateMax,
		StateMaxBytes:   *stateBytes,
		Store:           st,
		NoFsync:         *noFsync,

		BreakerStrikes:   *breakerStrikes,
		BreakerCooldown:  *breakerCooldown,
		DegradedCooldown: *degradedCooldown,
	})
	httpSrv := srv.NewHTTPServer(*addr, server.HTTPOptions{
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeaderBytes,
	})

	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		defer close(done)
		got := <-sig
		log.Printf("graphjsd: %s: stopping listener, draining in-flight scans", got)
		// Shutdown stops accepting connections and waits for active
		// handlers; Drain additionally blocks admission so requests
		// racing the shutdown get a clean 503 instead of a reset.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancel()
		srv.Drain()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("graphjsd: shutdown: %v", err)
		}
		// In-flight work is done; a final sync-and-close makes every
		// cached analysis durable for the next warm restart.
		if st != nil {
			if err := st.Close(); err != nil {
				log.Printf("graphjsd: close cache: %v", err)
			}
		}
		log.Printf("graphjsd: drained, exiting")
	}()

	log.Printf("graphjsd: listening on %s", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("graphjsd: %v", err)
	}
	<-done
}
