// Package server implements graphjsd, the long-lived scan service: an
// HTTP/JSON daemon that serves concurrent vulnerability scans from one
// static binary. It is the service-shaped assembly of every library
// layer underneath it — the bounded worker-pool semantics of
// scanner.Options.Workers become a global admission-controlled slot
// pool, per-scan budget.Budget allowances are drawn from server-level
// defaults and clamped to server-level ceilings, a process-wide
// scanner.StatePool keeps incremental MDG fragments warm across
// requests (re-submitting an edited package re-analyzes only the
// changed require-components), and supervised corpus sweeps run
// journal-backed through internal/sweepjournal so they resume after a
// restart.
//
// Endpoints (request/response schemas in api.go, reference with curl
// examples in docs/API.md, tuning guidance in docs/OPERATIONS.md):
//
//	POST /v1/scan    scan inline source or an uploaded file set
//	POST /v1/sweep   supervised sweep over a corpus directory on disk
//	GET  /v1/status  worker-pool and warm-state liveness snapshot
//	GET  /v1/metrics status plus failure-class and cache counters
//
// Admission control is a two-stage token scheme: a request first takes
// a queue token (capacity Workers+QueueDepth; none free → 429 with
// Retry-After) and then blocks for one of Workers run slots, so at
// most Workers scans execute concurrently and at most QueueDepth wait.
// Every scan runs behind the scanner's budget.Guard panic fences plus
// a handler-level fence, so a crashing request returns a structured
// 500 instead of killing the daemon. Drain stops admission (503) and
// waits for in-flight work — including journal flushes — to finish.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/queries"
	"repro/internal/scanner"
	"repro/internal/store"
)

// Options configures a Server. The zero value is usable: GOMAXPROCS
// workers, a 2×workers admission queue, the native engine, a 5-minute
// default and ceiling timeout, and unlimited step/size caps.
type Options struct {
	// Workers bounds the number of concurrently executing scans (the
	// global worker pool). 0 = runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a run
	// slot before admission control starts shedding with 429.
	// 0 = 2×Workers; negative = no waiting room (shed immediately when
	// all slots are busy).
	QueueDepth int
	// RetryAfter is the Retry-After hint attached to 429 responses
	// (0 = 1s).
	RetryAfter time.Duration

	// Engine is the default detection backend ("" = native).
	Engine scanner.Engine
	// Config is the sink configuration shared by every scan
	// (nil = queries.DefaultConfig()).
	Config *queries.Config

	// DefaultTimeout is the per-request wall-clock budget when the
	// request does not ask for one (0 = 5m). MaxTimeout is the ceiling
	// a request may ask up to (0 = DefaultTimeout).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DefaultSteps/Nodes/Edges are the per-request caps when the
	// request does not ask (0 = unlimited). MaxSteps/Nodes/Edges are
	// the ceilings requests are clamped to (0 = unlimited).
	DefaultSteps, DefaultNodes, DefaultEdges int
	MaxSteps, MaxNodes, MaxEdges             int

	// NoWarmState disables the process-wide incremental StatePool:
	// every scan is cold. Useful for memory-constrained replicas.
	NoWarmState bool
	// StateMaxEntries/StateMaxBytes bound the StatePool: when either
	// cap is exceeded the least-recently-used package states are
	// evicted (0 = unbounded). Evicted packages re-scan cold — or
	// store-warm when a Store is attached.
	StateMaxEntries int
	StateMaxBytes   int64

	// Store, when non-nil, is the persistent on-disk cache behind
	// -cache-dir: warm state survives restarts, and sweeps may compact
	// their journals into it. The caller owns it (opens before New,
	// closes after Drain).
	Store *store.Store
	// NoFsync disables per-append journal fsync for sweeps
	// (benchmarks; a crash may lose acknowledged journal entries).
	NoFsync bool

	// BreakerStrikes is how many consecutive panic/timeout outcomes a
	// content hash accrues before the offender breaker quarantines it
	// (0 = 3; negative disables the offender ledger). BreakerCooldown
	// is the quarantine window before a half-open probe (0 = 30s).
	BreakerStrikes  int
	BreakerCooldown time.Duration
	// DegradedCooldown is how long the daemon stays degraded after the
	// last substrate fault signal before healing to healthy (0 = 30s).
	DegradedCooldown time.Duration
}

// withDefaults resolves the zero values documented on Options.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 2 * o.Workers
	}
	if o.QueueDepth < 0 {
		o.QueueDepth = 0
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.Engine == "" {
		o.Engine = scanner.EngineNative
	}
	if o.Config == nil {
		o.Config = queries.DefaultConfig()
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 5 * time.Minute
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = o.DefaultTimeout
	}
	if o.DefaultTimeout > o.MaxTimeout {
		o.DefaultTimeout = o.MaxTimeout
	}
	clampDefault := func(def *int, max int) {
		if max > 0 && (*def <= 0 || *def > max) {
			*def = max
		}
	}
	clampDefault(&o.DefaultSteps, o.MaxSteps)
	clampDefault(&o.DefaultNodes, o.MaxNodes)
	clampDefault(&o.DefaultEdges, o.MaxEdges)
	if o.DegradedCooldown <= 0 {
		o.DegradedCooldown = 30 * time.Second
	}
	return o
}

// Server is the graphjsd daemon state: the HTTP mux, the admission
// token pools, the process-wide warm StatePool, and the lifetime
// counters served by /v1/status and /v1/metrics. Create with New; all
// methods are safe for concurrent use.
type Server struct {
	opts Options
	mux  *http.ServeMux
	pool *scanner.StatePool

	// queue admits requests (capacity Workers+QueueDepth); slots runs
	// them (capacity Workers). Both are token semaphores.
	queue chan struct{}
	slots chan struct{}

	start time.Time

	scans    atomic.Int64
	sweeps   atomic.Int64
	rejected atomic.Int64

	// mu guards the drain state, the in-flight count, the failure
	// counters, and the health machine; idle is signalled when the
	// in-flight count reaches zero (what Drain waits on).
	mu       sync.Mutex
	idle     *sync.Cond
	draining bool
	inflight int
	failures map[string]int64

	// Health state machine (health.go). The last* fields snapshot the
	// substrate counters so observeHealth reacts to deltas, not
	// lifetime totals.
	health                           string
	healthReason                     string
	transitions                      map[string]int64
	degradedUntil                    time.Time
	lastWriteErrors, lastQuarantined int64
	lastEvictedBytes                 int64
	canceled                         atomic.Int64

	// Offender circuit breaker (breaker.go); nil when disabled.
	offenders *offenderLedger

	// now is the clock, injectable so breaker/degraded cooldown tests
	// don't sleep.
	now func() time.Time
}

// testHookScanning, when non-nil, runs while a scan request holds its
// run slot, before the scan executes, with the request's context.
// Admission-control tests use it to pin workers, and cancellation
// tests use ctx to wait until the server has observed a client
// disconnect; it must only be set while no requests are in flight.
var testHookScanning func(name string, ctx context.Context)

// New builds a Server (resolving option defaults) without binding a
// listener; the caller serves s.Handler() however it likes.
func New(opts Options) *Server {
	o := opts.withDefaults()
	s := &Server{
		opts:        o,
		mux:         http.NewServeMux(),
		queue:       make(chan struct{}, o.Workers+o.QueueDepth),
		slots:       make(chan struct{}, o.Workers),
		start:       time.Now(),
		failures:    map[string]int64{},
		health:      HealthHealthy,
		transitions: map[string]int64{},
		offenders:   newOffenderLedger(o.BreakerStrikes, o.BreakerCooldown),
		now:         time.Now,
	}
	s.idle = sync.NewCond(&s.mu)
	if !o.NoWarmState {
		s.pool = scanner.NewStatePool()
		s.pool.SetLimits(o.StateMaxEntries, o.StateMaxBytes)
		if o.Store != nil {
			s.pool.AttachStore(o.Store)
		}
	}
	s.mux.HandleFunc("/v1/scan", s.handleScan)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/status", s.handleStatus)
	s.mux.HandleFunc("/v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/", handleNotFound)
	return s
}

// handleNotFound answers every unregistered path with the error
// envelope, not the stdlib plain-text 404.
func handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("no route %s", r.URL.Path))
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admitting new work (subsequent requests get 503
// shutting_down) and blocks until every in-flight request has
// finished — scans completed, sweep journals flushed and closed. It is
// the graceful-shutdown half the SIGTERM handler in cmd/graphjsd runs
// after closing the listener.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.setHealthLocked(HealthDraining, "drain requested")
	for s.inflight > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// admit implements admission control for scan-like work: it rejects
// drain-mode requests with 503, sheds with 429 + Retry-After when the
// queue is full, then blocks for a run slot — racing the slot wait
// against the request context so a client that disconnects while
// queued gives its place back immediately (answered 499, never
// occupying a slot it will not read the response of). On success the
// caller must call the returned release function exactly once.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, CodeShuttingDown, "server is draining")
		return nil, false
	}
	select {
	case s.queue <- struct{}{}:
		s.inflight++
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.rejected.Add(1)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.opts.RetryAfter.Seconds()+0.999)))
		writeError(w, http.StatusTooManyRequests, CodeOverloaded,
			fmt.Sprintf("worker pool saturated (capacity %d running + %d queued); retry later",
				cap(s.slots), cap(s.queue)-cap(s.slots)))
		return nil, false
	}
	releaseQueue := func() {
		<-s.queue
		s.mu.Lock()
		s.inflight--
		if s.inflight == 0 {
			s.idle.Broadcast()
		}
		s.mu.Unlock()
	}
	select {
	case s.slots <- struct{}{}:
	case <-r.Context().Done():
		releaseQueue()
		s.canceled.Add(1)
		s.recordFailure(budget.ClassCanceled)
		writeError(w, StatusClientClosedRequest, CodeCanceled,
			"request canceled while waiting for a run slot")
		return nil, false
	}
	return func() {
		<-s.slots
		releaseQueue()
	}, true
}

// recordFailure counts one terminal scan outcome for /v1/metrics
// ("ok" for clean scans).
func (s *Server) recordFailure(class budget.Class) {
	key := "ok"
	if class != budget.ClassNone {
		key = class.String()
	}
	s.mu.Lock()
	s.failures[key]++
	s.mu.Unlock()
}

// state returns the incremental state for a named package, or nil when
// warm state is disabled, the request asked for a cold scan, the
// package is anonymous, or the daemon is degraded (degraded mode
// serves cold scans only — correct results without leaning on the
// sick warm-state substrate).
func (s *Server) state(name string, cold bool) *scanner.IncrementalState {
	if s.pool == nil || cold || name == "" || s.degraded() {
		return nil
	}
	return s.pool.Get(name)
}

// writeJSON writes v as the response body, compact, with the given
// status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the error envelope every non-2xx response uses.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	var e ErrorJSON
	e.Error.Code = code
	e.Error.Message = msg
	writeJSON(w, status, e)
}

// requireMethod enforces the route's verb, answering 405 otherwise.
func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeError(w, http.StatusMethodNotAllowed, CodeMethod,
			fmt.Sprintf("%s requires %s", r.URL.Path, method))
		return false
	}
	return true
}
