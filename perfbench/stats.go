package main

import (
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// reservoirSize bounds the latency samples a run keeps. The buffer is
// allocated and touched before timing starts, so its memory is the
// same however many ops a run completes and peak RSS does not grow
// with throughput.
const reservoirSize = 1 << 16

// reservoir keeps a uniform random sample of op latencies (Algorithm R
// with a seeded generator); every kept value is an exact measurement.
type reservoir struct {
	mu   sync.Mutex
	buf  []float64
	seen int64
	rng  *rand.Rand
}

func newReservoir(seed int64) *reservoir {
	buf := make([]float64, reservoirSize)
	for i := range buf {
		buf[i] = -1 // touch every page now
	}
	return &reservoir{buf: buf[:0], rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(ms float64) {
	r.mu.Lock()
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ms)
	} else if j := r.rng.Int63n(r.seen); j < int64(len(r.buf)) {
		r.buf[j] = ms
	}
	r.mu.Unlock()
}

// sorted returns a sorted copy of the kept samples.
func (r *reservoir) sorted() []float64 {
	r.mu.Lock()
	out := append([]float64(nil), r.buf...)
	r.mu.Unlock()
	sort.Float64s(out)
	return out
}

// percentile interpolates linearly between the closest ranks of sorted
// samples (p in [0,1]).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median of an unsorted slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// opStats accumulates the outcome of a workload's ops across workers.
type opStats struct {
	attempted, failed atomic.Int64
	lat               *reservoir

	mu       sync.Mutex
	failures []string // the first few failure descriptions
}

func newOpStats(seed int64) *opStats { return &opStats{lat: newReservoir(seed)} }

// record counts one op of duration d; err non-nil marks it failed.
func (s *opStats) record(d time.Duration, err error) {
	s.attempted.Add(1)
	s.lat.add(float64(d) / 1e6)
	if err != nil {
		s.failed.Add(1)
		s.mu.Lock()
		if len(s.failures) < 5 {
			s.failures = append(s.failures, err.Error())
		}
		s.mu.Unlock()
	}
}

// latency reports the end-to-end op metrics and notes the sample
// counts behind the percentiles.
func (s *opStats) latency(rec *Record, wall time.Duration) {
	samples := s.lat.sorted()
	p95 := percentile(samples, 0.95)
	beyond := 0
	for _, v := range samples {
		if v > p95 {
			beyond++
		}
	}
	rec.set("ops_per_s", float64(s.attempted.Load())/wall.Seconds())
	rec.set("op_p50_ms", percentile(samples, 0.5))
	rec.set("op_p95_ms", p95)
	rec.note("op_samples", len(samples))
	rec.note("op_samples_beyond_p95", beyond)
	rec.note("measured_s", wall.Seconds())
}

// finishOps sets the record's op counts from every phase of a run:
// every op of a run, traced or not, counts toward its correctness.
func finishOps(rec *Record, phases ...*opStats) {
	var failures []string
	rec.Attempted, rec.Failed = 0, 0
	for _, s := range phases {
		rec.Attempted += s.attempted.Load()
		rec.Failed += s.failed.Load()
		failures = append(failures, s.failures...)
	}
	rec.set("error_rate", ratio(float64(rec.Failed), float64(rec.Attempted)))
	if len(failures) > 0 {
		rec.note("first_failures", failures)
	}
}

// closedLoop runs fn on each of workers goroutines, each calling it
// again as soon as the previous call returns, until d has elapsed; it
// waits for every in-flight call and returns the wall time.
func closedLoop(workers int, d time.Duration, fn func(worker int)) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				fn(w)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// memSnap is the part of runtime.MemStats the benchmark reads.
type memSnap struct {
	alloc   uint64
	numGC   uint32
	pauseNs uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{alloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// setRuntime reports per-op allocation and GC figures between two
// snapshots.
func setRuntime(rec *Record, m0, m1 memSnap, ops int64) {
	n := float64(max(ops, 1))
	rec.set("runtime.alloc_kb", float64(m1.alloc-m0.alloc)/1024/n)
	rec.set("runtime.gc_cycles", float64(m1.numGC-m0.numGC)/n)
	rec.set("runtime.gc_pause_ms", float64(m1.pauseNs-m0.pauseNs)/1e6/n)
}

// monitor watches the process's memory while an untraced run
// measures.
//
// The process's peak resident set size at the end of the run's first
// set-up is the set-up's memory (setup_rss_mb). While the run measures,
// the monitor samples the peak over consecutive windows: after each
// reading it resets the kernel's high-water mark (writing 5 to
// /proc/self/clear_refs), so each window reports the peak reached
// within it. A whole-run maximum is one extreme value and swings with
// how often heavy ops happen to overlap; the median window peak is the
// steady working set (peak_rss_mb). Set-ups between measured stretches
// are not sampled.
type monitor struct {
	setup      float64
	peaks      []float64
	quit, done chan struct{}
}

// setupDone records the set-up's memory.
func (m *monitor) setupDone() { m.setup = peakRSSMB() }

// start begins sampling windows of length every.
func (m *monitor) start(every time.Duration) {
	if !resetPeakRSS() {
		return
	}
	m.quit, m.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(m.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-m.quit:
				return
			case <-t.C:
				m.peaks = append(m.peaks, peakRSSMB())
				resetPeakRSS()
			}
		}
	}()
}

// stop ends sampling and waits for the sampler to exit.
func (m *monitor) stop() {
	if m.quit == nil {
		return
	}
	close(m.quit)
	<-m.done
	m.quit = nil
}

// report sets setup_rss_mb and peak_rss_mb: the median window peak, or
// the whole-process peak where windows are unavailable.
func (m *monitor) report(rec *Record) {
	rec.set("setup_rss_mb", m.setup)
	if len(m.peaks) == 0 {
		rec.set("peak_rss_mb", peakRSSMB())
		rec.note("peak_rss_windows", 0)
		return
	}
	rec.set("peak_rss_mb", median(m.peaks))
	rec.note("peak_rss_windows", len(m.peaks))
	rec.note("peak_rss_max_window_mb", slices.Max(m.peaks))
}

// resetPeakRSS resets the process's RSS high-water mark (Linux ≥ 4.0).
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
