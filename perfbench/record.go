package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// schema tags every result row this benchmark writes (runs and imported
// legacy rows alike), so a comparator can refuse rows it does not know.
const schema = "graphjs-bench/1"

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric: its unit and which direction is better.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the scanner sees, reported by every
// untraced run (BENCHMARK.json end_to_end). error_rate is reported in
// the full record and carried by the contract line's attempted/failed
// pair; it is 0 on a correct program, so it is not a bounded metric.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p95_ms", "ms", "lower"},
	{"recall", "ratio", "higher"},
	{"precision", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports (BENCHMARK.json
// per_layer). A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"parser.ms", "ms", "lower"},
	{"parser.alloc_kb", "KB", "lower"},
	{"normalize.ms", "ms", "lower"},
	{"normalize.alloc_kb", "KB", "lower"},
	{"cfg.ms", "ms", "lower"},
	{"reach.ms", "ms", "lower"},
	{"reach.alloc_kb", "KB", "lower"},
	{"reach.skip_ratio", "ratio", "higher"},
	{"analysis.ms", "ms", "lower"},
	{"analysis.alloc_kb", "KB", "lower"},
	{"analysis.mdg_nodes", "count", "lower"},
	{"analysis.mdg_edges", "count", "lower"},
	{"detect.ms", "ms", "lower"},
	{"detect.load_ms", "ms", "lower"},
	{"detect.alloc_kb", "KB", "lower"},
	{"pool.utilization", "ratio", "higher"},
	{"scanner.scan_ms", "ms", "lower"},
	{"scanner.frontend_hit_ratio", "ratio", "higher"},
	{"scanner.fragment_hit_ratio", "ratio", "higher"},
	{"scanner.detect_hit_ratio", "ratio", "higher"},
	{"scanner.rebuilds_per_op", "count", "lower"},
	{"store.hit_ratio", "ratio", "higher"},
	{"store.puts_per_op", "count", "lower"},
	{"store.log_kb", "KB", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"deptree.ms", "ms", "lower"},
	{"server.handler_ms", "ms", "lower"},
	{"server.overhead_ms", "ms", "lower"},
	{"server.wire_ms", "ms", "lower"},
	{"server.rejected", "count", "lower"},
	{"runtime.alloc_kb", "KB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"trace.ops_per_s", "ops/s", "higher"},
	{"trace.untraced_ops_per_s", "ops/s", "higher"},
}

// extraMetrics are reported in the full record only.
var extraMetrics = []metricDef{
	{"error_rate", "ratio", "lower"},
}

// metricDefs indexes every metric this benchmark knows by name.
func metricDefs() map[string]metricDef {
	m := map[string]metricDef{}
	for _, list := range [][]metricDef{endToEnd, perLayer, extraMetrics} {
		for _, d := range list {
			m[d.name] = d
		}
	}
	return m
}

// Meta describes the conditions a row was measured under.
type Meta struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GOGC       string  `json:"gogc"`
	Seed       int64   `json:"seed"`
	Engine     string  `json:"engine"`
	Workers    int     `json:"workers"`
	Clients    int     `json:"clients"`
	Traced     bool    `json:"traced"`
	Seconds    float64 `json:"seconds"`
	// Legacy rows only: the imported file, benchmark name, snapshot
	// time and iteration count.
	Source     string `json:"source,omitempty"`
	Benchmark  string `json:"benchmark,omitempty"`
	Time       string `json:"time,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
}

// Record is one result row: a run of one workload, or an imported
// legacy snapshot row.
type Record struct {
	Schema    string            `json:"schema"`
	Label     string            `json:"label"`
	Workload  string            `json:"workload"`
	Meta      Meta              `json:"meta"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	Notes     map[string]any    `json:"notes,omitempty"`
}

// set records a metric under its declared unit.
func (r *Record) set(name string, v float64) {
	d, ok := metricDefs()[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	if r.Metrics == nil {
		r.Metrics = map[string]Metric{}
	}
	r.Metrics[name] = Metric{Value: v, Unit: d.unit}
}

func (r *Record) note(key string, v any) {
	if r.Notes == nil {
		r.Notes = map[string]any{}
	}
	r.Notes[key] = v
}

// contractLine is the last line of a run's standard output: exactly the
// keys correct, attempted, failed and metrics, where metrics holds the
// end-to-end set (untraced) or the per-layer set (traced).
func (r *Record) contractLine() ([]byte, error) {
	defs := endToEnd
	if r.Meta.Traced {
		defs = perLayer
	}
	ms := make(map[string]Metric, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s missing", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		ms[d.name] = m
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

// writeRecord prints the full record and then the contract line.
func writeRecord(w io.Writer, r *Record) error {
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	line, err := r.contractLine()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, line)
	return err
}

// appendRecord appends the full record as one JSON line to path.
func appendRecord(path string, r *Record) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runMeta fills the machine and toolchain half of a run's metadata.
func runMeta(seed int64, traced bool, seconds float64) Meta {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return Meta{
		Commit:     commit(),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GOGC:       gogc,
		Seed:       seed,
		Traced:     traced,
		Seconds:    seconds,
	}
}

// commit is the VCS revision stamped into the binary by the go command,
// or "unknown" when it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
