package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// legacyFiles are the one-off snapshot files the repository recorded
// before this benchmark existed. The importer only reads them.
var legacyFiles = []string{
	"BENCH_deps.json", "BENCH_faults.json", "BENCH_incremental.json",
	"BENCH_parallel.json", "BENCH_reach.json", "BENCH_resilience.json",
	"BENCH_resume.json", "BENCH_serve.json", "BENCH_store.json",
}

// legacyRow is one line of a legacy snapshot file (cmd/benchjson).
type legacyRow struct {
	Time       string             `json:"time"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Benchmark  string             `json:"benchmark"`
	Iterations int                `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics"`
}

// legacyMain converts the latest snapshot of every legacy file under
// --root into result records labelled "legacy", written as JSONL to
// --out (stdout when empty).
func legacyMain(args []string) int {
	fs := flag.NewFlagSet("perfbench legacy", flag.ContinueOnError)
	root := fs.String("root", "..", "directory holding the BENCH_*.json files")
	out := fs.String("out", "", "output JSONL file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	data, err := importLegacy(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench legacy: %v\n", err)
		return 1
	}
	if *out == "" {
		os.Stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench legacy: %v\n", err)
		return 1
	}
	return 0
}

// importLegacy renders the latest snapshot of each legacy file — every
// row sharing the file's last timestamp — as JSONL records.
func importLegacy(root string) ([]byte, error) {
	var buf bytes.Buffer
	for _, name := range legacyFiles {
		rows, err := readLegacy(filepath.Join(root, name))
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			return nil, fmt.Errorf("%s: no rows", name)
		}
		latest := rows[len(rows)-1].Time
		for _, row := range rows {
			if row.Time != latest {
				continue
			}
			data, err := json.Marshal(legacyRecord(name, row))
			if err != nil {
				return nil, err
			}
			buf.Write(append(data, '\n'))
		}
	}
	return buf.Bytes(), nil
}

func readLegacy(path string) ([]legacyRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []legacyRow
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var r legacyRow
		if err := json.Unmarshal([]byte(text), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rows = append(rows, r)
	}
	return rows, sc.Err()
}

// legacyRecord converts one row. Legacy rows carry no commit, core
// count, seed or per-op correctness check, so those stay unset and
// correct is false ("not checked").
func legacyRecord(file string, row legacyRow) Record {
	rec := Record{
		Schema:   schema,
		Label:    "legacy",
		Workload: "legacy/" + row.Benchmark,
		Meta: Meta{Commit: "unknown", GOMAXPROCS: row.GOMAXPROCS, GOGC: "unknown", Engine: "query",
			Source: file, Benchmark: row.Benchmark, Time: row.Time, Iterations: row.Iterations},
		Attempted: int64(row.Iterations),
		Metrics:   map[string]Metric{"ns_per_op": {Value: row.NsPerOp, Unit: "ns"}},
		Notes:     map[string]any{"correctness": "not recorded by the legacy harness"},
	}
	for name, v := range row.Metrics {
		rec.Metrics[name] = Metric{Value: v, Unit: legacyUnit(name)}
	}
	return rec
}

// legacyUnit infers a legacy metric's unit from its name.
func legacyUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "-ms"):
		return "ms"
	case strings.HasSuffix(name, "-pct"):
		return "%"
	case name == "speedup" || name == "cpu/wall" || name == "degradation":
		return "ratio"
	}
	return "count"
}
