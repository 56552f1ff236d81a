package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// compareMain compares two sets of runs, each a JSONL file of full
// result records (perfbench --out). For every (workload, metric) it
// prints both sides' median and quartiles, the fraction of pairs the
// head wins, and a verdict: "better" when the head wins at least nine
// tenths of the pairs (ties count for neither) and the medians differ
// by more than the distance between the base's own quartiles; "worse"
// by the same rule in the other direction; otherwise "unresolved".
// Pairs are the i-th runs of each side, in file order.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	base := fs.String("base", "", "JSONL records of the base (parent) runs")
	head := fs.String("head", "", "JSONL records of the head (change) runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *head == "" {
		fmt.Fprintln(os.Stderr, "perfbench compare: need --base and --head")
		return 2
	}
	b, err := readRecords(*base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 1
	}
	h, err := readRecords(*head)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 1
	}
	for _, row := range compareSets(b, h) {
		fmt.Fprintln(stdout, row)
	}
	return 0
}

// readRecords loads the run records (label "run") of a JSONL file.
func readRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var r Record
		if err := json.Unmarshal([]byte(text), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Schema == schema && r.Label == "run" {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// comparison is one (workload, metric) row.
type comparison struct {
	workload, metric, unit, better string
	base, head                     []float64
}

// compareSets pairs base and head runs by workload and traced-ness and
// renders one line per metric.
func compareSets(base, head []Record) []string {
	defs := metricDefs()
	rows := map[string]*comparison{}
	collect := func(recs []Record, side func(*comparison) *[]float64) {
		for _, r := range recs {
			wl := r.Workload
			if r.Meta.Traced {
				wl += " (traced)"
			}
			for name, m := range r.Metrics {
				d, ok := defs[name]
				if !ok {
					continue
				}
				key := wl + "\x00" + name
				c := rows[key]
				if c == nil {
					c = &comparison{workload: wl, metric: name, unit: m.Unit, better: d.better}
					rows[key] = c
				}
				*side(c) = append(*side(c), m.Value)
			}
		}
	}
	collect(base, func(c *comparison) *[]float64 { return &c.base })
	collect(head, func(c *comparison) *[]float64 { return &c.head })

	out := []string{fmt.Sprintf("%-22s %-28s %-22s %-22s %6s %6s  %s",
		"workload", "metric", "base median [q1,q3]", "head median [q1,q3]", "delta", "wins", "verdict")}
	for _, key := range sortedKeys(rows) {
		c := rows[key]
		if len(c.base) == 0 || len(c.head) == 0 {
			continue
		}
		v := c.verdict()
		out = append(out, fmt.Sprintf("%-22s %-28s %-22s %-22s %+5.1f%% %6s  %s",
			c.workload, c.metric+" ("+c.unit+")", spread(c.base), spread(c.head),
			100*ratio(median(c.head)-median(c.base), math.Abs(median(c.base))),
			fmt.Sprintf("%d/%d", v.wins, v.pairs), v.text))
	}
	return out
}

type verdict struct {
	wins, losses, pairs int
	text                string
}

// verdict applies the rule documented on compareMain.
func (c *comparison) verdict() verdict {
	n := min(len(c.base), len(c.head))
	v := verdict{pairs: n}
	sign := 1.0
	if c.better == "lower" {
		sign = -1
	}
	for i := 0; i < n; i++ {
		switch d := sign * (c.head[i] - c.base[i]); {
		case d > 0:
			v.wins++
		case d < 0:
			v.losses++
		}
	}
	q := quartiles(c.base)
	iqr := q[2] - q[0]
	diff := sign * (median(c.head) - median(c.base))
	switch {
	case float64(v.wins) >= 0.9*float64(n) && diff > iqr:
		v.text = "better"
	case float64(v.losses) >= 0.9*float64(n) && -diff > iqr:
		v.text = "worse"
	default:
		v.text = "unresolved"
	}
	if n < 10 {
		v.text += fmt.Sprintf(" (only %d pairs; the rule asks for 10)", n)
	}
	return v
}

func spread(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g,%.4g]", q[1], q[0], q[2])
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive"
// method); with one value all three are that value.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return [3]float64{}
	}
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	const n = 4
	m := len(s) + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q
}
